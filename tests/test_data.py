import codecs
import hashlib
import re
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcodr import data
from lcodr.cli import main
from lcodr.data import (
    DataError,
    IrregularSpacing,
    MissingColumn,
    NonMonotonicTimestamps,
    NonNumericValue,
    default_bundle,
    load_boundary_csv,
    load_lcos_reference,
    load_profile_pool_csv,
    load_timeseries_csv,
    profile_value_factors,
    synthetic_ev_charging_pool,
    synthetic_ev_charging_profiles,
    synthetic_heating_pool,
    synthetic_heating_profiles,
    synthetic_price,
    synthetic_v2g_profiles,
)
from lcodr.valuefactor import ValueFactorError, vf_subsample_mc


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_two_row_file(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00+00:00,10.5\n"
                           "2023-01-01T01:00:00+00:00,11.0\n")
    ts = load_timeseries_csv(path)
    assert len(ts) == 2
    assert ts.interval_seconds == 3600.0
    assert list(ts.values) == [10.5, 11.0]


def test_naive_timestamps_are_utc(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "2023-01-01T01:00:00,2\n")
    ts = load_timeseries_csv(path)
    assert ts.start.utcoffset().total_seconds() == 0


def test_missing_column(tmp_path):
    path = write(tmp_path, "time,value\n2023-01-01T00:00:00,1\n")
    with pytest.raises(MissingColumn) as err:
        load_timeseries_csv(path)
    assert "timestamp" in str(err.value)


def test_duplicate_timestamp_pinpoints_row(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "2023-01-01T01:00:00,2\n"
                           "2023-01-01T01:00:00,3\n")
    with pytest.raises(NonMonotonicTimestamps) as err:
        load_timeseries_csv(path)
    assert err.value.row == 4   # header is row 1


def test_gap_pinpoints_row(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "2023-01-01T01:00:00,2\n"
                           "2023-01-01T03:00:00,3\n")
    with pytest.raises(IrregularSpacing) as err:
        load_timeseries_csv(path)
    assert err.value.row == 4


def test_non_numeric_value(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "2023-01-01T01:00:00,oops\n")
    with pytest.raises(NonNumericValue) as err:
        load_timeseries_csv(path)
    assert err.value.row == 3


def test_missing_file():
    with pytest.raises(DataError):
        load_timeseries_csv("/nonexistent/file.csv")


def test_boundary_loader(tmp_path):
    path = write(tmp_path, "timestamp,lower,upper\n"
                           "2023-01-01T00:00:00,0,20\n"
                           "2023-01-01T01:00:00,5,30\n")
    prof = load_boundary_csv(path)
    assert list(prof.band().values) == [20.0, 25.0]


def test_pool_loader(tmp_path):
    path = write(tmp_path, "asset_id,timestamp,value\n"
                           "a,2023-01-01T00:00:00,1\n"
                           "a,2023-01-01T01:00:00,2\n"
                           "b,2023-01-01T00:00:00,3\n"
                           "b,2023-01-01T01:00:00,4\n")
    pool = load_profile_pool_csv(path)
    assert [p.asset_id for p in pool] == ["a", "b"]
    assert list(pool[1].series.values) == [3.0, 4.0]


def test_lcos_reference_bundled():
    entries = load_lcos_reference()
    apps = {e.application for e in entries}
    assert len(apps) == 12
    assert all(e.lcos_usd_per_mwh > 0 for e in entries)


def test_synthetic_price_mean_and_shape():
    price = synthetic_price(days=60, seed=1)
    assert price.values.mean() == pytest.approx(50.0, rel=1e-12)
    assert price.values.min() > 0
    daily = price.values.reshape(-1, 24).mean(axis=0)
    # evening hours are the most expensive; the small hours the cheapest
    assert 17 <= int(np.argmax(daily)) <= 21
    assert int(np.argmin(daily)) <= 6


def test_synthetic_ev_pool_evening_peak():
    pool = synthetic_ev_charging_pool(n_assets=30, days=30, seed=2)
    total = np.sum([p.series.values for p in pool], axis=0)
    daily = total.reshape(-1, 24).mean(axis=0)
    assert 16 <= int(np.argmax(daily)) <= 22   # unimodal evening peak
    assert np.all(total >= 0)


def test_synthetic_heating_bimodal():
    pool = synthetic_heating_pool(n_assets=20, days=30, seed=2)
    total = np.sum([p.series.values for p in pool], axis=0)
    daily = total.reshape(-1, 24).mean(axis=0)
    morning = daily[5:10].max()
    evening = daily[17:22].max()
    trough = daily[11:16].min()
    # peaks in the fixed morning and evening windows, dip in between
    assert morning > trough and evening > trough


def test_synthetic_v2g_boundaries_ordered():
    power, energy = synthetic_v2g_profiles(days=30, seed=2)
    assert np.all(power.series.values >= 0)
    assert np.all(energy.upper.values >= energy.series.values - 1e-9)


def test_bundle_deterministic():
    a = default_bundle(seed=7, days=10)
    b = default_bundle(seed=7, days=10)
    assert np.array_equal(a.price.values, b.price.values)
    assert np.array_equal(a.v2g_power.series.values, b.v2g_power.series.values)
    c = default_bundle(seed=8, days=10)
    assert not np.array_equal(a.price.values, c.price.values)


@pytest.mark.parametrize("profiles,pool", [
    (synthetic_ev_charging_profiles, synthetic_ev_charging_pool),
    (synthetic_heating_profiles, synthetic_heating_pool),
])
def test_a_pool_total_over_a_generator_is_bitwise_the_total_over_its_list(profiles, pool):
    listed = pool(n_assets=9, days=6, seed=3)
    streamed = profiles(n_assets=9, days=6, seed=3)
    assert not isinstance(streamed, list)
    a, b = data._pool_total(streamed), data._pool_total(listed)
    assert a.series.values.tobytes() == b.series.values.tobytes()
    assert (a.upper, a.asset_id, a.series.start, a.series.interval_seconds) == \
        (b.upper, b.asset_id, b.series.start, b.series.interval_seconds)


@pytest.mark.parametrize("empty", [[], iter(())])
def test_an_empty_pool_is_a_value_factor_error_naming_the_pool(empty):
    bundle = default_bundle(days=3)
    with pytest.raises(ValueFactorError, match="pool has no assets") as info:
        profile_value_factors(bundle.price, bundle.ev_charging_pool, empty,
                              bundle.v2g_power, bundle.v2g_energy)
    assert info.value.source == "hp_pool"


def test_bundled_value_factors_are_the_config_goldens():
    from lcodr.model import ValueFactorTable, default_parameters
    table = ValueFactorTable(**profile_value_factors(*vars(default_bundle()).values()))
    configured = default_parameters().value_factors
    assert table.smart_charging == pytest.approx(configured.smart_charging, rel=1e-12)
    assert table.heat_pump == pytest.approx(configured.heat_pump, rel=1e-12)
    assert table.v2g_power == pytest.approx(configured.v2g_power, rel=1e-12)
    assert table.v2g_energy == pytest.approx(configured.v2g_energy, rel=1e-12)


# ---------------------------------------------------------------------------
# Round trips and row-pinpointed errors of the column-wise loaders
# ---------------------------------------------------------------------------

def _stamps(series):
    step = timedelta(seconds=series.interval_seconds)
    return [(series.start + k * step).isoformat() for k in range(len(series))]


def test_loaders_round_trip_synthetic_data(tmp_path):
    price = synthetic_price(days=3, seed=4)
    power, energy = synthetic_v2g_profiles(days=3, seed=4)
    pool = synthetic_heating_pool(n_assets=3, days=3, seed=4)[::-1]   # not sorted by id
    stamps = _stamps(price)
    path = write(tmp_path, "timestamp,value\n" + "".join(
        f"{t},{v!r}\n" for t, v in zip(stamps, price.values.tolist())))
    loaded = load_timeseries_csv(path)
    assert np.array_equal(loaded.values, price.values)
    assert (loaded.start, loaded.interval_seconds) == (price.start, price.interval_seconds)
    path = write(tmp_path, "timestamp,lower,upper\n" + "".join(
        f"{t},{lo!r},{up!r}\n" for t, lo, up in zip(
            stamps, energy.series.values.tolist(), energy.upper.values.tolist())))
    band = load_boundary_csv(path)
    assert np.array_equal(band.series.values, energy.series.values)
    assert np.array_equal(band.upper.values, energy.upper.values)
    assert band.series.start == energy.series.start
    path = write(tmp_path, "asset_id,timestamp,value\n" + "".join(
        f"{p.asset_id},{t},{v!r}\n" for p in pool
        for t, v in zip(stamps, p.series.values.tolist())))
    loaded_pool = load_profile_pool_csv(path)
    assert [p.asset_id for p in loaded_pool] == [p.asset_id for p in pool]
    for got, want in zip(loaded_pool, pool):
        assert np.array_equal(got.series.values, want.series.values)
        assert got.series.start == want.series.start
        assert got.series.interval_seconds == want.series.interval_seconds


#: A small file of each loader's layout, as lines.
LAYOUT_LINES = {
    "series": ["timestamp,value", "2023-01-01T00:00:00,1.5", "2023-01-01T01:00:00,2"],
    "boundaries": ["timestamp,lower,upper", "2023-01-01T00:00:00,0,3",
                   "2023-01-01T01:00:00,1,4"],
    "pool": ["asset_id,timestamp,value", "a,2023-01-01T00:00:00,1", "a,2023-01-01T01:00:00,2",
             "b,2023-01-01T00:00:00,3", "b,2023-01-01T01:00:00,4"],
    "lcos": ["application,technology,lcos_usd_per_mwh", "Peaker replacement,lithium_ion,150",
             "Peaker replacement,flow battery,175.5"],
}


def _loaded(layout, path):
    """What the loader of a layout (the one --lcos uses for "lcos") reads from path."""
    def series(s):
        return s.start, s.interval_seconds, s.values.tolist()
    if layout == "series":
        return series(load_timeseries_csv(path))
    if layout == "boundaries":
        band = load_boundary_csv(path)
        return series(band.series), series(band.upper)
    if layout == "pool":
        return [(p.asset_id, series(p.series)) for p in load_profile_pool_csv(path)]
    return load_lcos_reference(path)


@pytest.mark.parametrize("block_bytes", [1, data._BLOCK_BYTES])
@pytest.mark.parametrize("form", ["split", "quoted", "crlf"])
@pytest.mark.parametrize("layout", LAYOUT_LINES)
def test_a_leading_byte_order_mark_loads_as_the_plain_file(tmp_path, monkeypatch, layout, form,
                                                           block_bytes):
    lines = LAYOUT_LINES[layout]
    if form == "quoted":   # read by csv.reader
        lines = ['"' + '","'.join(line.split(",")) + '"' for line in lines]
    end = "\r\n" if form == "crlf" else "\n"
    text = (end.join(lines) + end).encode("utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    assert _loaded(layout, str(marked)) == _loaded(layout, str(plain))


def test_only_a_leading_byte_order_mark_is_dropped_and_the_digest_keeps_it(tmp_path,
                                                                          monkeypatch):
    bom, rows = codecs.BOM_UTF8, b"2023-01-01T00:00:00,1\n2023-01-01T01:00:00,2\n"
    path = tmp_path / "p.csv"
    path.write_bytes(bom + b"timestamp,value\n" + rows)
    digest = hashlib.sha256()
    load_timeseries_csv(str(path), digest=digest)
    assert digest.digest() == hashlib.sha256(path.read_bytes()).digest()
    path.write_bytes(bom + bom + b"timestamp,value\n" + rows)
    with pytest.raises(MissingColumn, match=re.escape("found ['\\ufefftimestamp', 'value']")):
        load_timeseries_csv(str(path))
    # a mark at the start of a later block is data as well
    monkeypatch.setattr(data, "_BLOCK_BYTES", 16)
    path.write_bytes(bom + b"timestamp,value\n" + bom + rows)
    with pytest.raises(NonNumericValue, match=re.escape("'\\ufeff2023-01-01T00:00:00'")) as err:
        load_timeseries_csv(str(path))
    assert err.value.row == 2


def test_offset_timestamps_give_the_utc_start(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T01:00:00+01:00,1\n"
                           "2023-01-01T02:00:00+01:00,2\n")
    ts = load_timeseries_csv(path)
    assert ts.start == datetime(2023, 1, 1, tzinfo=timezone.utc)
    assert ts.start.tzinfo is timezone.utc


@pytest.mark.parametrize("short,long", [
    ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S+00:00"),
    ("%Y-%m-%dT%H:%M:%S.5", "%Y-%m-%dT%H:%M:%S.500000"),
    ("%Y%m%dT%H%M%S", "%Y-%m-%dT%H:%M:%S"),
])
def test_timestamp_forms_that_python_3_10_rejects_load_as_their_long_forms(tmp_path, short,
                                                                           long):
    # datetime.fromisoformat takes the short forms from Python 3.11 on
    stamps = [datetime(2023, 1, 1) + timedelta(hours=h) for h in range(3)]

    def loaded(form, name):
        s = load_timeseries_csv(write(tmp_path, "timestamp,value\n" + "".join(
            f"{t.strftime(form)},{k}\n" for k, t in enumerate(stamps)), name))
        return s.start, s.interval_seconds, s.values.tolist()

    assert loaded(short, "short.csv") == loaded(long, "long.csv")


def test_one_data_row_names_the_row(tmp_path):
    path = write(tmp_path, "timestamp,value\n2023-01-01T00:00:00,1\n")
    with pytest.raises(DataError) as err:
        load_timeseries_csv(path)
    assert err.value.row == 2


def test_header_only_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_timeseries_csv(write(tmp_path, "timestamp,value\n"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_value_names_the_row(tmp_path, bad):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           f"2023-01-01T01:00:00,{bad}\n"
                           "2023-01-01T02:00:00,3\n")
    with pytest.raises(NonNumericValue) as err:
        load_timeseries_csv(path)
    assert err.value.row == 3


def test_short_row_names_the_row_and_field(tmp_path):
    path = write(tmp_path, "timestamp,lower,upper\n"
                           "2023-01-01T00:00:00,0,1\n"
                           "2023-01-01T01:00:00,0\n"
                           "2023-01-01T02:00:00,0,1\n")
    with pytest.raises(DataError, match="missing field 'upper'") as err:
        load_boundary_csv(path)
    assert err.value.row == 3


def test_first_bad_row_wins_across_columns(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "2023-01-01T01:00:00,oops\n"
                           "2023-01-01T02:00:00,3\n"
                           "not-a-time,4\n"
                           "2023-01-01T04:00:00\n")
    with pytest.raises(NonNumericValue, match="non-numeric value") as err:
        load_timeseries_csv(path)
    assert err.value.row == 3


def test_timestamp_error_wins_within_a_row(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "later,oops\n")
    with pytest.raises(NonNumericValue, match="timestamp") as err:
        load_timeseries_csv(path)
    assert err.value.row == 3


def test_blank_lines_are_not_counted(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T00:00:00,1\n"
                           "\n"
                           "2023-01-01T01:00:00,2\n"
                           "2023-01-01T02:00:00,nan\n")
    with pytest.raises(NonNumericValue) as err:
        load_timeseries_csv(path)
    assert err.value.row == 4   # as csv.DictReader numbers records


def test_repeated_column_uses_its_last_occurrence(tmp_path):
    path = write(tmp_path, "value,timestamp,value\n"
                           "9,2023-01-01T00:00:00,1\n"
                           "9,2023-01-01T01:00:00,2\n")
    assert list(load_timeseries_csv(path).values) == [1.0, 2.0]


POOL_HEADER = ("asset_id,timestamp,value\n"
               "a,2023-01-01T00:00:00,1\n"
               "a,2023-01-01T01:00:00,2\n"
               "a,2023-01-01T02:00:00,2\n")


def test_pool_error_inside_second_asset_block(tmp_path):
    path = write(tmp_path, POOL_HEADER +
                 "b,2023-01-01T00:00:00,3\n"
                 "b,2023-01-01T01:00:00,4\n"
                 "b,2023-01-01T01:00:00,5\n")
    with pytest.raises(NonMonotonicTimestamps) as err:
        load_profile_pool_csv(path)
    assert err.value.row == 7


def test_pool_value_error_beats_grid_error_of_earlier_asset(tmp_path):
    path = write(tmp_path, "asset_id,timestamp,value\n"
                           "a,2023-01-01T00:00:00,1\n"
                           "a,2023-01-01T00:00:00,2\n"
                           "b,2023-01-01T00:00:00,3\n"
                           "b,2023-01-01T01:00:00,inf\n")
    with pytest.raises(NonNumericValue) as err:
        load_profile_pool_csv(path)
    assert err.value.row == 5


def test_pool_asset_with_one_row_names_it(tmp_path):
    path = write(tmp_path, POOL_HEADER + "b,2023-01-01T00:00:00,3\n")
    with pytest.raises(DataError, match="'b'") as err:
        load_profile_pool_csv(path)
    assert err.value.row == 5


def test_pool_short_row_in_second_asset(tmp_path):
    path = write(tmp_path, POOL_HEADER + "b,2023-01-01T00:00:00,3\nb\n")
    with pytest.raises(DataError, match="missing field 'timestamp'") as err:
        load_profile_pool_csv(path)
    assert err.value.row == 6


def test_pool_interleaved_assets_keep_first_occurrence_order(tmp_path):
    path = write(tmp_path, "asset_id,timestamp,value\n"
                           "z,2023-01-01T00:00:00,1\n"
                           "a,2023-01-01T00:00:00,3\n"
                           "z,2023-01-01T01:00:00,2\n"
                           "a,2023-01-01T01:00:00,4\n")
    pool = load_profile_pool_csv(path)
    assert [p.asset_id for p in pool] == ["z", "a"]
    assert list(pool[1].series.values) == [3.0, 4.0]


@pytest.mark.parametrize("block", [
    "b,2023-01-01T00:00:00,3\nb,2023-01-01T01:00:00,4\n",                  # shorter
    "b,2023-01-01T01:00:00,3\nb,2023-01-01T02:00:00,4\nb,2023-01-01T03:00:00,5\n",
    "b,2023-01-01T00:00:00,3\nb,2023-01-01T02:00:00,4\nb,2023-01-01T04:00:00,5\n",
])
def test_pool_assets_on_different_grids_are_rejected(tmp_path, block):
    pool = load_profile_pool_csv(write(tmp_path, POOL_HEADER + block))
    price, power, energy = synthetic_price(days=1), *synthetic_v2g_profiles(days=1)
    with pytest.raises(ValueFactorError, match="'b'"):
        profile_value_factors(price, pool, pool, power, energy)


def test_lcos_reference_non_finite_is_a_data_error(tmp_path):
    path = write(tmp_path, "application,technology,lcos_usd_per_mwh\n"
                           "Energy arbitrage,Li-ion,100\n"
                           "Energy arbitrage,Flow,nan\n")
    with pytest.raises(NonNumericValue) as err:
        load_lcos_reference(path)
    assert err.value.row == 3


def test_lcos_reference_negative_is_a_data_error(tmp_path):
    # a same-scheme draw is conditioned on [0, inf), which a negative cost
    # lies outside; a cost of 0 is valid
    path = write(tmp_path, "application,technology,lcos_usd_per_mwh\n"
                           "Energy arbitrage,Li-ion,0\n"
                           "Energy arbitrage,Flow,-0.5\n")
    with pytest.raises(DataError, match="lcos_usd_per_mwh -0.5 is below 0") as err:
        load_lcos_reference(path)
    assert err.value.row == 3


@pytest.mark.parametrize("row,match", [
    ("Energy arbitrage,v2g,5.0\n", "named after a scheme"),
    ("Energy arbitrage,Li-ion,5.0\n", "repeated technology 'Li-ion'"),
    ('Energy arbitrage,"Li, ion",5.0\n', "comma"),
    ('Energy arbitrage,"Li ""ion""",5.0\n', "double quote"),
    ('Energy arbitrage,"Li\rion",5.0\n', "line break"),
    ('Energy arbitrage,"Li\nion",5.0\n', "line break"),
    ('"Energy arbitrage, day-ahead",Flow,5.0\n', "comma"),
])
def test_lcos_labels_that_would_merge_or_break_a_row_are_data_errors(tmp_path, row, match):
    path = write(tmp_path, "application,technology,lcos_usd_per_mwh\n"
                           "Energy arbitrage,Li-ion,100\n" + row)
    with pytest.raises(DataError, match=match) as err:
        load_lcos_reference(path)
    assert err.value.row == 3


def test_default_bundle_builds_v2g_profiles_once(monkeypatch):
    calls = []
    original = data.synthetic_v2g_profiles

    def counting(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(data, "synthetic_v2g_profiles", counting)
    bundle = default_bundle(seed=5, days=4)
    assert calls == [{"days": 4, "seed": 5}]
    power, energy = original(days=4, seed=5)
    assert np.array_equal(bundle.v2g_power.series.values, power.series.values)
    assert np.array_equal(bundle.v2g_energy.upper.values, energy.upper.values)


@pytest.mark.parametrize("name,text", [
    ("one.csv", "timestamp,value\n2023-01-01T00:00:00,1\n"),
    ("short.csv", "timestamp,value\n2023-01-01T00:00:00,1\n2023-01-01T01:00:00\n"),
    ("nan.csv", "timestamp,value\n2023-01-01T00:00:00,1\n2023-01-01T01:00:00,nan\n"),
])
@pytest.mark.parametrize("command", [["vf"], ["run", "--compute-vf"]])
def test_malformed_price_file_exits_3_with_its_row(tmp_path, capsys, name, text, command):
    path = write(tmp_path, text, name)
    assert main(command + ["--out", str(tmp_path / "o"), "--price", path]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: data: {path}:")


HOURS = [f"2023-01-01T{h:02d}:00:00" for h in range(3)]


@pytest.mark.parametrize("command,flag,lines,row,message", [
    (["vf"], "--ev-pool", ["asset_id,timestamp,value", f"a,{HOURS[0]},1", f"a,{HOURS[1]},2",
                           f"b,{HOURS[0]},3", f"b,{HOURS[1]},-0.5"],
     5, "availability value -0.5 is below 0"),
    (["run", "--compute-vf"], "--hp-pool",
     ["asset_id,timestamp,value", f"a,{HOURS[0]},-1", f"b,{HOURS[0]},-2", f"a,{HOURS[1]},1",
      f"b,{HOURS[1]},1"], 2, "availability value -1.0 is below 0"),
    (["vf"], "--v2g-power", ["timestamp,value", f"{HOURS[0]},1", f"{HOURS[1]},-2",
                             f"{HOURS[2]},1"], 3, "availability value -2.0 is below 0"),
    (["vf"], "--v2g-boundaries", ["timestamp,lower,upper", f"{HOURS[0]},0,3",
                                  f"{HOURS[1]},0,3", f"{HOURS[2]},4,3"],
     4, "upper energy boundary 3.0 below lower boundary 4.0"),
])
def test_bad_availability_value_exits_3_with_its_row(tmp_path, capsys, command, flag, lines,
                                                     row, message):
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert main(command + ["--out", str(tmp_path / "o"), flag, path]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: data: {path}:{row}: {message}"]


def test_pool_load_and_subsample_hold_one_block_and_per_asset_sums(tmp_path):
    # the 60 loaded profiles of an hourly year hold 4 MiB; whole-file
    # columns took the load's peak to about 29 MiB, keeping each row's
    # timestamp and file row for a grid check at the end to 16 MiB, and
    # stacking the aligned pool took the subsampler's to 16 MiB above what
    # it was given
    stamps = [(datetime(2023, 1, 1) + timedelta(hours=h)).isoformat() for h in range(8760)]
    path = tmp_path / "pool.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("asset_id,timestamp,value\n")
        for prof in synthetic_ev_charging_profiles(n_assets=60, seed=3):
            fh.writelines(f"{prof.asset_id},{t},{v!r}\n"
                          for t, v in zip(stamps, prof.series.values.tolist()))
    tracemalloc.start()
    try:
        pool = load_profile_pool_csv(str(path))
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        vf_subsample_mc(pool, synthetic_price(seed=3), subset_size=50, iterations=2000, seed=3)
        subsample_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(pool) == 60 and all(len(p.series) == 8760 for p in pool)
    assert load_peak < 11 * 2 ** 20
    assert subsample_peak < 4 * 2 ** 20


def test_time_ordered_pool_of_many_assets_loads_without_per_asset_chunks(tmp_path):
    # 1,000 assets over one day of quarter-hours, one time step after the
    # other, so every block holds every asset; chunks kept per block and
    # asset took the load's traced peak to 12 MiB, whole-file columns to 15
    stamps = [(datetime(2023, 1, 1) + timedelta(minutes=15 * k)).isoformat() for k in range(96)]
    values = np.random.default_rng(0).random((96, 1000)).tolist()
    path = tmp_path / "pool.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("asset_id,timestamp,value\n")
        for t, step in zip(stamps, values):
            fh.writelines(f"ev_{a:04d},{t},{v!r}\n" for a, v in enumerate(step))
    tracemalloc.start()
    try:
        pool = load_profile_pool_csv(str(path))
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.asset_id for p in pool] == [f"ev_{a:04d}" for a in range(1000)]
    assert all(p.series.values.tolist() == [step[a] for step in values]
               for a, p in enumerate(pool))
    assert load_peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# Column parsers against row-by-row parsing
# ---------------------------------------------------------------------------

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def row_timestamps(column, path):
    """The row-by-row timestamp parse the column parser replaces."""
    parsed = []
    for row, text in enumerate(column, start=2):
        try:
            ts = datetime.fromisoformat(text.strip())
        except ValueError:
            raise NonNumericValue(f"unparseable timestamp {text!r}", path, row) from None
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        parsed.append((ts - EPOCH) // timedelta(microseconds=1))
    return np.array(parsed)


def row_numbers(column, path):
    return np.array([data._parse_number(t, "value", path, r)
                     for r, t in enumerate(column, start=2)])


def outcome(parse):
    try:
        return parse()
    except DataError as exc:
        return type(exc), exc.row, str(exc)


def assert_same_outcome(column_result, row_result):
    if isinstance(row_result, tuple):
        assert column_result == row_result
    else:
        assert len(column_result) == len(row_result)
        assert (column_result == row_result).all()


OFFSETS = st.builds(lambda minutes: timezone(timedelta(minutes=minutes)),
                    st.integers(-23 * 60 - 59, 23 * 60 + 59))
STAMP_TEXTS = st.one_of(
    st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
                 timezones=st.none() | OFFSETS).map(datetime.isoformat),
    st.sampled_from(["2023-01-01T00:00:00", " 2023-01-01T01:00:00+00:00 ",
                     "2023-01-01 02:00", "2023-01-01", "2023-01-01T03:00:00Z",
                     "", "later", "2023-13-01T00:00:00", "2023-01-01T24:00:00",
                     "2023-01-01T00:00:00+25:00"]),
    st.text(alphabet="0123-T: +Z", max_size=12))
NUMBER_TEXTS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1", " -2.5 ", "1e3", "1_000", "", "abc", "nan", "-inf",
                     "Infinity", "1e400", "1,5", "0x10"]),
    st.text(alphabet="0123456789.e-+ naif", max_size=6))


def columns_of(texts):
    """Columns drawn from a few distinct texts, so most texts repeat."""
    return st.lists(texts, min_size=1, max_size=6, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(columns_of(STAMP_TEXTS))
def test_timestamp_column_parse_equals_the_row_by_row_parse(column):
    assert_same_outcome(outcome(lambda: data._parse_timestamps(column, "timestamp", "f.csv")),
                        outcome(lambda: row_timestamps(column, "f.csv")))


@settings(max_examples=300, deadline=None)
@given(columns_of(NUMBER_TEXTS))
def test_number_column_parse_equals_the_row_by_row_parse(column):
    assert_same_outcome(outcome(lambda: data._parse_numbers(column, "value", "f.csv")),
                        outcome(lambda: row_numbers(column, "f.csv")))
