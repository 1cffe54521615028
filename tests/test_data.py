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
    bundle_value_factors,
    default_bundle,
    load_boundary_csv,
    load_lcos_reference,
    load_profile_pool_csv,
    load_timeseries_csv,
    profile_value_factors,
    synthetic_ev_charging_pool,
    synthetic_heating_pool,
    synthetic_price,
    synthetic_v2g_profiles,
)
from lcodr.valuefactor import ValueFactorError


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


def test_bundled_value_factors_are_the_config_goldens():
    from lcodr.model import default_parameters
    table, _ = bundle_value_factors(default_bundle())
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
    loaded = load_timeseries_csv(path, unit="$/MWh")
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


def test_offset_timestamps_give_the_utc_start(tmp_path):
    path = write(tmp_path, "timestamp,value\n"
                           "2023-01-01T01:00:00+01:00,1\n"
                           "2023-01-01T02:00:00+01:00,2\n")
    ts = load_timeseries_csv(path)
    assert ts.start == datetime(2023, 1, 1, tzinfo=timezone.utc)
    assert ts.start.tzinfo is timezone.utc


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
