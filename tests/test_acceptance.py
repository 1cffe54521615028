"""Acceptance suite: one test per headline criterion, each printing a single
PASS/FAIL line. Run with `pytest -v -s tests/test_acceptance.py` to see the
lines as they happen."""

import json

import numpy as np
import pytest

from lcodr.costing import evaluate_pairing, monthly_reward, present_value_annual
from lcodr.model import (
    ApplicationSpec,
    Assumptions,
    EvParameters,
    HeatParameters,
    ParameterSet,
    SchemeKind,
    ValueFactorTable,
    default_applications,
    default_parameters,
    load_config_dict,
    parameter_values,
)
from lcodr.sizing import (
    availability_factor,
    hp_max_discharge_duration,
    size_pairing,
    smart_charging_max_discharge_duration,
    thermal_storage_max_discharge_duration,
    v2g_max_discharge_duration,
)
from lcodr.uncertainty import McConfig, cheapest_probability, run_monte_carlo
from lcodr.valuefactor import value_factor
from lcodr.data import default_bundle, load_lcos_reference, profile_value_factors
from lcodr.model import TimeSeries
from datetime import datetime, timezone


def _report(number, name, ok):
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _sized(scheme, hours, params):
    """The kernel's sizing of `scheme` for a 1 MW application of `hours`."""
    app = ApplicationSpec("sized", 1000.0, hours, 10.0, frozenset({scheme}))
    return size_pairing(scheme, app, params)


@pytest.fixture(scope="module")
def full_mc():
    """The default 1000-sample Monte-Carlo over all 48 pairings, shared by
    the criteria that consume it."""
    cfg = McConfig(samples=1000, seed=0)
    dists = run_monte_carlo(list(SchemeKind), default_applications(),
                            default_parameters(), cfg)
    return cfg, dists


def test_criterion_01_reward_formula_fixture(tmp_path):
    def reward_at_15h(params):
        return monthly_reward(SchemeKind.SMART_CHARGING, parameter_values(params),
                              params.assumptions, plugin_time=15.0)

    at_10 = reward_at_15h(ParameterSet(assumptions=Assumptions(reward_base_hours=10.0)))
    at_observed = reward_at_15h(ParameterSet())
    # the discrepancy between the two anchors is flagged in run metadata
    from lcodr.cli import main
    out = tmp_path / "out"
    main(["run", "--out", str(out), "--reward-base-hours", "10"])
    flags = json.loads((out / "manifest.json").read_text())["assumption_flags"]
    ok = (abs(at_10 - 99.81) <= 0.01
          and abs(at_observed - 82.11) <= 0.01
          and flags["reward_base_hours_differs_from_base_plugin_time"] is True)
    _report(1, "reward formula fixture", ok)


def test_criterion_02_suitability_gate():
    params = default_parameters()
    apps = {a.name: a for a in default_applications()}
    unidirectional = [SchemeKind.SMART_CHARGING, SchemeKind.SMART_HEAT_PUMP,
                      SchemeKind.HP_THERMAL_STORAGE]
    ok = True
    for name, app in apps.items():
        for scheme in SchemeKind:
            status = evaluate_pairing(scheme, app, params).status
            if name == "Seasonal storage":
                ok &= status == "unsuitable"
            elif name in ("Black start", "Power quality", "Power reliability"):
                if scheme in unidirectional:
                    ok &= status == "unsuitable"
                else:
                    ok &= status != "unsuitable"
            else:
                ok &= status != "unsuitable"
    _report(2, "application suitability gate", ok)


def test_criterion_03_thermal_storage_dominance(full_mc):
    cfg, dists = full_mc
    lcos = load_lcos_reference()
    by_app = {}
    for d in dists:
        by_app.setdefault(d.application, []).append(d)
    ok = True
    for app in default_applications():
        hpts = [d for d in by_app[app.name]
                if d.technology == SchemeKind.HP_THERMAL_STORAGE.value]
        if not hpts or hpts[0].feasible_fraction == 0:
            continue
        entries = [(e.technology, e.lcos_usd_per_mwh)
                   for e in lcos if e.application == app.name]
        probs = cheapest_probability(by_app[app.name], cfg, entries)
        p = probs[SchemeKind.HP_THERMAL_STORAGE.value]
        print(f"    hp_thermal_storage cheapest on {app.name!r}: {p:.3f}")
        ok &= p == 1.0
    _report(3, "thermal storage cheapest with probability 1.00", ok)


def test_criterion_04_value_factor_ordering():
    table = ValueFactorTable(**profile_value_factors(*vars(default_bundle()).values()))
    ok = (table.smart_charging > table.heat_pump + 0.01
          and table.heat_pump > 1.01
          and 0.95 <= table.v2g_power <= 1.05
          and 0.95 <= table.v2g_energy <= 1.05)
    # the two heat-pump schemes share one factor by construction
    ok &= table.for_scheme(SchemeKind.SMART_HEAT_PUMP) == \
        table.for_scheme(SchemeKind.HP_THERMAL_STORAGE)
    _report(4, "value factor ordering on bundled profiles", ok)


def test_criterion_05_discounting_oracle():
    ok = True
    for r in (0.001, 0.005, 0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2):
        for years in range(1, 31):
            explicit = present_value_annual(1.0, r, years)
            closed = (1.0 - (1.0 + r) ** -years) / r
            ok &= abs(explicit - closed) <= 1e-12 * closed
    # rebound-only cost per MWh is the energy price (50 $/MWh), independent
    # of (r, T): smart charging with no charger cost and no reward
    app = ApplicationSpec("rebound only", 1000.0, 1.0, 777.0,
                          frozenset({SchemeKind.SMART_CHARGING}))
    for r, years in ((0.0, 1), (0.033, 9), (0.19, 28)):
        params, _ = load_config_dict({
            "smart_charger_capex": 0.0, "smart_reward_base": 0.0,
            "smart_reward_per_hour": 0.0, "reward_floor": 0.0,
            "discount_rate": r, "lifetime_years": years})
        b = evaluate_pairing(SchemeKind.SMART_CHARGING, app, params).breakdown
        ok &= abs(b.lcodr_energy - 50.0) <= 1e-12 * 50.0
    _report(5, "discounting oracle", ok)


def test_criterion_06_inversion_roundtrips():
    rng = np.random.default_rng(606)
    ok = True
    checked = 0
    while checked < 200:
        ev = EvParameters(
            charger_power=rng.uniform(3.0, 22.0),
            charger_efficiency=rng.uniform(0.85, 0.99),
            battery_capacity=rng.uniform(30.0, 100.0),
            guaranteed_min_charge=rng.uniform(0.1, 0.6),
            daily_drive_energy=rng.uniform(2.0, 12.0),
            home_charge_fraction=rng.uniform(0.5, 1.0))
        heat = HeatParameters(
            hp_active_power=rng.uniform(1.0, 4.0),
            seasonal_performance=rng.uniform(2.0, 4.5),
            water_heat_capacity=rng.uniform(3.9, 4.4),
            tank_temp_range=rng.uniform(20.0, 50.0),
            wall_thickness=rng.uniform(0.02, 0.1),
            ceiling_height=rng.uniform(2.1, 3.0))
        duration = rng.uniform(0.1, 10.0)
        # the kernel's inverse, unfloored, fed into the forward limits
        params = ParameterSet(ev=ev, heat=heat,
                              assumptions=Assumptions(rpt_floor_at_base=False))
        v2g = _sized(SchemeKind.V2G, duration, params)
        if v2g.feasible:   # more than 24 h of plug-in is infeasible
            ok &= abs(v2g_max_discharge_duration(v2g.required_plugin_time, ev)
                      - duration) <= 1e-9 * duration
        rpt = _sized(SchemeKind.SMART_CHARGING, min(duration, 20.0),
                     params).required_plugin_time
        ok &= abs(smart_charging_max_discharge_duration(rpt, ev)
                  - min(duration, 20.0)) <= 1e-9 * duration
        area = _sized(SchemeKind.HP_THERMAL_STORAGE, duration, params).tank_area
        ok &= abs(thermal_storage_max_discharge_duration(area, heat)
                  - duration) <= 1e-9 * duration
        checked += 1
    _report(6, "constraint inversion roundtrips", ok)


def test_criterion_07_hand_arithmetic_fixtures():
    ev = EvParameters()
    heat = HeatParameters()
    ok = abs(availability_factor(11.5, ev.daily_charge_time) - 0.4485) <= 0.005 * 0.4485
    ok &= abs(_sized(SchemeKind.V2G, 0.5, ParameterSet()).required_plugin_time
              - 14.073) <= 0.005 * 14.073
    ok &= abs(hp_max_discharge_duration(heat) - 7.088) <= 0.005 * 7.088
    area = _sized(SchemeKind.HP_THERMAL_STORAGE, 4.0, ParameterSet()).tank_area
    ok &= abs(area - 0.371) <= 0.005 * 0.371
    _report(7, "hand-derived sizing fixtures", ok)


def test_criterion_08_value_factor_properties():
    start = datetime(2023, 1, 1, tzinfo=timezone.utc)

    def ts(vals):
        return TimeSeries(start, 3600.0, np.asarray(vals, dtype=float))

    rng = np.random.default_rng(808)
    p = rng.uniform(5, 95, 72)
    a = rng.uniform(0, 3, 72)
    base = value_factor(ts(p), ts(a))
    ok = abs(value_factor(ts(31.7 * p), ts(a)) - base) <= 1e-12 * base
    ok &= abs(value_factor(ts(p), ts(a / 417.0)) - base) <= 1e-12 * base
    ok &= abs(value_factor(ts(p), ts(np.full(72, 2.2))) - 1.0) <= 1e-12
    ok &= value_factor(ts([1.0, 3.0]), ts([0.0, 1.0])) == 1.5
    _report(8, "value factor property suite", ok)


def test_criterion_09_monte_carlo_contract(tmp_path):
    from lcodr.costing import batch_row
    from lcodr.model import SAMPLE_ROW, philox_uniforms
    from lcodr.uncertainty import _truncated, perturb_matrix
    from truncated_normal import sample_truncated_normal
    rng = np.random.default_rng(909)
    bound = 1.285 * 0.33
    draws = np.array([sample_truncated_normal(1.0, 0.33, 1.285, rng)
                      for _ in range(100_000)])
    ok = bool(np.all(np.abs(draws - 1.0) <= bound))

    # the same truncation on the sampler Monte-Carlo runs, and on every
    # column of the perturbed matrix it evaluates
    words = philox_uniforms(909, [(0, 0)], 0, 100_000)[0]
    ok &= bool(np.all(np.abs(_truncated(words, -1.285, 1.285)) <= 1.285))
    base = default_parameters()
    cfg = McConfig(samples=10_000, seed=909)
    base_row = np.array(batch_row(base))
    sigma = np.array([0.10 if spec.group == "value_factors" else 0.33 if spec.perturb else 0.0
                      for spec in SAMPLE_ROW])
    spread = np.abs(perturb_matrix(base, cfg, 0, cfg.samples) - base_row)
    ok &= bool(np.all(spread <= 1.285 * sigma * np.abs(base_row) * (1 + 1e-12)))

    # byte-identical CSV payloads across worker counts
    from lcodr.cli import main
    payloads = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        main(["mc", "--out", str(out), "--samples", "40", "--seed", "123",
              "--workers", str(workers)])
        payloads.append(b"".join(
            (out / name).read_bytes()
            for name in ("lcodr_mc.csv", "cheapest_probability.csv",
                         "cost_composition.csv")))
    ok &= payloads[0] == payloads[1] == payloads[2]

    # cheapest probabilities on the simplex
    import csv
    with open(tmp_path / "w1" / "cheapest_probability.csv", encoding="utf-8") as fh:
        fh.readline()
        totals = {}
        for row in csv.DictReader(fh):
            totals[row["application"]] = totals.get(row["application"], 0.0) \
                + float(row["probability"])
    ok &= all(abs(total - 1.0) <= 1e-12 for total in totals.values())
    _report(9, "Monte-Carlo determinism and truncation contract", ok)


def test_criterion_10_cost_composition(full_mc):
    _, dists = full_mc
    shares = {}
    for d in dists:
        if d.feasible_fraction == 0:
            continue
        shares.setdefault(d.technology, []).append(d.cost_shares)
    avg = {tech: {c: float(np.mean([s[c] for s in rows]))
                  for c in rows[0]}
           for tech, rows in shares.items()}
    ok = True
    for tech in ("v2g", "smart_charging", "smart_heat_pump"):
        ok &= max(avg[tech], key=avg[tech].get) == "rewards"
    hpts_rebound = avg["hp_thermal_storage"]["rebound"]
    for tech in ("v2g", "smart_charging", "smart_heat_pump"):
        ok &= hpts_rebound > avg[tech]["rebound"]
    _report(10, "cost composition pattern", ok)
