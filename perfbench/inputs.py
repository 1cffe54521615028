"""Input files for the `vf-files` workload.

Writes the four CSV inputs of `lcodr vf` from the `lcodr.data` synthetic
generators, keyed by the workload seed, in the layouts that `lcodr.data`
documents:

  price.csv            timestamp,value              one hourly year, $/MWh
  ev_pool.csv          asset_id,timestamp,value     EV_ASSETS vehicles, kW
  hp_pool.csv          asset_id,timestamp,value     HP_ASSETS dwellings, kW
  v2g_power.csv        timestamp,value              dischargeable power, kW
  v2g_boundaries.csv   timestamp,lower,upper        battery-energy band, kWh

Floats are written with repr(), so the loader reads back exactly the arrays
kept in `VfInputs`, which the output checks use as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

import numpy as np

DAYS = 365
EV_ASSETS = 60   # must be at least the workload's --subsample size (50)
HP_ASSETS = 20


@dataclass
class VfInputs:
    """Paths handed to the program and the arrays written into them."""

    paths: dict          # flag name -> file path
    price: np.ndarray
    ev_pool: np.ndarray  # assets x hours
    hp_pool: np.ndarray  # assets x hours
    v2g_power: np.ndarray
    v2g_lower: np.ndarray
    v2g_upper: np.ndarray


def _write(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def write_vf_inputs(directory: Path, seed: int) -> VfInputs:
    """Generate and write the `vf-files` inputs for `seed` into `directory`."""
    from lcodr import data

    price = data.synthetic_price(days=DAYS, seed=seed)
    ev = data.synthetic_ev_charging_pool(n_assets=EV_ASSETS, days=DAYS, seed=seed)
    hp = data.synthetic_heating_pool(n_assets=HP_ASSETS, days=DAYS, seed=seed)
    power, energy = data.synthetic_v2g_profiles(days=DAYS, seed=seed)

    step = timedelta(seconds=price.interval_seconds)
    stamps = [(price.start + k * step).isoformat() for k in range(len(price))]
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name.replace('-', '_')}.csv"
             for name in ("price", "ev-pool", "hp-pool", "v2g-power", "v2g-boundaries")}

    def series_lines(values):
        return (f"{t},{v!r}\n" for t, v in zip(stamps, values.tolist()))

    def pool_lines(pool):
        for prof in pool:
            aid = prof.asset_id
            yield from (f"{aid},{t},{v!r}\n"
                        for t, v in zip(stamps, prof.series.values.tolist()))

    _write(paths["price"], "timestamp,value", series_lines(price.values))
    _write(paths["ev-pool"], "asset_id,timestamp,value", pool_lines(ev))
    _write(paths["hp-pool"], "asset_id,timestamp,value", pool_lines(hp))
    _write(paths["v2g-power"], "timestamp,value", series_lines(power.series.values))
    lower, upper = energy.series.values, energy.upper.values
    _write(paths["v2g-boundaries"], "timestamp,lower,upper",
           (f"{t},{lo!r},{up!r}\n"
            for t, lo, up in zip(stamps, lower.tolist(), upper.tolist())))

    return VfInputs(
        paths={k: str(v) for k, v in paths.items()},
        price=price.values.copy(),
        ev_pool=np.stack([p.series.values for p in ev]),
        hp_pool=np.stack([p.series.values for p in hp]),
        v2g_power=power.series.values.copy(),
        v2g_lower=lower.copy(),
        v2g_upper=upper.copy(),
    )
