"""Golden outputs: fixed-seed commands must keep producing the same bytes.

Each command's CSV files are pinned by sha256, so their `# run_id=` lines
are pinned too. The manifest is pinned without its `generated_at` stamp,
as the sha256 of its sorted-key JSON. A refactor that is meant to change no
output must leave every digest here as it is; a declared re-baseline
updates them and says why in CHANGES.md.
"""

import hashlib
import json
from datetime import timedelta

import pytest

from lcodr import data
from lcodr.cli import main

GOLDEN = {
    "run": (["run"], {
        "lcodr_deterministic.csv":
            "10027835b27b50b53ccce93dfd78418cc678ea93417c9cd1d5fadcfcdea10d1c",
        "manifest.json":
            "a152b054ec5d5257aeca5f9b9d4bd7b39bcb54ba425d5da9b5d74047f2c99932",
    }),
    "run_compute_vf": (["run", "--compute-vf"], {
        "lcodr_deterministic.csv":
            "f3b775555c3bb8af6823a8d33b718732a0e6934670cd542c07d287c9daa77417",
        "manifest.json":
            "b410ce5bd15566bb8d7597a2262373c5b54ef0407b7d9a6314ebfb8d74ad03f6",
    }),
    "run_every_assumption_flipped": (["run", "--no-rpt-floor", "--simple-rebound",
                                      "--cycle-direction", "as_printed",
                                      "--reward-base-hours", "9.5"], {
        "lcodr_deterministic.csv":
            "579b25d08f6fb8ef7145266eded2511e8b5db145beefd4c6aa989aebecfc5aef",
        "manifest.json":
            "0bb71c884966fe83592327738e4a13e81f301d992c109c09de8c5c0ddf67877c",
    }),
    "run_compute_vf_as_printed": (["run", "--compute-vf", "--cycle-direction", "as_printed"], {
        "lcodr_deterministic.csv":
            "253e248d307d1f0297cbe80cfe3f1e9d9ba205e80f0371dbc7471d68354e4780",
        "manifest.json":
            "558d0613d3b03e74621762f99db59673044bac9ec2f368381fa15ac5751771aa",
    }),
    "vf":(["vf"], {
        "value_factors.csv":
            "a3a55c7c55c6701b84f14824ef54cb53bba453e76dc291d7f2bc3535019cf26c",
        "manifest.json":
            "adf893a125a47c66db08adae81fc71201ba7e780cf18ecbe8cb122e66bdec363",
    }),
    "vf_subsample": (["vf", "--subsample", "50", "--iterations", "300", "--seed", "11"], {
        "value_factors.csv":
            "a54d2a899cd21d2a1b95ee4faa381662c4fbb9422d862e908344309566920d62",
        "vf_distribution.csv":
            "767df54821edc62311c65b80e686ce7e83c6d111a7c5aed65db37f0a273efbbf",
        "vf_distribution_summary.csv":
            "f56776bd638180855947eef683d71da208ad6816d4cac40340d83b17ca518791",
        "manifest.json":
            "1bdcbf9ce48ca2500f7b76da9c8b93bc7a560bd855a28eece4b40bffe9a8e6db",
    }),
    "mc_same_scheme": (["mc", "--samples", "40", "--compute-vf", "--lcos-sampling",
                        "same_scheme", "--emit-samples", "--seed", "5"], {
        "lcodr_mc.csv":
            "45b61a99e520961c706480a28f8a717ca7383b8509c870fbf50ae79c2a142ec5",
        "cheapest_probability.csv":
            "97b70af2eb9d56b95302689635e04787a1716fe807e180b170f6574d8bf432d2",
        "cost_composition.csv":
            "f8b7c677e08430accbe2b9e72d1cabbc2f348aaf07b326eaad4c19f4a7842a23",
        "lcodr_samples.csv":
            "4adcfadc43674598019bc3359b1325fc5ab801d7e60e8c8ec037ea0918ed3b71",
        "manifest.json":
            "2eacdc89d0e915911d0355e3f12deae18bbf4504016f78fa44d1530bc9166f68",
    }),
}


def _digest(path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["generated_at"]
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    else:
        blob = path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_outputs_are_byte_identical_to_golden(tmp_path, name):
    argv, expected = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: _digest(p) for p in tmp_path.iterdir()}
    assert written == expected


def _write_vf_inputs(directory, seed: int = 7, days: int = 14) -> list:
    """The five `vf` data files, written from the synthetic generators with
    repr() floats; returns their command-line flags and paths."""
    price = data.synthetic_price(days=days, seed=seed)
    ev = data.synthetic_ev_charging_pool(n_assets=60, days=days, seed=seed)
    hp = data.synthetic_heating_pool(n_assets=8, days=days, seed=seed)
    power, energy = data.synthetic_v2g_profiles(days=days, seed=seed)
    stamps = [(price.start + k * timedelta(seconds=price.interval_seconds)).isoformat()
              for k in range(len(price))]

    def write(name, header, rows):
        path = directory / name
        path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows),
                        encoding="utf-8")
        return str(path)

    def series(*columns):
        return zip(stamps, *([repr(v) for v in c.tolist()] for c in columns))

    def pool(profiles):
        return ((p.asset_id, t, v) for p in profiles for t, v in series(p.series.values))

    return ["--price", write("price.csv", "timestamp,value", series(price.values)),
            "--ev-pool", write("ev_pool.csv", "asset_id,timestamp,value", pool(ev)),
            "--hp-pool", write("hp_pool.csv", "asset_id,timestamp,value", pool(hp)),
            "--v2g-power", write("v2g_power.csv", "timestamp,value",
                                 series(power.series.values)),
            "--v2g-boundaries", write("v2g_boundaries.csv", "timestamp,lower,upper",
                                      series(energy.series.values, energy.upper.values))]


def test_vf_on_files_is_byte_identical_to_golden(tmp_path):
    # the loaders' path: every input from a file, the EV pool over several
    # read blocks
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    argv = ["vf", *_write_vf_inputs(inputs), "--subsample", "50", "--iterations", "200",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    written = {p.name: _digest(p) for p in out.iterdir()}
    assert written == {
        "value_factors.csv":
            "82734b7e18ad56f6e95e1bd11787b49294f97d7ed72dea1541ca8ea7c34b00fb",
        "vf_distribution.csv":
            "52d3d657e97697848cce94779d3a4e76c0802e1e81dcc4c199c8b609f1860e4a",
        "vf_distribution_summary.csv":
            "9986a360addd84f49d8106909ed976b60f30d9beac3f236c8dcfeb2875716d0c",
        "manifest.json":
            "75a65a5280dcafffe255e0b9486db9ea99dc68ad10e0caf1935e0411808b5a7a",
    }
