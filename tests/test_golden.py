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
            "9bf76e3a1768053cadd8ce85cd478a6c12d4b17f0f2be8aa3c0c92e5fd9ae254",
        "vf_distribution.csv":
            "953d58f8cb7dc0873e87f4af7755e0a9850ba6e84e7d9ff178ed3bb4dd82773f",
        "vf_distribution_summary.csv":
            "ea619d748f6c34ce0fdc7c622c48868e0554e9b39fe021c35a2be13638833c69",
        "manifest.json":
            "62c3d3de2d8324c92d3f30e8c56d4b09e8f1795eac0e8151c3df057e9d0ce684",
    }),
    "mc_same_scheme": (["mc", "--samples", "40", "--compute-vf", "--lcos-sampling",
                        "same_scheme", "--emit-samples", "--seed", "5"], {
        "lcodr_mc.csv":
            "fda59e850c40865ddf8679c79a5296e8eb68303b2c37719cc8c428b232204aa7",
        "cheapest_probability.csv":
            "92a9d5d7b1618a597d17bd4dcd4ee692b7c5b56e79334dd3fd849fea5ca1042f",
        "cost_composition.csv":
            "a75d5016d4ce5bfca663635d0957b4b0640ba2df272603c851b2c9f820f7c05c",
        "lcodr_samples.csv":
            "1021267e604ec06001bddc8cf57407869d9e18151be565acb2bf128c111ad1d6",
        "manifest.json":
            "538b417019b1f143b5de9908b016a8690f5d62ece173a7fe363d05a78fa6395b",
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
            "57ce2b2cdee77d6218bcf39bafd9eddbbe611cde2ec7775aa8b13660335d0dc8",
        "vf_distribution.csv":
            "7e7ae7b94f4da473cf0cfb2aa3c9af81c6fb49627ea268ab0c8c6802c60f2a1c",
        "vf_distribution_summary.csv":
            "4fb2e5f472374bcc811ba786f6ef90b00cc941b614fb1557f95fd76338a95325",
        "manifest.json":
            "d3221033bf2b2873edc25a59932a5573e4ea996eb57561d98b7faa1e2368b612",
    }
