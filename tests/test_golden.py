"""Golden outputs: fixed-seed commands must keep producing the same bytes.

Each command's CSV files are pinned by sha256, so their `# run_id=` lines
are pinned too. The manifest is pinned without its `generated_at` stamp,
as the sha256 of its sorted-key JSON. A refactor that is meant to change no
output must leave every digest here as it is; a declared re-baseline
updates them and says why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

from lcodr import data
from lcodr.cli import main

GOLDEN = {
    "run": (["run"], {
        "lcodr_deterministic.csv":
            "e55dcf6ba1b177a066eadc0457d12a903dccd4a97dcfe85d19a048a7056d5467",
        "manifest.json":
            "2a5a4a1c5a48c6cf47e22986c37653d87201969a550cc62f39ab062413201721",
    }),
    "run_compute_vf": (["run", "--compute-vf"], {
        "lcodr_deterministic.csv":
            "e55dcf6ba1b177a066eadc0457d12a903dccd4a97dcfe85d19a048a7056d5467",
        "manifest.json":
            "af88d0a6b38bd68ba252bd3b65e8d2958306f8d7d3c1edba9b50850634dd4472",
    }),
    "run_every_assumption_flipped": (["run", "--no-rpt-floor", "--simple-rebound",
                                      "--cycle-direction", "as_printed",
                                      "--reward-base-hours", "9.5"], {
        "lcodr_deterministic.csv":
            "7b8676a85b91e7663933bd660952e973ea641319da29d253f3294411056b5978",
        "manifest.json":
            "eb58381b4a03294856c106b88b4f8b9f6f8df6facb008fcd93d24b6c11c04506",
    }),
    "run_compute_vf_as_printed": (["run", "--compute-vf", "--cycle-direction", "as_printed"], {
        "lcodr_deterministic.csv":
            "938454a08aff675e8195f64edf6b27ff6a7aa90df94b10e48b48212b4d711d92",
        "manifest.json":
            "7a667e318f083ce7c497abf4912788be6b250ea7bcdb02de5d79fd0deaadaa72",
    }),
    "vf":(["vf"], {
        "value_factors.csv":
            "817ac2fd1d4d34bbf4eddaf1cc144d0b9f9d4db45d4fe7527983b1f993828e66",
        "manifest.json":
            "6523c66a38da768bd97fc90db690cd4cd2045434469214247d139497ee45d6cb",
    }),
    "vf_subsample": (["vf", "--subsample", "50", "--iterations", "300", "--seed", "11"], {
        "value_factors.csv":
            "56d6f2b4d6c5637170bec08d7127b762f677c47a89493dccbfabdd119f8f0c10",
        "vf_distribution.csv":
            "163a0cc9c54c9ce2d2b4a981671077ad9d8c9509de4299d3fb9aa3d9cf2efbd8",
        "vf_distribution_summary.csv":
            "9714c9eb65af4fe6096214db0b154ecc0225a1ad05edeacfb32b3e4c9de27520",
        "manifest.json":
            "38f9924f6e06700536150a38de25fcfe8b3be50455c75e061e70b15a7cae0575",
    }),
    "mc_same_scheme": (["mc", "--samples", "40", "--compute-vf", "--lcos-sampling",
                        "same_scheme", "--emit-samples", "--seed", "5"], {
        "lcodr_mc.csv":
            "5a449e717e48a20956957cdf18b7c7236508d3bb017895be598e5ec8a266f514",
        "cheapest_probability.csv":
            "ff2b211ec0df1b75206eafd492ddfef14d7bf748ac3d4d848fb9df94bb32a608",
        "cost_composition.csv":
            "3fd8ef80f595272c79df5a5a8c42790e6b351b02e1b9291d96a966c5a6b19162",
        "lcodr_samples.csv":
            "f9991861339ab5f6d9650bde2a7aa129a03c813f71d359f1dccd94013e240373",
        "manifest.json":
            "595877edc70a36af1ed840382e2bd5205b6f9ffac0a8a64798a702d77c954ce6",
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
            "5dc8d9f18b7bc1a6662a41ce42887a8767cd2154784b344d602c2608a7b2495a",
        "vf_distribution.csv":
            "a2df4dac6716f0c89cb69351c2b6f2e8cd7c1bd5eeadd8264903e5b399da37c6",
        "vf_distribution_summary.csv":
            "994aa4bd22cc7cd8f46732164ef4bdc29a5bdd3da2e9fd661961188eaff798ec",
        "manifest.json":
            "684375174800d16dc3ac8f2c473c3d2c4d22483e2b97c130e6e756384575e120",
    }


def test_goldens_hold_with_numpy_limited_to_its_baseline_cpu_features():
    """Every golden case above, in a child process whose numpy runs none of
    its CPU-dispatched kernels. Some of them give other bits than the
    baseline ones (np.exp, np.log and np.power do on an AVX-512 CPU), so an
    output that went through one would fail here. The variable is set for
    the child only."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches no CPU-specific kernels")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(__cpu_dispatch__),
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__, "-k", "byte_identical"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
