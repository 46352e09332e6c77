"""Byte pins of ``learn-tau`` runs.

The SHA-256 of ``learnt_tau.json`` and the ``config_hash`` of two runs: one
on a seeded effects CSV, one on the results directory of a small MLE
``simulate``. A change to how the corpus is read, hashed, ordered or
integrated that moves a single byte shows here. As in
``test_pinned_outputs``, the hashes are the results of this platform's libm.
"""

import hashlib
import json

import numpy as np

from hbab.cli import main


def pins(out):
    return (hashlib.sha256((out / "learnt_tau.json").read_bytes()).hexdigest(),
            json.loads((out / "manifest.json").read_text())["config_hash"])


def test_effects_csv_run_is_pinned(tmp_path):
    rng = np.random.default_rng(5)
    sd = rng.uniform(0.01, 0.05, 3000)
    delta = rng.normal(0.0, np.sqrt(sd**2 + 4e-4))
    path = tmp_path / "effects.csv"
    path.write_text("delta,noise_sd\n" + "".join(
        "%r,%r\n" % pair for pair in zip(delta.tolist(), sd.tolist())))
    out = tmp_path / "out"
    assert main(["learn-tau", str(path), "--out", str(out)]) == 0
    assert pins(out) == (
        "a0b6fdcc7bf1cd10cd2ed77650f2f337f26c7994f5167c3722a16eb799ccf4c4",
        "26c99474861ec9cd12c451f4e2b624f9bfcb5c52fb9c28caacbbfd627563872d",
    )


def test_results_directory_run_is_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": ["mle"]}))
    res = tmp_path / "res"
    assert main(["simulate", "--scale", "desk", "--config", str(cfg), "--seed", "3",
                 "--out", str(res)]) == 0
    out = tmp_path / "out"
    assert main(["learn-tau", str(res), "--method", "mle", "--out", str(out)]) == 0
    assert json.loads((out / "learnt_tau.json").read_text())["n_effects"] == 192
    assert pins(out) == (
        "5641225ffad55fea7e8acb8e0c3c87993273b54f272cc07e96a7bebf3b560ab3",
        "7926e00b782a0e5e80ecd9ed196b44543ae97f7806e6734018b4393857d48cdd",
    )
