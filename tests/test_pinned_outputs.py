"""Byte pins of small MLE ``simulate`` runs and of an MLE ``analyze`` run.

The SHA-256 of every file a run writes besides ``manifest.json``, and of
its ``config_hash``. A refactor of ``design``, ``sim``, ``seqtest``,
``estimate`` or the CLI writers that changes a single byte shows here. The hashes are the
results of this platform's libm, as the references in ``bench/reference``
are: another libm may differ in the last bit of a float and so in a hash.
"""

import hashlib
import json

import pytest

from hbab.cli import main

PINS = {
    "paper": (
        ["--scale", "paper"],
        {"methods": ["mle"], "repetitions": 2, "updates": 3},
        {
            "decisions.csv": "847b48a713248f6fde92b4cd87f4dc385f46e864845381fe1a0630b7d314e479",
            "differences.npz": "a35fbda93b56e70c68a3b980b63f78e55fc19f6f9b36ca63c26d717430292549",
            "metrics.csv": "0599f87d4ed20d661cf3b6513d11f6ff93bf04ea5dee4676c96b2b16d10c189c",
            "config_hash": "0cbdbe20c8c7e7c0659536217efb030f58dc00c966d61c41dd07ad2ae2f7c4a4",
        },
    ),
    "desk-tau-experiment": (
        ["--scale", "desk", "--tau-experiment"],
        {"methods": ["mle"]},
        {
            "decisions.csv": "f1bf6fbda580167abe03e7b8c1daeb202e83ed1cc4f04fdeb17fd84f1e614976",
            "differences.npz": "390b64f3cdc8312fb630c285d8d58cf133ad990c48ac0f517ce7c1c374a74911",
            "learnt_tau.json": "bee17858b956fe070326f05a78e71beb038178a99cadb3579f8e8dd82605e27a",
            "metrics.csv": "d85f3ce3b4f176a302498cb42e3d0e4b1f8e9d479d1c6a5ceaddc1cb5ff5751e",
            "tau_metrics.csv": "7d55aa7f581e4f988641a0ede654cc2eb3669a57db8f04d1a72c868ec740c94f",
            "config_hash": "5e6a5a1bc0b7273caa47239b0fe2f16dc6eab0e79e1419f86f71b73fa5623f66",
        },
    ),
    "desk-high-all-effects": (
        ["--scale", "desk", "--power", "high"],
        {"methods": ["mle"], "h1_fraction": 1.0},
        {
            "decisions.csv": "d81107fad917f45138d3ed9d4e5e4fa0f396e60e6ec47b4a51447cb9f2899ef5",
            "differences.npz": "fc19e6fe557aac1e165e4c50a9be9fe4ec8596a3cddb5d529cd94bdb4aec8c07",
            "metrics.csv": "a45c055c475e6a09ec0e4c7c6999d46fd2dd5cf45454f950247a2c6bca29292c",
            "config_hash": "ec888c4ce6e316cab51ac4b4b8b9848978dc5888e2865dc6042f2ba08a7c2d0b",
        },
    ),
    "separate-null-tau-experiment": (
        ["--scale", "desk", "--tau-experiment"],
        {"methods": ["mle"], "h1_fraction": 0.0},
        {
            "decisions.csv": "c31fc43103c946cd89cd3193537f15ad7c3d9afd8590312c2468d855330570c6",
            "differences.npz": "216505b839b9f5ea5376d98bb08ef92cfe5d98dcca0b76cbb061232bf8d83e8f",
            "learnt_tau.json": "b4787029c4d342194e7d012618c1ebc508993949d277ff20109663da26ede1af",
            "metrics.csv": "1879a2e3877ca9b2cc46fb9666bd3cac6c57bd819fb6676e43669206707e5e8b",
            "tau_metrics.csv": "070567fb9170389205e5d2f04a8af0c0a0002c576b958e12d503225fe8459e39",
            "config_hash": "2927acfc6adbe1b2a4105cc495bfd7cd2a0982a3a0e6b5ab873debd09170a353",
        },
    ),
}


@pytest.mark.parametrize("name", PINS)
def test_simulate_outputs_are_pinned(tmp_path, name):
    args, config, expected = PINS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", *args, "--config", str(cfg), "--seed", "3",
                 "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "manifest.json"}
    got["config_hash"] = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert got == expected


# A 3 x 2 design over four looks of fixed counts. Context c0 has no
# responses at look 1, so its pairs are first informative at look 2.
ANALYZE_DESIGN = {"factors": [
    {"name": "msg", "role": "content", "values": ["m0", "m1", "m2"]},
    {"name": "ctx", "role": "context", "values": ["c0", "c1"]},
]}

ANALYZE_PINS = {
    "estimates.csv": "3b331bf7ab37b2ec32f52c0e826cfd779bb1eb717cc26fa40b4c376f2336abb8",
    "marginal_estimates.csv": "8c6129b8fab8633722fd6d8743d05f9493a3dc2aa37958f16f0d3454041d56de",
    "comparisons.csv": "289c9cdb3cf4cb521514158883b2f7486dc771b14aefa8746b71093a5cf2f9fd",
    "differences.npz": "47b045ca40c25d2cf712ba175f079110b3e9ba5eb2241c2326f75122787453f2",
    "config_hash": "72bd7b700fdd72f583a720bf01379661eaa1be7429abb58050ed9f230fb0ab01",
}


def analyze_counts() -> str:
    lines = ["update,msg,ctx,assignments,responses"]
    for u in range(1, 5):
        for m, msg in enumerate(("m0", "m1", "m2")):
            for c, ctx in enumerate(("c0", "c1")):
                responses = 20 + (7 * u + 5 * m + 3 * c) % 13
                if (u, ctx) == (1, "c0"):
                    responses = 0
                lines.append(f"{u},{msg},{ctx},{150 + 10 * c},{responses}")
    return "\n".join(lines) + "\n"


def test_analyze_outputs_are_pinned(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps(ANALYZE_DESIGN))
    counts = tmp_path / "counts.csv"
    counts.write_text(analyze_counts())
    out = tmp_path / "out"
    assert main(["analyze", "--design", str(design), "--counts", str(counts),
                 "--method", "mle", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "manifest.json"}
    got["config_hash"] = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert got == ANALYZE_PINS
