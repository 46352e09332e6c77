import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from hbab.cli import main

TINY_DESIGN = {
    "factors": [
        {"name": "msg", "role": "content", "values": ["m0", "m1"]},
        {"name": "ctx", "role": "context", "values": ["c0", "c1"]},
    ]
}

TINY_SCENARIO = {
    "spec": TINY_DESIGN,
    "updates": 2,
    "repetitions": 2,
    "assignments_per_update": 40,
    "sampler": {"chains": 1, "warmup_draws": 100, "kept_draws": 100,
                "max_tree_depth": 6},
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_counts(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["update", "msg", "ctx", "assignments", "responses"])
        writer.writerows(rows)
    return str(path)


def default_counts(updates=2, n=50):
    rows = []
    rng = np.random.default_rng(0)
    for u in range(1, updates + 1):
        for msg, rate in (("m0", 0.5), ("m1", 0.6)):
            for ctx in ("c0", "c1"):
                rows.append((u, msg, ctx, n, int(rng.binomial(n, rate))))
    return rows


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", TINY_SCENARIO)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--config", cfg, "--scale", "desk",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("metrics.csv", "decisions.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_manifest_lists_outputs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", TINY_SCENARIO)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 1
        names = {p.rsplit("/", 1)[-1] for p in manifest["outputs"]}
        assert {"metrics.csv", "decisions.csv", "manifest.json"} <= names

    def test_tau_experiment_with_mle_only(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["mle"]})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out),
                     "--tau-experiment"]) == 0
        learnt = json.loads((out / "learnt_tau.json").read_text())
        assert learnt["posterior_mean"] > 0
        with open(out / "tau_metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["tau_kind"] for r in rows} == {"fixed", "dynamic", "learnt"}
        assert {r["method"] for r in rows} == {"mle"}

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"updates": -3})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "o")])


class TestAnalyze:
    def run_analyze(self, tmp_path, rows, method="mle", tau="fixed:0.1", name="out"):
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", rows)
        out = tmp_path / name
        code = main(["analyze", "--design", design, "--counts", counts,
                     "--method", method, "--tau", tau, "--out", str(out)])
        return code, out

    def test_single_update_outputs(self, tmp_path):
        code, out = self.run_analyze(tmp_path, default_counts(updates=1))
        assert code == 0
        with open(out / "estimates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # one per cell
        with open(out / "comparisons.csv") as fh:
            comps = list(csv.DictReader(fh))
        contexts = {r["context"] for r in comps}
        assert contexts == {"c0", "c1", "marginal"}
        with open(out / "marginal_estimates.csv") as fh:
            margs = list(csv.DictReader(fh))
        assert len(margs) == 2

    def test_hb_method_runs(self, tmp_path):
        code, out = self.run_analyze(tmp_path, default_counts(updates=1), method="hb")
        assert code == 0
        with open(out / "comparisons.csv") as fh:
            comps = list(csv.DictReader(fh))
        assert all(float(r["diff_var"]) > 0 for r in comps)

    def test_hb_fit_warnings_reach_the_manifest(self, tmp_path, monkeypatch, capsys):
        import hbab.cli

        real_fit = hbab.cli.fit_posterior

        def flagged_fit(*args, **kwargs):
            s = real_fit(*args, **kwargs)
            diag = replace(s.diagnostics, warnings=("cell logits mixed poorly",))
            return replace(s, diagnostics=diag)

        monkeypatch.setattr(hbab.cli, "fit_posterior", flagged_fit)
        code, out = self.run_analyze(tmp_path, default_counts(updates=2), method="hb")
        assert code == 0
        with open(out / "manifest.json") as fh:
            warnings = json.load(fh)["warnings"]
        assert warnings == ["update 1: cell logits mixed poorly",
                            "update 2: cell logits mixed poorly"]
        assert "update 2: cell logits mixed poorly" in capsys.readouterr().err

    def test_methods_share_pair_ordering(self, tmp_path):
        _, out_mle = self.run_analyze(tmp_path, default_counts(), name="mle_out")
        _, out_hb = self.run_analyze(
            tmp_path, default_counts(), method="hb", name="hb_out"
        )
        def keys(path):
            with open(path / "comparisons.csv") as fh:
                return [
                    (r["update"], r["context"], r["content_a"], r["content_b"])
                    for r in csv.DictReader(fh)
                ]
        assert keys(out_mle) == keys(out_hb)

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        bad = tmp_path / "counts.csv"
        bad.write_text("update,who,assignments,responses\n1,m0,10,5\n")
        assert main(["analyze", "--design", design, "--counts", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "header" in capsys.readouterr().err

    def test_unknown_value_names_row(self, tmp_path, capsys):
        rows = default_counts(updates=1)
        rows[2] = (1, "m9", "c0", 10, 5)
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "m9" in err

    def test_excess_responses_exit_2(self, tmp_path, capsys):
        rows = default_counts(updates=1)
        rows[0] = (1, "m0", "c0", 10, 11)
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2
        assert "responses" in capsys.readouterr().err

    def test_noncontiguous_updates_exit_2(self, tmp_path):
        rows = [(2, "m0", "c0", 10, 5)]
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2

    def test_learnt_tau_from_file(self, tmp_path):
        learnt = tmp_path / "tau.json"
        learnt.write_text(json.dumps({"point_value_for_testing": 0.01}))
        code, out = self.run_analyze(
            tmp_path, default_counts(updates=1), tau=f"learnt:{learnt}"
        )
        assert code == 0


class TestLearnTau:
    def effects_file(self, tmp_path, deltas, sd=0.02):
        path = tmp_path / "effects.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "noise_sd"])
            writer.writerows((format(d, ".8f"), sd) for d in deltas)
        return str(path)

    def test_recovers_dispersion(self, tmp_path):
        rng = np.random.default_rng(1)
        deltas = rng.normal(0, np.sqrt(0.02**2 + 0.01), 200)
        path = self.effects_file(tmp_path, deltas)
        out = tmp_path / "out"
        assert main(["learn-tau", path, "--out", str(out)]) == 0
        payload = json.loads((out / "learnt_tau.json").read_text())
        assert 0.005 <= payload["point_value_for_testing"] <= 0.02

    def test_zero_corpus_floors_and_warns(self, tmp_path, capsys):
        path = self.effects_file(tmp_path, [0.0] * 50, sd=1e-5)
        out = tmp_path / "out"
        assert main(["learn-tau", path, "--out", str(out)]) == 0
        assert "floored" in capsys.readouterr().err
        payload = json.loads((out / "learnt_tau.json").read_text())
        assert payload["point_value_for_testing"] == pytest.approx(1e-8)

    def test_zero_noise_row_exits_2(self, tmp_path):
        path = tmp_path / "effects.csv"
        path.write_text("delta,noise_sd\n0.1,0.0\n0.2,0.1\n")
        assert main(["learn-tau", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_singleton_corpus_exits_2(self, tmp_path):
        path = self.effects_file(tmp_path, [0.1])
        assert main(["learn-tau", path, "--out", str(tmp_path / "o")]) == 2

    def test_reads_results_directory(self, tmp_path):
        rows = default_counts(updates=2, n=400)
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", rows)
        res = tmp_path / "res"
        assert main(["analyze", "--design", design, "--counts", counts,
                     "--method", "mle", "--out", str(res)]) == 0
        out = tmp_path / "tau"
        assert main(["learn-tau", str(res), "--out", str(out)]) == 0
        payload = json.loads((out / "learnt_tau.json").read_text())
        assert payload["n_effects"] == 3  # 2 contexts + marginal


class TestOracleCheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle-check", "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["all_passed"]
        assert len(report["checks"]) == 8
        for check in report["checks"]:
            assert {"name", "tolerance", "observed", "passed"} <= set(check)
        text = (out / "oracle_report.txt").read_text()
        assert "PASS" in text

    def test_corrupted_formula_fails(self, tmp_path):
        out = tmp_path / "oracle"
        assert main(["oracle-check", "--corrupt", "--out", str(out)]) == 1
        report = json.loads((out / "oracle_report.json").read_text())
        assert not report["all_passed"]
