import csv
import io
import json
import math
import multiprocessing
import os
import platform
import stat
import time
import zipfile
from dataclasses import replace

import numpy as np
import pytest

import hbab
from hbab import sampler as sampler_module
from hbab.cli import _atomic_write, _effects_from_results_dir, main
from hbab.design import enumerate_cells, spec_from_dict, spec_to_dict
from hbab.estimate import mle_estimates
from hbab.glm import CountData
from hbab.metaprior import effects_from_differences
from hbab.seqtest import TauSpec, run_all_comparisons, sequential_trace
from hbab.sim import _rep_seed_sequences, desk_scenario, run_repetition, stream_updates

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


# Scenario config cases that `simulate --config` rejects with exit 2 and
# `sim.scenario_from_dict` with a ValueError; each is applied on top of
# TINY_SCENARIO with methods ["mle"].
NON_INTEGER_SAMPLER_COUNTS = [
    ("warmup_draws", 10.5),
    ("chains", 2.0),
    ("chains", True),
    ("kept_draws", 150.0),
    ("max_tree_depth", 1.5),
]

BAD_SCENARIO_VALUES = [
    {"interaction_effect_sd": -0.2},
    {"assignments_per_update": 100.5},
    {"interaction_effect_mean": float("nan")},
    {"repetitions": True},
    {"tau": {"kind": "dynamic", "value": 0.3}},
    {"tau": {"kind": "fixed", "value": True}},
    {"h1_fraction": True},
    {"interaction_effect_mean": True},
    {"interaction_effect_sd": True},
    {"alpha": True},
    {"sampler": {"target_accept": True}},
]

# (override, a part of the message)
CONFIGS_BEYOND_THE_SCENARIO = [
    ({"repetitons": 1}, "unknown key 'repetitons'"),
    ({"tau": {"kind": "dynamic", "epsilon_floor": 1e-6}},
     "unknown key 'tau.epsilon_floor'"),
    ({"sampler": {"chain": 2}}, "unknown key 'sampler.chain'"),
    ({"seed": 3}, "seed is not settable; fit seeds come from --seed"),
    ({"power": "high"}, "power is not settable; pick the preset with --power"),
    ({"power": "medium"}, "power is not settable; pick the preset with --power"),
    ({"methods": ["mle", "mle"]}, "methods repeat"),
]

MALFORMED_CONFIGS = [
    ({"tau": []}, "tau must be a JSON object"),
    ({"tau": False}, "tau must be a JSON object"),
    ({"tau": None}, "tau must be a JSON object"),
    ({"tau": {}}, "kind"),
    ({"methods": {"mle": 1}}, "methods must be a non-empty list"),
    ({"methods": "mle"}, "methods must be a non-empty list"),
    ({"spec": {"factors": TINY_DESIGN["factors"][:1]}}, "at least 2 factors"),
]
MALFORMED_CONFIG_IDS = ["tau-list", "tau-false", "tau-null", "tau-empty",
                        "methods-object", "methods-string", "one-factor"]


# Two content factors whose value labels hold "|": the pairs a|b + c and
# a + b|c would both read "a|b|c" in the output files.
PIPE_DESIGN = {
    "factors": [
        {"name": "f1", "role": "content", "values": ["a|b", "a"]},
        {"name": "f2", "role": "content", "values": ["c", "b|c"]},
    ]
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


def config_hash(out):
    return json.loads((out / "manifest.json").read_text())["config_hash"]


def default_counts(updates=2, n=50):
    rows = []
    rng = np.random.default_rng(0)
    for u in range(1, updates + 1):
        for msg, rate in (("m0", 0.5), ("m1", 0.6)):
            for ctx in ("c0", "c1"):
                rows.append((u, msg, ctx, n, int(rng.binomial(n, rate))))
    return rows


def scan_final_differences(directory, method):
    """The reference corpus of a results directory: each pair's final
    (diff_mean, diff_var) in every ``comparisons.csv`` and ``decisions.csv``
    under ``directory``, in the order of a sorted walk and of each pair's
    first row, without the rows of other methods or of analyze's pooled
    context."""
    means, variances = [], []
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted({"comparisons.csv", "decisions.csv"} & set(files)):
            finals = {}
            with open(os.path.join(root, name), newline="") as fh:
                for r in csv.DictReader(fh):  # each pair's updates ascend
                    if r.get("method", method) == method and r["context"] != "marginal":
                        key = (r.get("rep"), r["context"], r["content_a"], r["content_b"])
                        finals[key] = float(r["diff_mean"]), float(r["diff_var"])
            means += (d for d, _ in finals.values())
            variances += (v for _, v in finals.values())
    return means, variances


def learn_tau_run(effects, out, method):
    """``learnt_tau.json`` and the config hash of ``learn-tau`` on
    ``effects`` with ``--method method``."""
    assert main(["learn-tau", str(effects), "--method", method, "--out", str(out)]) == 0
    return (out / "learnt_tau.json").read_bytes(), config_hash(out)


def reference_learn_tau_run(directory, out, method):
    """``learn_tau_run`` on an effects CSV of ``scan_final_differences``."""
    delta, noise_sd = effects_from_differences(*scan_final_differences(directory, method))
    effects = out.parent / f"{out.name}.csv"
    effects.write_text("delta,noise_sd\n" + "".join(
        "%r,%r\n" % pair for pair in zip(delta.tolist(), noise_sd.tolist())))
    return learn_tau_run(effects, out, method)


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "cfg.json", TINY_SCENARIO)
        outs = []
        now = time.time
        for name, later in (("a", 0), ("b", 86_400)):
            # The rerun a day later: a zip member stamped with the clock
            # would differ.
            monkeypatch.setattr(time, "time", lambda: now() + later)
            out = tmp_path / name
            code = main(["simulate", "--config", cfg, "--scale", "desk",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("metrics.csv", "decisions.csv", "differences.npz"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_differences_file_holds_each_repetitions_differences(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"methods": ["mle"]})
        out = tmp_path / "run"
        assert main(["simulate", "--scale", "desk", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        config = desk_scenario(seed=3)
        reps = [run_repetition(config, i, methods=("mle",)) for i in range(config.repetitions)]
        with np.load(out / "differences.npz", allow_pickle=False) as arrays:
            assert sorted(arrays.files) == ["mle.diff_mean", "mle.diff_var"]
            for field in ("diff_mean", "diff_var"):
                stack = arrays[f"mle.{field}"]
                assert stack.dtype == np.float64 and stack.shape == (8, 10, 24)
                assert np.array_equal(stack, [getattr(r, field)["mle"] for r in reps],
                                      equal_nan=True)
        names = {p.rsplit("/", 1)[-1] for p in
                 json.loads((out / "manifest.json").read_text())["outputs"]}
        assert "differences.npz" in names

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
        # Wall seconds of each stage, in the order they ran.
        stages = manifest["stages_s"]
        assert list(stages) == ["run", "decisions.csv", "differences.npz", "metrics"]
        assert all(isinstance(s, float) and s >= 0 for s in stages.values())
        assert manifest["versions"] == {
            "hbab": hbab.__version__, "python": platform.python_version(),
            "numpy": np.__version__,
        }

    @pytest.mark.parametrize("workers, repetitions, methods, processes", [
        (None, 2, ["mle", "hierarchical"], 2),
        ("2", 2, ["mle", "hierarchical"], 1),
        (None, 2, ["mle"], 0),
        ("2", 1, ["mle", "hierarchical"], 2),
    ], ids=["None-methods0-2", "2-methods1-1", "None-methods2-0", "2-one_repetition-2"])
    def test_manifest_records_processes(self, tmp_path, monkeypatch, chain_runs, workers,
                                        repetitions, methods, processes):
        # Each fit runs its 2 chains over 2 processes, or one after another
        # inside a repetition worker; an MLE-only run fits nothing. One
        # repetition forks no repetition worker.
        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 2)
        monkeypatch.delenv("HBAB_WORKERS", raising=False)
        if workers is not None:
            monkeypatch.setenv("HBAB_WORKERS", workers)
        cfg = write_json(tmp_path / "cfg.json", {
            **TINY_SCENARIO, "methods": methods, "repetitions": repetitions,
            "sampler": {**TINY_SCENARIO["sampler"], "chains": 2}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["processes"]
        assert recorded == {
            "cpus": len(os.sched_getaffinity(0)),
            "chain_processes": processes,
            "blas_threads": 1 if sampler_module._openblas_thread_controls() else None,
            "environment": {name: os.environ.get(name) for name in (
                "HBAB_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        }
        assert recorded["environment"]["HBAB_WORKERS"] == workers
        # What the chains left says the same.
        if processes == 0:
            assert chain_runs.fits() == {}
        elif processes == 1:
            assert chain_runs.serial()
            assert os.getpid() not in chain_runs.callers()
        else:
            assert chain_runs.forked(processes)
            assert chain_runs.callers() == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_manifest_records_no_blas_threads_without_a_setter(self, tmp_path, monkeypatch):
        # Where no OpenBLAS thread setter is found, fits run at the process's
        # BLAS thread count, and the manifest says so.
        monkeypatch.setattr(sampler_module, "_openblas_thread_controls", lambda: ())
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "repetitions": 1})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["processes"]["blas_threads"] is None

    def test_each_repetition_and_method_is_traced_once(self, tmp_path, monkeypatch):
        # decisions.csv and metrics.csv come from the same sequential traces.
        import hbab.cli
        import hbab.sim

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sequential_trace(*args, **kwargs)

        for module in (hbab.cli, hbab.sim):
            monkeypatch.setattr(module, "sequential_trace", counted)
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], "repetitions": 3})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 3

    def test_pipe_in_a_value_label_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], "spec": PIPE_DESIGN})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert "must not contain '|'" in capsys.readouterr().err
        assert not out.exists()

    def test_label_that_is_not_utf8_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # A lone surrogate, as the JSON escape "\ud800" reads.
        design = {"factors": [{**TINY_DESIGN["factors"][0], "values": ["\ud800", "m1"]},
                              TINY_DESIGN["factors"][1]]}
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], "spec": design})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert "must be UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_worker_count_exits_2_before_any_output(self, tmp_path, monkeypatch,
                                                                capsys):
        monkeypatch.setenv("HBAB_WORKERS", "abc")
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["mle"]})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert "HBAB_WORKERS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_decision_labels_round_trip_through_csv_quoting(self, tmp_path):
        factors = [
            {"name": "title", "role": "content", "values": ["a,b", 'say "hi"', "plain"]},
            {"name": "where", "role": "context", "values": ['c"0', "c,1"]},
        ]
        cfg = write_json(tmp_path / "cfg.json",
                         {"spec": {"factors": factors}, "methods": ["mle"],
                          "repetitions": 2, "updates": 2,
                          "assignments_per_update": 60})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        with open(out / "decisions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2 * 2 * 3  # reps x updates x contexts x pairs
        assert all(len(row) == 14 for row in rows)
        assert {row[4] for row in rows[1:]} == {'c"0', "c,1"}
        assert {(row[5], row[6]) for row in rows[1:]} == {
            ("a,b", 'say "hi"'), ("a,b", "plain"), ('say "hi"', "plain")}

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

    def test_learnt_tau_file_feeds_analyze(self, tmp_path):
        # Both commands write one learnt_tau.json: learn-tau's keys, then
        # simulate's split.
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["mle"]})
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(sim),
                     "--tau-experiment"]) == 0
        learnt = json.loads((sim / "learnt_tau.json").read_text())
        assert list(learnt) == ["n_effects", "posterior_mean", "quantiles",
                                "point_value_for_testing", "train_repetitions",
                                "test_repetitions"]
        assert list(learnt["quantiles"]) == ["2.5", "50", "97.5"]
        assert (learnt["train_repetitions"], learnt["test_repetitions"]) == ([0], [1])
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", default_counts(updates=1))
        out = tmp_path / "analysis"
        assert main(["analyze", "--design", design, "--counts", counts, "--method", "mle",
                     "--tau", f"learnt:{sim / 'learnt_tau.json'}", "--out", str(out)]) == 0

    def test_config_hash_follows_the_tau_experiment(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["mle"]})
        hashes = []
        for name, flag in (("a", []), ("b", ["--tau-experiment"])):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out),
                         *flag]) == 0
            hashes.append(config_hash(out))
        assert hashes[0] != hashes[1]

    def test_h0_mode_is_an_unknown_key(self, tmp_path, capsys):
        # h1_fraction 0 makes every pair null.
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], "h0_mode": "separate"})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert "unknown key 'h0_mode'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"updates": -3})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["bayes"]})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "methods" in capsys.readouterr().err

    def test_bad_sampler_override_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "sampler": {"kept_draws": 10}})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, value", NON_INTEGER_SAMPLER_COUNTS)
    def test_non_integer_sampler_count_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "sampler": {field: value}})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("override", BAD_SCENARIO_VALUES)
    def test_bad_scenario_value_exits_2(self, tmp_path, capsys, override):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], **override})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "invalid scenario config" in capsys.readouterr().err

    def test_assignments_past_2_53_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "methods": ["mle"],
                                                 "assignments_per_update": 2**70})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario config" in err and "2**53" in err
        assert not out.exists()

    def test_tau_experiment_without_updates_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], "updates": 0})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o"), "--tau-experiment"]) == 2
        assert "at least 1 update" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        one_rep = write_json(tmp_path / "one.json",
                             {**TINY_SCENARIO, "methods": ["mle"], "repetitions": 1})
        assert main(["simulate", "--config", one_rep, "--seed", "1",
                     "--out", str(tmp_path / "o"), "--tau-experiment"]) == 2
        assert "at least 2 repetitions" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # Without the tau experiment a zero-update run stays valid.
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 0

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "o")])

    def test_sampler_seed_override_exits_2(self, tmp_path, capsys):
        # Every fit is seeded from --seed, so a config seed would be ignored.
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "sampler": {"seed": 12345}})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "fit seeds come from --seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, message", CONFIGS_BEYOND_THE_SCENARIO)
    def test_config_beyond_the_scenario_exits_2(self, tmp_path, capsys, override,
                                                message):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], **override})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, message", MALFORMED_CONFIGS,
                             ids=MALFORMED_CONFIG_IDS)
    def test_malformed_config_exits_2_before_any_output(self, tmp_path, capsys, override,
                                                        message):
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "methods": ["mle"], **override})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario config" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, args, expected", [
        ({**TINY_SCENARIO, "methods": ["mle"]}, ["--scale", "desk"],
         "3fb1235a525f954f0d8d5142794af3d95da92d190e5d6f8078bdda910d239f54"),
        ({**TINY_SCENARIO, "methods": ["mle"]}, ["--scale", "paper", "--power", "high"],
         "fa1ebca0700df6588c2fcb636056a205cd70036ecdd8a6323ac6bbc3beb20245"),
        ({"methods": ["mle"], "updates": 1, "repetitions": 1}, [],
         "c4773700e71d93168d610247e58fe70d8a2c4547adbc89129f7e2170e122c28f"),
    ])
    def test_config_hash_is_stable(self, tmp_path, overrides, args, expected):
        # Pinned: renaming, adding or dropping a payload field changes every
        # simulate run's config_hash, so it shows here first.
        cfg = write_json(tmp_path / "cfg.json", overrides)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, *args, "--seed", "7",
                     "--out", str(out)]) == 0
        assert config_hash(out) == expected


def test_failed_streaming_write_keeps_the_old_file(tmp_path):
    target = tmp_path / "decisions.csv"
    target.write_text("old contents\n")

    def lines():
        yield "rep,update\n"
        yield "0,1\n"
        raise RuntimeError("row generation failed")

    with pytest.raises(RuntimeError, match="row generation failed"):
        _atomic_write(str(target), lines())
    assert target.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["decisions.csv"]


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

    def test_hb_method_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sampler_module, "available_cpus", lambda: 2)
        code, out = self.run_analyze(tmp_path, default_counts(updates=1), method="hb")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["processes"]["chain_processes"] == 2
        with open(out / "comparisons.csv") as fh:
            comps = list(csv.DictReader(fh))
        assert all(float(r["diff_var"]) > 0 for r in comps)

    def test_hb_fit_warnings_reach_the_manifest(self, tmp_path, monkeypatch, capsys):
        import hbab.sim

        real_fit = hbab.sim.fit_posterior

        def flagged_fit(*args, **kwargs):
            s = real_fit(*args, **kwargs)
            diag = replace(s.diagnostics, warnings=("cell logits mixed poorly",))
            return replace(s, diagnostics=diag)

        monkeypatch.setattr(hbab.sim, "fit_posterior", flagged_fit)
        code, out = self.run_analyze(tmp_path, default_counts(updates=2), method="hb")
        assert code == 0
        with open(out / "manifest.json") as fh:
            warnings = json.load(fh)["warnings"]
        assert warnings == ["update 1: cell logits mixed poorly",
                            "update 2: cell logits mixed poorly"]
        assert "update 2: cell logits mixed poorly" in capsys.readouterr().err

    def test_hb_updates_are_fitted_independently(self, tmp_path, monkeypatch):
        import hbab.cli
        import hbab.sim
        from hbab.design import build_design_matrix
        from hbab.estimate import hb_estimate
        from hbab.glm import fit_posterior

        # A short sampler: this checks what each fit depends on, not how
        # well it mixes.
        sampler = replace(hbab.sim.ANALYZE_SAMPLER, warmup_draws=150, kept_draws=100,
                          max_tree_depth=4)
        monkeypatch.setattr(hbab.cli, "ANALYZE_SAMPLER", sampler)
        rows = default_counts(updates=3)
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", rows)
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert main(["analyze", "--design", design, "--counts", counts, "--method", "hb",
                         "--seed", "40", "--out", str(out)]) == 0
        for name in ("estimates.csv", "marginal_estimates.csv", "comparisons.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        # Update 3 is a fit of its cumulative counts under seed 40 + 3 alone:
        # nothing of updates 1 and 2 but their counts reaches it.
        spec = spec_from_dict(TINY_DESIGN)
        cells = {(("m0", "m1")[m], ("c0", "c1")[c]): k
                 for k, (m, c) in enumerate(enumerate_cells(spec).tolist())}
        cum_a = np.zeros(spec.n_cells, dtype=np.int64)
        cum_r = np.zeros(spec.n_cells, dtype=np.int64)
        for _, m, c, n, r in rows:  # every row is at update 3 or before
            cum_a[cells[m, c]] += n
            cum_r[cells[m, c]] += r
        X = build_design_matrix(spec, 2)
        ests = hb_estimate(fit_posterior(CountData(cum_a, cum_r), X, replace(sampler, seed=43)),
                           X)
        with open(outs[0] / "estimates.csv") as fh:
            got = [(float(r["mean"]), float(r["variance"]))
                   for r in csv.DictReader(fh) if r["update"] == "3"]
        assert got == list(zip(ests.means.tolist(), ests.variances.tolist()))

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

    def test_rows_before_a_pairs_first_informative_update(self, tmp_path):
        # Context c0 has no responses at updates 1-2 and c1 none at update
        # 1: every pair is degenerate at update 1, c0's pair also at 2.
        rows = [(u, m, c, n, 0 if (c == "c0" and u <= 2) or u == 1 else r)
                for u, m, c, n, r in default_counts(updates=3)]
        code, out = self.run_analyze(tmp_path, rows)
        assert code == 0
        with open(out / "comparisons.csv") as fh:
            comps = list(csv.DictReader(fh))
        assert len(comps) == 3 * 3
        fields = ("diff_mean", "diff_var", "bayes_factor", "p_instant")
        for r in comps:
            degenerate = r["update"] == "1" or (r["update"] == "2" and r["context"] == "c0")
            if degenerate:
                assert [r[f] for f in fields] == ["nan"] * 4
                assert (r["p_min"], r["significant"]) == ("1", "0")
            else:
                assert all(math.isfinite(float(r[f])) for f in fields)

    def test_rows_equal_the_list_view_folded_over_the_updates(self, tmp_path):
        rows = default_counts(updates=3)
        code, out = self.run_analyze(tmp_path, rows)
        assert code == 0
        spec = spec_from_dict(TINY_DESIGN)
        cells = {tuple(c): k for k, c in enumerate(enumerate_cells(spec).tolist())}
        cum_a = np.zeros(spec.n_cells, dtype=np.int64)
        cum_r = np.zeros(spec.n_cells, dtype=np.int64)
        states, expected = None, []
        for u in (1, 2, 3):
            for u_, m, c, n, r in rows:
                if u_ == u:
                    k = cells[(("m0", "m1").index(m), ("c0", "c1").index(c))]
                    cum_a[k] += n
                    cum_r[k] += r
            states = run_all_comparisons(mle_estimates(CountData(cum_a, cum_r)), spec,
                                         TauSpec.fixed(0.1), prior=states)
            assert all(s.updates == u for s in states)  # informative every update
            expected += [(str(u), ("c0", "c1")[s.context[0]],
                          s.diff_mean, s.diff_var, s.bayes_factor, s.p_instant,
                          s.p_min, s.significant) for s in states]
        with open(out / "comparisons.csv") as fh:
            got = [(r["update"], r["context"], float(r["diff_mean"]),
                    float(r["diff_var"]), float(r["bayes_factor"]),
                    float(r["p_instant"]), float(r["p_min"]), r["significant"] == "1")
                   for r in csv.DictReader(fh) if r["context"] != "marginal"]
        assert got == expected

    def test_config_hash_follows_the_input_bytes(self, tmp_path):
        # The same inputs under two directories, then one changed byte:
        # 50 assignments in the first row become 60.
        hashes = []
        for name, changed in (("a", False), ("b", False), ("c", True)):
            directory = tmp_path / name
            directory.mkdir()
            design = write_json(directory / "design.json", TINY_DESIGN)
            counts = directory / "counts.csv"
            write_counts(counts, default_counts())
            if changed:
                counts.write_bytes(counts.read_bytes().replace(b",50,", b",60,", 1))
            out = directory / "out"
            assert main(["analyze", "--design", design, "--counts", str(counts),
                         "--method", "mle", "--out", str(out)]) == 0
            hashes.append(config_hash(out))
        assert hashes[0] == hashes[1] != hashes[2]

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

    def test_reserved_context_label_exits_2(self, tmp_path, capsys):
        # A context named "marginal" would read as a context-pooled row.
        factors = [TINY_DESIGN["factors"][0],
                   {"name": "ctx", "role": "context", "values": ["marginal", "c1"]}]
        design = write_json(tmp_path / "design.json", {"factors": factors})
        counts = write_counts(tmp_path / "counts.csv", [
            (u, m, "marginal" if c == "c0" else c, n, r)
            for u, m, c, n, r in default_counts(updates=1)
        ])
        assert main(["analyze", "--design", design, "--counts", counts,
                     "--out", str(tmp_path / "o")]) == 2
        assert "reserved" in capsys.readouterr().err
        cfg = write_json(tmp_path / "cfg.json",
                         {**TINY_SCENARIO, "spec": {"factors": factors}})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("design", [
        {"factors": [{**TINY_DESIGN["factors"][0], "values": [1, 2]},
                     TINY_DESIGN["factors"][1]]},
        {"factors": [{**TINY_DESIGN["factors"][0], "values": "AB"},
                     TINY_DESIGN["factors"][1]]},
        TINY_DESIGN["factors"],
        {"factors": ["msg", TINY_DESIGN["factors"][1]]},
    ], ids=["integer-values", "string-values", "top-level-array", "string-factor"])
    def test_malformed_design_exits_2_and_writes_nothing(self, tmp_path, capsys, design):
        path = write_json(tmp_path / "design.json", design)
        counts = write_counts(tmp_path / "counts.csv", default_counts(updates=1))
        assert main(["analyze", "--design", path, "--counts", counts,
                     "--out", str(tmp_path / "o")]) == 2
        assert "cannot load design spec" in capsys.readouterr().err
        cfg = write_json(tmp_path / "cfg.json", {**TINY_SCENARIO, "spec": design})
        assert main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "s")]) == 2
        assert "invalid scenario config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("name,label", [("msg", "m\r1"), ("msg\r", "m1")],
                             ids=["value-label", "factor-name"])
    def test_carriage_return_in_a_label_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                   name, label):
        # Left unquoted in the output CSVs, it ended their rows early.
        design = write_json(tmp_path / "design.json", {"factors": [
            {"name": name, "role": "content", "values": ["m0", label]},
            TINY_DESIGN["factors"][1]]})
        counts = write_counts(tmp_path / "counts.csv", [
            (u, label if msg == "m1" else msg, *rest)
            for u, msg, *rest in default_counts(updates=1)])
        assert main(["analyze", "--design", design, "--counts", counts, "--method", "mle",
                     "--out", str(tmp_path / "o")]) == 2
        assert "must not contain a carriage return" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pipe_in_a_value_label_exits_2_and_writes_nothing(self, tmp_path, capsys):
        design = write_json(tmp_path / "design.json", PIPE_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", default_counts(updates=1))
        assert main(["analyze", "--design", design, "--counts", counts,
                     "--out", str(tmp_path / "o")]) == 2
        assert "must not contain '|'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_excess_responses_exit_2(self, tmp_path, capsys):
        rows = default_counts(updates=1)
        rows[0] = (1, "m0", "c0", 10, 11)
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2
        assert "responses" in capsys.readouterr().err

    @pytest.mark.parametrize("assignments, responses", [(5, -1), (-1, 0)])
    def test_negative_count_names_both_values(self, tmp_path, capsys, assignments,
                                              responses):
        rows = default_counts(updates=1)
        rows[0] = (1, "m0", "c0", assignments, responses)
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2
        assert (f"row 2: need 0 <= responses <= assignments, got responses {responses}, "
                f"assignments {assignments}") in capsys.readouterr().err

    @pytest.mark.parametrize("first, second, row", [
        (2**63 - 1, 2**63 - 1, 2),
        (2**52, 2**52 + 1, 6),
    ], ids=["int64-max", "crossing-at-update-2"])
    def test_assignments_past_2_53_name_the_row(self, tmp_path, capsys, first, second,
                                               row):
        # Counts are floats in the fit: past 2**53 they lose integers, and
        # the int64 sum of two int64-max looks wraps negative.
        rows = [(u, msg, ctx, a, 0) for u, a in ((1, first), (2, second))
                for msg in ("m0", "m1") for ctx in ("c0", "c1")]
        code, out = self.run_analyze(tmp_path, rows)
        assert code == 2
        assert (f"row {row}: the assignments of cell (msg=m0, ctx=c0) pass 2**53"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_mle_cell_without_traffic_exits_2(self, tmp_path, capsys):
        rows = default_counts(updates=1)
        rows[3] = (1, "m1", "c1", 0, 0)
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2
        assert "msg=m1, ctx=c1" in capsys.readouterr().err

    def test_alpha_out_of_range_exits_2(self, tmp_path):
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", default_counts(updates=1))
        assert main(["analyze", "--design", design, "--counts", counts,
                     "--alpha", "1.5", "--out", str(tmp_path / "o")]) == 2

    def test_value_error_inside_fitting_exits_3(self, tmp_path, monkeypatch, capsys):
        import hbab.sim

        def broken_fit(*args, **kwargs):
            raise ValueError("target density or gradient is not finite")

        monkeypatch.setattr(hbab.sim, "fit_posterior", broken_fit)
        code, _ = self.run_analyze(tmp_path, default_counts(updates=1), method="hb")
        assert code == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        old_umask = os.umask(0o022)
        try:
            code, out = self.run_analyze(tmp_path, default_counts(updates=1))
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            os.umask(old_umask)
        assert code == 0
        expected = stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode)
        assert expected == 0o644
        for name in ("estimates.csv", "comparisons.csv", "manifest.json"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == expected

    def test_noncontiguous_updates_exit_2(self, tmp_path):
        rows = [(2, "m0", "c0", 10, 5)]
        code, _ = self.run_analyze(tmp_path, rows)
        assert code == 2

    @pytest.mark.parametrize("tau", ["fixed:nan", "fixed:inf", "fixed:-inf"])
    def test_non_finite_fixed_tau_exits_2(self, tmp_path, capsys, tau):
        code, out = self.run_analyze(tmp_path, default_counts(updates=1), tau=tau)
        assert code == 2
        assert "bad fixed tau value" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_learnt_tau_exits_2(self, tmp_path, capsys):
        # NaN, or anything but a JSON number that is not a boolean.
        for i, payload in enumerate([
            '{"point_value_for_testing": NaN}',
            '{"point_value_for_testing": true}',
            '{"point_value_for_testing": "0.5"}',
            '{"point_value_for_testing": null}',
            '{"point_value_for_testing": [0.5]}',
            '{"point_value_for_testing": {"value": 0.5}}',
            '{"point_value_for_testing": 1%s}' % ("0" * 400),
            '[{"point_value_for_testing": 0.5}]',
            '0.5',
        ]):
            learnt = tmp_path / f"tau{i}.json"
            learnt.write_text(payload)
            code, out = self.run_analyze(
                tmp_path, default_counts(updates=1), tau=f"learnt:{learnt}",
                name=f"out{i}",
            )
            assert code == 2, payload
            assert "cannot read learnt tau" in capsys.readouterr().err
            assert not out.exists()

    def test_learnt_tau_from_file(self, tmp_path):
        learnt = tmp_path / "tau.json"
        learnt.write_text(json.dumps({"point_value_for_testing": 0.01}))
        code, out = self.run_analyze(
            tmp_path, default_counts(updates=1), tau=f"learnt:{learnt}"
        )
        assert code == 0


def test_analyze_reproduces_a_simulated_repetition(tmp_path):
    """A desk repetition's counts, analysed as an external stream, give the
    simulation's MLE estimates and per-context pair traces bit for bit."""
    config = desk_scenario(seed=11)
    rep = run_repetition(config, 0, methods=("mle",))
    increments = stream_updates(rep.truth, config, _rep_seed_sequences(config, 0)[1])
    spec = config.spec
    counts = tmp_path / "counts.csv"
    with open(counts, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["update", *(f.name for f in spec.factors), "assignments",
                         "responses"])
        for u, inc in enumerate(increments, start=1):
            for cell, a, r in zip(enumerate_cells(spec), inc.assignments.tolist(),
                                  inc.responses.tolist()):
                writer.writerow([u, *(f.values[i] for f, i in zip(spec.factors, cell)),
                                 a, r])
    design = write_json(tmp_path / "design.json", spec_to_dict(spec))
    out = tmp_path / "out"
    assert main(["analyze", "--design", design, "--counts", str(counts), "--method",
                 "mle", "--tau", "fixed:0.1", "--alpha", repr(config.alpha),
                 "--out", str(out)]) == 0

    def read(name, fields, keep=lambda row: True):
        with open(out / name) as fh:
            rows = [[float(r[f]) for f in fields] for r in csv.DictReader(fh) if keep(r)]
        return np.array(rows).reshape(config.updates, -1, len(fields))

    est = read("estimates.csv", ("mean", "variance"))
    assert np.array_equal(est[..., 0], rep.estimate_mean["mle"], equal_nan=True)
    cum_a = np.cumsum([inc.assignments for inc in increments], axis=0)
    cum_r = np.cumsum([inc.responses for inc in increments], axis=0)
    variances = [mle_estimates(CountData(a, r)).variances for a, r in zip(cum_a, cum_r)]
    assert np.array_equal(est[..., 1], variances, equal_nan=True)
    traces = read("comparisons.csv", ("diff_mean", "diff_var", "p_min"),
                  lambda row: row["context"] != "marginal")
    t = sequential_trace(rep.diff_mean["mle"], rep.diff_var["mle"], TauSpec.fixed(0.1),
                         config.alpha)
    for i, trace in enumerate((t.diff_mean, t.diff_var, t.p_min)):
        assert np.array_equal(traces[..., i], trace, equal_nan=True)

    # The raw differences, zero variances included, bit for bit.
    with np.load(out / "differences.npz", allow_pickle=False) as arrays:
        assert sorted(arrays.files) == ["mle.diff_mean", "mle.diff_var"]
        for field in ("diff_mean", "diff_var"):
            got, expected = arrays[f"mle.{field}"], getattr(rep, field)["mle"]
            assert got.shape == (1, *expected.shape)
            assert np.array_equal(got[0], expected, equal_nan=True)
            assert got[0].tobytes() == np.asarray(expected, "<f8").tobytes()

    # simulate's record of the same repetition gives learn-tau the same corpus.
    cfg = write_json(tmp_path / "cfg.json", {"methods": ["mle"], "repetitions": 1})
    sim = tmp_path / "sim"
    assert main(["simulate", "--scale", "desk", "--config", cfg, "--seed", "11",
                 "--out", str(sim)]) == 0
    assert (learn_tau_run(sim, tmp_path / "tau-sim", "mle")
            == learn_tau_run(out, tmp_path / "tau-analyze", "mle"))


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

    def test_seed_does_not_change_the_result(self, tmp_path):
        rng = np.random.default_rng(2)
        path = self.effects_file(tmp_path, rng.normal(0, 0.1, 40), sd=0.05)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            assert main(["learn-tau", path, "--seed", seed, "--out", str(out)]) == 0
            outs.append((out / "learnt_tau.json").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["master_seed"] == int(seed)
        assert outs[0] == outs[1]

    def test_config_hash_follows_the_corpus(self, tmp_path):
        # The same corpus under two directories, then one changed byte: the
        # first row's noise_sd 0.02 becomes 0.03.
        deltas = np.random.default_rng(3).normal(0, 0.1, 20)
        hashes = []
        for name, changed in (("a", False), ("b", False), ("c", True)):
            directory = tmp_path / name
            directory.mkdir()
            path = self.effects_file(directory, deltas)
            if changed:
                effects = directory / "effects.csv"
                effects.write_bytes(effects.read_bytes().replace(b",0.02", b",0.03", 1))
            out = directory / "out"
            assert main(["learn-tau", path, "--out", str(out)]) == 0
            hashes.append(config_hash(out))
        assert hashes[0] == hashes[1] != hashes[2]

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

    @pytest.mark.parametrize("row", ["0.1,0.2,junk", "0.1", ""])
    def test_row_without_two_fields_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "effects.csv"
        path.write_text(f"delta,noise_sd\n0.3,0.1\n{row}\n0.2,0.1\n")
        out = tmp_path / "o"
        assert main(["learn-tau", str(path), "--out", str(out)]) == 2
        assert "row 3: expected 2 columns" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_sd_whose_square_overflows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "effects.csv"
        path.write_text("delta,noise_sd\n0.2,0.1\n0.1,1e200\n")
        out = tmp_path / "o"
        assert main(["learn-tau", str(path), "--out", str(out)]) == 2
        assert "noise_sd must square to a finite variance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("data", [b"delta,noise_sd\n0.1,0.2\n0.2\xff,0.1\n",
                                      b'delta,noise_sd\n0.1,"%s"\n' % (b"9" * 200_000)],
                             ids=["not-utf8", "field-past-the-csv-limit"])
    def test_effects_that_are_not_a_utf8_csv_exit_2(self, tmp_path, capsys, data):
        (tmp_path / "effects.csv").write_bytes(data)
        out = tmp_path / "o"
        assert main(["learn-tau", str(tmp_path / "effects.csv"), "--out", str(out)]) == 2
        assert "malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_singleton_corpus_exits_2(self, tmp_path):
        path = self.effects_file(tmp_path, [0.1])
        assert main(["learn-tau", path, "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def analyze_dir(tmp_path, rows, method="mle"):
        design = write_json(tmp_path / "design.json", TINY_DESIGN)
        counts = write_counts(tmp_path / "counts.csv", rows)
        res = tmp_path / f"res-{method}"
        assert main(["analyze", "--design", design, "--counts", counts,
                     "--method", method, "--out", str(res)]) == 0
        return res

    def test_reads_results_directory(self, tmp_path):
        res = self.analyze_dir(tmp_path, default_counts(updates=2, n=400))
        out = tmp_path / "tau"
        assert main(["learn-tau", str(res), "--method", "mle", "--out", str(out)]) == 0
        payload = json.loads((out / "learnt_tau.json").read_text())
        assert payload["n_effects"] == 2  # 2 contexts; pooled pairs are not in the record

    def test_method_an_analyze_run_did_not_fit_exits_2(self, tmp_path, capsys):
        # An MLE run holds no hierarchical differences, the default --method.
        res = self.analyze_dir(tmp_path, default_counts(updates=2, n=400))
        out = tmp_path / "tau"
        assert main(["learn-tau", str(res), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no hierarchical differences" in err and "they hold mle" in err
        assert not out.exists()

    def test_method_no_file_holds_names_every_method_held(self, tmp_path, capsys):
        # One file of each method, neither the one asked for.
        for name, method in (("a", "mle"), ("b", "hierarchical")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "differences.npz").write_bytes(self.npz_bytes(**{
                f"{method}.diff_mean": np.array([[[0.1, 0.2]]]),
                f"{method}.diff_var": np.array([[[0.01, 0.02]]])}))
        out = tmp_path / "tau"
        assert main(["learn-tau", str(tmp_path), "--method", "other", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no other differences" in err and "they hold hierarchical, mle" in err
        assert not out.exists()

    @pytest.mark.parametrize("method, learnt", [("mle", "mle"), ("hb", "hierarchical")])
    def test_analyze_run_gives_its_comparisons_corpus(self, tmp_path, monkeypatch, method,
                                                      learnt):
        import hbab.cli

        # A short sampler: this checks what is read, not how well a fit mixes.
        monkeypatch.setattr(hbab.cli, "ANALYZE_SAMPLER", replace(
            hbab.cli.ANALYZE_SAMPLER, warmup_draws=150, kept_draws=100, max_tree_depth=4))
        # Context c0 has no responses at update 1, so its pair is first
        # informative at update 2.
        rows = [(u, m, c, n, 0 if (u, c) == (1, "c0") else r)
                for u, m, c, n, r in default_counts(updates=3, n=400)]
        res = self.analyze_dir(tmp_path, rows, method)
        assert (learn_tau_run(res, tmp_path / "tau", learnt)
                == reference_learn_tau_run(res, tmp_path / "reference", learnt))

    def test_results_directory_walk_is_sorted(self, tmp_path):
        # Subdirectories made in sorted order; os.walk lists them in the
        # filesystem's order, which on ext4 is not sorted.
        for i, name in enumerate("abcdefgh"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "differences.npz").write_bytes(self.npz_bytes(**{
                "mle.diff_mean": np.array([[[i + 0.25, i + 0.5]]]),
                "mle.diff_var": np.array([[[(i + 1) / 64, (i + 1) / 16]]])}))
        delta, noise_sd = _effects_from_results_dir(str(tmp_path), "mle")
        assert delta.tolist() == [i + f for i in range(8) for f in (0.25, 0.5)]
        assert noise_sd.tolist() == [math.sqrt((i + 1) / d) for i in range(8)
                                     for d in (64, 16)]

    def test_results_directory_skips_an_infinite_variance(self, tmp_path):
        res = tmp_path / "res"
        res.mkdir()
        (res / "differences.npz").write_bytes(self.npz_bytes(**{
            "mle.diff_mean": np.array([[[0.1, 0.2, 0.3]]]),
            "mle.diff_var": np.array([[[0.01, math.inf, 0.02]]])}))
        out = tmp_path / "o"
        assert main(["learn-tau", str(res), "--method", "mle", "--out", str(out)]) == 0
        assert json.loads((out / "learnt_tau.json").read_text())["n_effects"] == 2

    @staticmethod
    def assert_no_differences_file(res, out, method, capsys):
        assert main(["learn-tau", str(res), "--method", method, "--out", str(out)]) == 2
        assert (f"no differences.npz under results directory {str(res)!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("methods, method", [
        (["mle"], "mle"),
        (["mle", "hierarchical"], "mle"),
        (["mle", "hierarchical"], "hierarchical"),
    ])
    def test_differences_file_gives_the_decisions_corpus(self, tmp_path, capsys, methods,
                                                         method):
        if methods == ["mle"]:
            args = ["--scale", "desk", "--config",
                    write_json(tmp_path / "cfg.json", {"methods": methods})]
        else:
            args = ["--config", write_json(tmp_path / "cfg.json", TINY_SCENARIO)]
        res = tmp_path / "res"
        assert main(["simulate", *args, "--seed", "3", "--out", str(res)]) == 0
        assert (learn_tau_run(res, tmp_path / "with", method)
                == reference_learn_tau_run(res, tmp_path / "reference", method))
        # Without the file, decisions.csv is not read in its place.
        (res / "differences.npz").unlink()
        self.assert_no_differences_file(res, tmp_path / "without", method, capsys)

    def test_decisions_csv_beside_a_differences_file_is_not_read(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"methods": ["mle"]})
        res = tmp_path / "res"
        assert main(["simulate", "--scale", "desk", "--config", cfg, "--seed", "3",
                     "--out", str(res)]) == 0
        # Not UTF-8: reading it would exit 2.
        (res / "decisions.csv").write_bytes(b"\xff")
        assert main(["learn-tau", str(res), "--method", "mle",
                     "--out", str(tmp_path / "o")]) == 0
        (res / "differences.npz").unlink()
        self.assert_no_differences_file(res, tmp_path / "o2", "mle", capsys)

    @staticmethod
    def npz_bytes(**arrays) -> bytes:
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    def short_member_npz(self):
        # The header's shape holds two repetitions, the data one.
        npy = io.BytesIO()
        np.save(npy, np.full((2, 3, 4), 0.5))
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            for field in ("diff_mean", "diff_var"):
                archive.writestr(f"mle.{field}.npy", npy.getvalue()[:-8 * 12])
        return buf.getvalue()

    @pytest.mark.parametrize("case, message", [
        ("truncated", "File is not a zip file"),
        ("not-a-zip", "File is not a zip file"),
        ("object-dtype", "object array of shape (2, 3, 4)"),
        ("fortran-order", "Fortran-ordered float64"),
        ("two-dimensional", "float64 array of shape (3, 4)"),
        ("mismatched-shape", "has shape (2, 3, 4) but mle.diff_var.npy has (2, 3, 5)"),
        ("one-array", "mle.diff_var.npy is missing"),
        ("short-member", "mle.diff_mean.npy ends before its data does"),
    ])
    def test_malformed_differences_file_exits_2_and_names_it(self, tmp_path, capsys, case,
                                                             message):
        block = np.full((2, 3, 4), 0.5)
        data = {
            "truncated": lambda: self.npz_bytes(**{
                "mle.diff_mean": block, "mle.diff_var": block})[:-30],
            "not-a-zip": lambda: b"delta,noise_sd\n0.1,0.2\n",
            "object-dtype": lambda: self.npz_bytes(**{
                "mle.diff_mean": block.astype(object), "mle.diff_var": block}),
            "fortran-order": lambda: self.npz_bytes(**{
                "mle.diff_mean": np.asfortranarray(block), "mle.diff_var": block}),
            "two-dimensional": lambda: self.npz_bytes(**{
                "mle.diff_mean": block[0], "mle.diff_var": block[0]}),
            "mismatched-shape": lambda: self.npz_bytes(**{
                "mle.diff_mean": block, "mle.diff_var": np.full((2, 3, 5), 0.5)}),
            "one-array": lambda: self.npz_bytes(**{"mle.diff_mean": block}),
            "short-member": self.short_member_npz,
        }[case]()
        res = tmp_path / "res"
        res.mkdir()
        (res / "differences.npz").write_bytes(data)
        out = tmp_path / "o"
        assert main(["learn-tau", str(res), "--method", "mle", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"malformed differences file {str(res / 'differences.npz')!r}" in err
        assert message in err
        assert not out.exists()

    def test_differences_file_without_the_method_adds_no_effects(self, tmp_path):
        res = tmp_path / "res"
        for name in ("hb", "mle"):
            (res / name).mkdir(parents=True)
        block = np.full((2, 3, 4), 0.5)
        (res / "hb" / "differences.npz").write_bytes(self.npz_bytes(**{
            "hierarchical.diff_mean": block, "hierarchical.diff_var": block}))
        (res / "mle" / "differences.npz").write_bytes(self.npz_bytes(**{
            "mle.diff_mean": np.array([[[0.1, 0.3]]]),
            "mle.diff_var": np.array([[[0.01, 0.02]]])}))
        out = tmp_path / "o"
        assert main(["learn-tau", str(res), "--method", "mle", "--out", str(out)]) == 0
        assert json.loads((out / "learnt_tau.json").read_text())["n_effects"] == 2
        assert main(["learn-tau", str(res), "--method", "hierarchical",
                     "--out", str(out)]) == 0
        assert json.loads((out / "learnt_tau.json").read_text())["n_effects"] == 8

    @pytest.mark.parametrize("rows", ["-1e-160,1e-160\n5e-324,1e-160\n",
                                      "0,1e-160\n0,1e-160\n"])
    def test_effects_without_a_finite_mode_exit_2(self, tmp_path, capsys, rows):
        # The slope of the first is NaN below log tau -745; its posterior
        # mean used to read above its own 97.5% quantile.
        path = tmp_path / "effects.csv"
        path.write_text("delta,noise_sd\n" + rows)
        out = tmp_path / "o"
        assert main(["learn-tau", str(path), "--out", str(out)]) == 2
        assert ("the tau posterior has no finite mode for these effects"
                in capsys.readouterr().err)
        assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--scale", "desk"],
    ["analyze", "--design", "design.json", "--counts", "counts.csv"],
    ["learn-tau", "effects.csv"],
    ["oracle-check"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    code = main([*argv, "--seed", "-3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
