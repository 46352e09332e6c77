"""Tests of the benchmark's own code: span arithmetic, failure accounting,
seeded input generation, hooks, statistics, and agreement with
BENCHMARK.json."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span  # noqa: E402


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# ------------------------------------------------------------- self time


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer("run-1", clock=scripted_clock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 4.5, 10.0))
    outer = tracer.open("outer")        # 0.0
    child = tracer.open("child")        # 1.0
    grandchild = tracer.open("grand")   # 2.0
    tracer.close(grandchild)            # 2.5 -> 0.5
    tracer.close(child)                 # 3.0 -> 2.0, self 1.5
    folded = tracer.open("fold", keep=False)  # 4.0
    tracer.close(folded)                # 4.5 -> 0.5
    tracer.close(outer)                 # 10.0 -> 10.0, self 10 - 2 - 0.5

    totals = tracer.totals()
    assert totals["outer"].self_time == pytest.approx(7.5)
    assert totals["child"].self_time == pytest.approx(1.5)
    assert totals["grand"].self_time == pytest.approx(0.5)
    assert (totals["fold"].calls, totals["fold"].total) == (1, pytest.approx(0.5))
    assert "fold" not in {s.name for s in tracer.spans}

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["child"].parent == by_name["outer"].id
    assert by_name["grand"].parent == by_name["child"].id
    assert {s.run for s in tracer.spans} == {"run-1"}


def test_self_time_accumulates_over_calls():
    tracer = Tracer("r", clock=scripted_clock(0.0, 1.0, 1.25, 2.0, 3.0, 3.5, 3.75, 4.0))
    with span(tracer, "a"):             # 0.0 .. 2.0
        with span(tracer, "b"):         # 1.0 .. 1.25
            pass
    with span(tracer, "a"):             # 3.0 .. 4.0
        with span(tracer, "b"):         # 3.5 .. 3.75
            pass
    totals = tracer.totals()
    assert totals["a"].calls == 2
    assert totals["a"].total == pytest.approx(3.0)
    assert totals["a"].self_time == pytest.approx(2.5)
    assert totals["b"].self_time == pytest.approx(0.5)


def test_closing_out_of_order_raises():
    tracer = Tracer("r")
    first = tracer.open("first")
    tracer.open("second")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_span_without_tracer_is_a_no_op():
    with span(None, "anything"):
        pass


# ------------------------------------------------------- failure accounting


def test_failed_share_counts_failed_over_attempted():
    unit = workloads.UnitResult()
    unit.op(None)
    unit.op("broken output")
    unit.op(None)
    assert (unit.attempted, unit.failed, unit.errors) == (3, 1, ["broken output"])
    assert run.failed_share(unit.attempted, unit.failed) == pytest.approx(1 / 3)
    assert run.failed_share(4, 0) == 0.0
    with pytest.raises(ValueError):
        run.failed_share(0, 0)


def test_failed_command_fails_both_operations_and_counts_no_looks(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["paper-simulate-mle"]
    state = wl.prepare(5, tmp_path)
    monkeypatch.setattr(workloads, "call_cli", lambda argv, tracer=None: (3, 0.25))
    unit = wl.run_unit(state, 0)
    assert (unit.attempted, unit.failed, unit.looks) == (2, 2, 0)
    assert unit.seconds == pytest.approx(0.25)


def test_missing_outputs_count_as_a_failed_look(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["desk-analyze-hb"]
    state = wl.prepare(2, tmp_path)
    monkeypatch.setattr(workloads, "call_cli", lambda argv, tracer=None: (0, 1.0))
    unit = wl.run_unit(state, 0)
    assert (unit.attempted, unit.failed, unit.looks) == (1, 1, 0)
    assert "estimates.csv" in unit.errors[0]


# ---------------------------------------------------------- seeded inputs

# SHA-256 over the sorted (name, bytes) inputs of seed 7; a change here
# changes every later measurement's inputs and needs a new baseline.
PINNED_INPUTS = {
    "desk-analyze-hb": "17b228a05785066e232e8ec67c4b4dac7dba814eda5560a8906419399b510b73",
    "paper-fit-hb": "763f76d0c86dab30984647f6641ce52578942dfa8cbd50af44625b7b2f566711",
    "paper-simulate-mle": "fea73f215288649cb6f35d1f187f0d54015cf8efbb110b40e636df690953ccf9",
}


def inputs_digest(name, seed):
    digest = hashlib.sha256()
    for key, data in sorted(workloads.WORKLOADS[name].inputs(seed).items()):
        digest.update(key.encode() + b"\0" + data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)
    assert inputs_digest(name, 7) == PINNED_INPUTS[name]


@pytest.mark.parametrize("name", ["desk-analyze-hb", "paper-fit-hb"])
def test_datasets_differ_between_variants(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(0) != wl.inputs(1)
    assert wl.inputs(1) == wl.inputs(1 + workloads.VARIANTS)


@pytest.mark.parametrize("levels", [2, 4])
def test_truth_has_the_low_power_scenario_structure(levels):
    rates = workloads.truth_rates(levels, 0, 0)
    logit = np.log(rates / (1.0 - rates)).reshape((levels,) * 4)
    h1 = levels // 2
    assert np.allclose(logit[h1:], 0.0)  # the null half of contents
    effect = logit[:h1]
    # title x partner interactions only: no image x context or context terms
    additive = (effect.mean(axis=(2, 3), keepdims=True) + effect.mean(axis=(1, 3), keepdims=True)
                + effect.mean(axis=(1, 2), keepdims=True)
                - 2.0 * effect.mean(axis=(1, 2, 3), keepdims=True))
    assert np.allclose(effect, additive)
    assert not np.allclose(rates, workloads.truth_rates(levels, 0, 1))


def test_prepared_files_are_the_generated_bytes(tmp_path):
    wl = workloads.WORKLOADS["desk-analyze-hb"]
    wl.prepare(3, tmp_path)
    for name, data in wl.inputs(3).items():
        assert (tmp_path / name).read_bytes() == data


# ------------------------------------------------------------------ hooks


def test_missing_hook_target_reads_absent_and_originals_come_back(monkeypatch):
    import hbab.glm

    original = hbab.glm.make_target
    monkeypatch.setattr(hooks, "HOOKS", (
        hooks.Hook("glm.density", "density", ("hbab.glm:make_target",)),
        hooks.Hook("glm.fit_posterior", "fit", ("hbab.glm:renamed_away", "hbab.gone:f")),
    ))
    tracing = hooks.Tracing(Tracer("r")).install()
    assert hbab.glm.make_target is not original
    tracing.restore()
    assert hbab.glm.make_target is original
    assert tracing.present == {"glm.density"}

    work = {"looks": 1, "commands": 0, "output_bytes": 0, "traced_s": 1.0, "untraced_s": 1.0}
    metrics = hooks.layer_metrics(tracing, work)
    assert metrics["glm.density_us"]["value"] == 0.0
    assert metrics["sampler.fit_s"]["value"] is None
    assert metrics["glm.density_calls"]["value"] is None


# -------------------------------------------------------------- statistics


def test_ess_and_rhat_of_independent_draws():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 2, 4))
    assert np.all(np.abs(checks.split_rhat(x) - 1.0) < 0.01)
    assert np.all(np.abs(checks.ess(x) / 4000 - 1.0) < 0.3)


def test_ess_drops_for_autocorrelated_draws():
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal((400, 2, 1)), axis=0)
    assert checks.ess(x)[0] < 50


def test_mc_z_scales_by_reference_error():
    z = checks.mc_z([1.2, 0.9], [1.0, 1.0], [0.5, 0.5], mc_scale=0.1, runs=8)
    assert z == pytest.approx(np.array([0.2, -0.1]) / (0.05 * np.sqrt(1 + 1 / 8)))
    top, rms = checks.z_summary([3.0, -4.0])
    assert (top, rms) == (4.0, pytest.approx(np.sqrt(12.5)))


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in hooks.LAYER_METRICS]
