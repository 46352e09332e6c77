"""Command-line entry points.

Four batch commands: ``simulate`` runs the scenario harness and writes
metric and decision-trace CSVs, and the raw pair differences of every
repetition as one numpy file, ``differences.npz``; ``analyze`` runs the
estimation and sequential-testing pipeline on an externally supplied
count stream and writes its estimate and comparison CSVs, and its
per-context pair differences as the same ``differences.npz``;
``learn-tau`` fits the effect-size dispersion from a corpus of observed
effects; ``oracle-check`` runs the closed-form verification battery.

Fitting, parsing and verification live elsewhere: the per-look fit loop
is ``sim.look_estimates``, shared by ``simulate`` and ``analyze``; the
scenario config that ``simulate --config`` reads is parsed by
``sim.scenario_from_dict``, whose ``ValueError`` exits 2, as does
``sim.check_tau_experiment``'s; and the verification battery is
``conjugate.oracle_checks``. Besides reading, checking and writing,
``analyze`` only pools each look over contexts. ``learn-tau`` and
``simulate --tau-experiment`` write one ``learnt_tau.json`` format, which
``analyze --tau learnt:`` reads.

Every command writes a JSON run manifest listing its inputs, seed, config
hash (a hash of the command's settings and input contents, so the same
inputs at another path hash the same), and every artifact produced.
Every CSV input is read through ``_csv_reader``: one that is not UTF-8
or not CSV exits 2. ``learn-tau`` reads a results directory through the
``differences.npz`` files under it and nothing else, one repetition at a
time; a directory without one, or a file that is not a zip of float64
``[repetitions, updates, pairs]`` arrays, exits 2.
Tabular outputs are CSV with floats serialized to 17 significant digits,
so reruns with the same seed reproduce files byte for byte; all files are
written atomically. ``decisions.csv``, the largest, is written as UTF-8
byte blocks that numpy joins from tables of its field strings, each
distinct float formatted once (``_decision_blocks``); ``simulate``'s
manifest records the wall seconds of each of its stages.

Exit codes: 0 success, 1 verification-check failure, 2 input error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import sys
import tempfile
import time
import zipfile
import zlib
from datetime import datetime, timezone

import numpy as np

from . import __version__, conjugate
from .design import (
    ExperimentSpec,
    build_design_matrix,
    enumerate_cells,
    enumerate_comparisons,
    load_experiment_spec,
    spec_to_dict,
)
from .estimate import marginalize
from .glm import MAX_ASSIGNMENTS, CountData
from .metaprior import LearntTau, effects_from_differences, learn_tau
from .sampler import TARGET_ACCEPT, available_cpus, fit_blas_threads, fork_processes
from .seqtest import TauSpec, cell_differences, last_informative, sequential_trace
from .sim import (
    ANALYZE_SAMPLER,
    MetricsReport,
    ScenarioConfig,
    check_tau_experiment,
    default_workers,
    desk_scenario,
    fit_telemetry,
    look_estimates,
    paper_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    tau_experiment,
)

__all__ = ["main"]


class InputError(Exception):
    """Bad user input: config, CSV schema, or argument values (exit 2)."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _default_file_mode() -> int:
    """The mode ``open()`` gives a new file under the current umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def _atomic_file(path: str, binary: bool = False):
    """A new temporary file, text or ``binary``, that is moved onto
    ``path`` once the block ends; on any failure the old file stays and the
    temporary one is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="")) as fh:
            yield fh
            # mkstemp creates the file 0600; outputs get the usual mode.
            os.fchmod(fh.fileno(), _default_file_mode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, content) -> None:
    """Write ``content``, a string or an iterable of strings written in
    turn, through ``_atomic_file``."""
    with _atomic_file(path) as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            fh.writelines(content)


@contextlib.contextmanager
def _csv_reader(path: str, what: str):
    """A ``csv.reader`` of the file at ``path``. A file that cannot be
    opened, is not UTF-8 or is not CSV (a field past the ``csv`` module's
    size limit) is an ``InputError`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"malformed {what} {path!r}: {exc}") from exc


def _write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Environment settings that change how many processes and threads a run
# uses. Fits run at one BLAS thread whatever they say, unless no OpenBLAS
# thread setter was found ("blas_threads" null): then the draws may depend
# on the BLAS thread count they set.
_PROCESS_SETTINGS = ("HBAB_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _processes(chains: int, repetitions: int, workers: int) -> dict:
    """The CPUs of a run, the processes each of its fits runs ``chains``
    chains over (0 for a run without fits) when its ``repetitions`` are
    mapped over up to ``workers`` processes, the BLAS thread count of every
    fit and the settings above."""
    # A fit in a forked repetition is in a worker process, where
    # fork_processes gives 1.
    limit = available_cpus() if fork_processes(repetitions, workers) <= 1 else 1
    return {
        "cpus": available_cpus(),
        "chain_processes": fork_processes(chains, limit),
        "blas_threads": fit_blas_threads(),
        "environment": {name: os.environ.get(name) for name in _PROCESS_SETTINGS},
    }


class _Manifest:
    def __init__(self, command: str, config_payload: dict, seed=None, chains: int = 0,
                 repetitions: int = 1, workers: int = 1):
        self.data = {
            "command": command,
            "config_hash": _config_hash(config_payload),
            "master_seed": seed,
            "started": datetime.now(timezone.utc).isoformat(),
            "finished": None,
            "versions": {
                "hbab": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "processes": _processes(chains, repetitions, workers),
            "outputs": [],
            "warnings": [],
        }

    def add_output(self, path: str) -> str:
        self.data["outputs"].append(os.path.abspath(path))
        return path

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)
        print(f"warning: {message}", file=sys.stderr)

    def write(self, out_dir: str) -> None:
        self.data["finished"] = datetime.now(timezone.utc).isoformat()
        path = os.path.join(out_dir, "manifest.json")
        self.data["outputs"].append(os.path.abspath(path))
        _write_json(path, self.data)


def _parse_tau(text: str) -> TauSpec:
    if text == "dynamic":
        return TauSpec.dynamic()
    kind, sep, rest = text.partition(":")
    if kind == "fixed" and sep:
        try:
            return TauSpec.fixed(float(rest))
        except ValueError as exc:
            raise InputError(f"bad fixed tau value {rest!r}") from exc
    if kind == "learnt" and sep:
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                value = json.load(fh)["point_value_for_testing"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"point_value_for_testing {value!r} is not a number")
            return TauSpec.learnt(float(value))
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot read learnt tau from {rest!r}: {exc}") from exc
    raise InputError(
        f"bad --tau {text!r}: expected fixed:VALUE, dynamic, or learnt:FILE"
    )


def _combo_label(factors, combo) -> str:
    return "|".join(f.values[i] for f, i in zip(factors, combo))


def _pair_labels(spec: ExperimentSpec) -> list[tuple[str, str, str]]:
    """(context, content_a, content_b) labels of every pair, in
    ``enumerate_comparisons`` order."""
    return [(_combo_label(spec.context_factors, ctx),
             _combo_label(spec.content_factors, a),
             _combo_label(spec.content_factors, b))
            for ctx, a, b in enumerate_comparisons(spec)]


# The context of ``analyze``'s context-pooled rows in ``comparisons.csv``,
# reserved so that its readers can tell those rows from the per-context ones.
_POOLED_CONTEXT = "marginal"


def _check_context_labels(spec: ExperimentSpec) -> None:
    """Reject a design whose rows would read as context-pooled rows."""
    for combo in spec.context_combinations():
        if _combo_label(spec.context_factors, combo) == _POOLED_CONTEXT:
            raise InputError(f"context label {_POOLED_CONTEXT!r} is reserved for "
                             "the context-pooled rows of comparisons.csv")


# ---------------------------------------------------------------- simulate


def _resolve_scenario(args) -> tuple[ScenarioConfig, TauSpec, tuple[str, ...], dict]:
    mapping = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from exc
    preset = desk_scenario if args.scale == "desk" else paper_scenario
    try:
        config, tau_spec, methods = scenario_from_dict(mapping,
                                                       preset(args.power, args.seed))
        if args.tau_experiment:
            check_tau_experiment(config)
    except ValueError as exc:
        raise InputError(f"invalid scenario config: {exc}") from exc
    _check_context_labels(config.spec)

    payload = {"scale": args.scale, "power": args.power, "seed": args.seed,
               "tau_experiment": args.tau_experiment,
               **scenario_to_dict(config, tau_spec, methods)}
    # The sampler's fixed acceptance target is a setting of every fit.
    payload["sampler"]["target_accept"] = TARGET_ACCEPT
    return config, tau_spec, methods, payload


def _csv_fields(fields) -> str:
    """``fields`` joined and quoted as one ``csv.writer`` row, without the
    line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


# A row of decisions.csv is the concatenation of byte strings, one from each
# of these tables: "rep,update,method,tau_kind," by update,
# "context,content_a,content_b," by pair, "h0,"/"h1," by truth, "%.17g," of
# each of diff_mean, diff_var, bayes_factor, p_instant and p_min by value,
# and "0\n"/"1\n" by significance. Each table pads its strings to one width
# with 0xFF, a byte that UTF-8 text never holds, so deleting every 0xFF of
# a block of rows leaves the rows, whatever bytes the labels hold.
_PAD = b"\xff"
# "%.17g" takes at most 24 bytes, as "-2.2250738585072014e-308"; the spaces
# that left-justify it in 24 become padding.
_FLOAT_FORMAT = "%-24.17g,"
_FORMAT_BLOCK = 1 << 12  # values formatted by one % call
_ROW_BLOCK = 1 << 11  # rows joined at once


def _string_table(strings: list[str]) -> np.ndarray:
    """``strings`` in UTF-8, padded to the longest, as an array of
    fixed-size byte items."""
    encoded = [s.encode("utf-8") for s in strings]
    width = max(map(len, encoded), default=1)
    return np.frombuffer(b"".join(b.ljust(width, _PAD) for b in encoded), f"V{width}")


def _float_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The padded ``"%.17g,"`` table of ``values``' distinct float64 bit
    patterns, each formatted once, and the row of each value in it, in
    ``values``' shape: uint16 where that holds every row, else int32.

    Keying on bits keeps ``-0.0`` apart from ``0.0`` and one NaN payload
    from another.
    """
    bits = values.view(np.uint64).ravel()
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(bits.size, bool)  # the first of each run of equal bits
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    rows = np.empty(bits.size, np.uint16 if bits.size <= 1 << 16 else np.int32)
    rows[order] = np.cumsum(first, dtype=np.int32) - 1
    distinct = ordered[first].view(np.float64)
    del order, ordered, first
    table = np.empty(distinct.size, f"V{len(_FLOAT_FORMAT % 0.0)}")
    for s in range(0, distinct.size, _FORMAT_BLOCK):
        chunk = distinct[s:s + _FORMAT_BLOCK].tolist()
        text = (_FLOAT_FORMAT * len(chunk) % tuple(chunk)).encode("ascii")
        table[s:s + len(chunk)] = np.frombuffer(text.replace(b" ", _PAD), table.dtype)
    return table, rows.reshape(values.shape)


def _join_rows(segments) -> bytes:
    """The rows whose k-th field is ``table[index[row]]`` of the k-th
    ``(table, index)`` pair of ``segments``, joined without their padding."""
    record = np.empty(len(segments[0][1]),
                      [(str(k), table.dtype) for k, (table, _) in enumerate(segments)])
    for k, (table, index) in enumerate(segments):
        record[str(k)] = table[index]
    return record.tobytes().translate(None, _PAD)


_TRUTH = _string_table(["h0,", "h1,"])
_SIGNIFICANT = _string_table(["0\n", "1\n"])


def _decision_blocks(result, tau_spec, significant):
    """``decisions.csv`` body as UTF-8 byte blocks, one row per
    (repetition, method, pair, update) in that order.

    The tests are replayed from the stored difference traces: a pair whose
    difference variance is zero at an update repeats its previous
    diff_mean, diff_var, bayes_factor and p_instant, and reads NaN there
    before its first informative update. Each repetition's trace of each
    method also fills its row of ``significant[method]``, the [repetitions,
    updates, pairs] stack that ``metrics.csv`` is scored from, so no test
    is traced twice.

    Each float column of a trace is formatted once per distinct value and
    dropped, then rows are joined from the tables, ``_ROW_BLOCK`` or so at
    a time. The bytes are those of ``"%d,%d,%s,%s,%s,%.17g,%.17g,%.17g,"
    "%.17g,%.17g,%d\\n"`` row by row.
    """
    labels = _string_table([_csv_fields(label) + ","
                            for label in _pair_labels(result.config.spec)])
    n_updates = result.config.updates
    updates = np.arange(n_updates)
    step = max(1, _ROW_BLOCK // max(n_updates, 1))  # pairs a block
    for i, rep in enumerate(result.repetitions):
        truth = rep.truth.pair_is_h1.astype(np.intp)
        for m in result.methods:
            head = _csv_fields([m, tau_spec.kind])
            heads = _string_table([f"{rep.rep},{u},{head}," for u in range(1, n_updates + 1)])
            t = sequential_trace(rep.diff_mean[m], rep.diff_var[m], tau_spec,
                                 result.config.alpha)
            significant[m][i] = flags = t.significant
            columns = [t.diff_mean, t.diff_var, t.bayes_factor, t.p_instant, t.p_min]
            # Each column is freed once its table is made: the tables and the
            # whole trace alive at once would set the command's peak memory.
            del t
            floats = []
            while columns:
                floats.append(_float_table(columns.pop(0)))
            pairs = flags.shape[1]
            for p in range(0, pairs, step):
                span = slice(p, min(p + step, pairs))
                yield _join_rows([
                    (heads, np.tile(updates, span.stop - p)),
                    (labels, np.arange(p, span.stop).repeat(n_updates)),
                    (_TRUTH, np.repeat(truth[span], n_updates)),
                    *((table, rows[:, span].T.ravel()) for table, rows in floats),
                    (_SIGNIFICANT, flags[:, span].T.ravel().astype(np.intp)),
                ])
            del floats  # before the next trace


# The raw pair differences of a ``simulate`` or ``analyze`` run: the one
# results record that ``learn-tau`` reads.
_DIFFERENCES = "differences.npz"
_DIFFERENCE_FIELDS = ("diff_mean", "diff_var")
# The zip timestamp of every member, so reruns write the same bytes.
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)


def _write_differences(path: str, blocks: dict) -> None:
    """``differences.npz``: ``<method>.diff_mean`` and ``<method>.diff_var``
    of each method of ``blocks``, which maps it to its per-repetition
    ``[updates, pairs]`` blocks of each field, ``(diff_means, diff_vars)``.
    Each member is the float64 ``[repetitions, updates, pairs]`` stack of
    its blocks.

    An uncompressed zip of ``.npy`` members, as ``np.savez`` writes, that
    ``np.load`` reads with ``allow_pickle=False``. Each member is written
    one block at a time, so the stack is never built.
    """
    with _atomic_file(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as archive:
        for m, fields in blocks.items():
            for field, reps in zip(_DIFFERENCE_FIELDS, fields):
                shape = (len(reps), *reps[0].shape)
                buf = io.BytesIO()
                np.lib.format.write_array_header_1_0(
                    buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
                info = zipfile.ZipInfo(f"{m}.{field}.npy", date_time=_ZIP_TIME)
                info.file_size = buf.tell() + 8 * math.prod(shape)
                with archive.open(info, "w") as member:
                    member.write(buf.getvalue())
                    for block in reps:
                        member.write(np.ascontiguousarray(block, dtype="<f8"))


def _write_metrics(path: str, reports) -> None:
    """``metrics.csv`` and ``tau_metrics.csv``: the long-format rows of
    each ``MetricsReport`` in turn."""
    _write_csv(path, ["update", "method", "tau_kind", "metric", "value"],
               ((u, m, kind, metric, _fmt(v))
                for report in reports for u, m, kind, metric, v in report.rows()))


def cmd_simulate(args) -> int:
    config, tau_spec, methods, payload = _resolve_scenario(args)
    try:
        workers = default_workers()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    chains = config.sampler.chains if "hierarchical" in methods else 0
    manifest = _Manifest("simulate", payload, seed=args.seed, chains=chains,
                         repetitions=config.repetitions, workers=workers)

    stages = manifest.data["stages_s"] = {}
    clock = time.perf_counter()

    def stage(name: str) -> None:
        """Charge the wall time since the last stage to ``name``."""
        nonlocal clock
        now = time.perf_counter()
        stages[name], clock = now - clock, now

    result = run_scenario(config, methods)
    for w in result.warnings:
        manifest.warn(w)
    if "hierarchical" in methods:
        manifest.data["fits"] = fit_telemetry(
            record for rep in result.repetitions for record in rep.fits)
    stage("run")

    metrics_path = manifest.add_output(os.path.join(args.out, "metrics.csv"))
    header = ["rep", "update", "method", "tau_kind", "context", "content_a",
              "content_b", "truth", "diff_mean", "diff_var", "bayes_factor",
              "p_instant", "p_min", "significant"]
    # [repetitions, updates, pairs]
    shape = (config.repetitions, *result.repetitions[0].diff_mean[methods[0]].shape)
    significant = {m: np.empty(shape, dtype=bool) for m in methods}
    with _atomic_file(manifest.add_output(os.path.join(args.out, "decisions.csv")),
                      binary=True) as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        fh.writelines(_decision_blocks(result, tau_spec, significant))
    stage("decisions.csv")
    reps = result.repetitions
    _write_differences(manifest.add_output(os.path.join(args.out, _DIFFERENCES)),
                       {m: ([rep.diff_mean[m] for rep in reps],
                            [rep.diff_var[m] for rep in reps]) for m in result.methods})
    stage(_DIFFERENCES)
    _write_metrics(metrics_path, [MetricsReport.of(result, result.repetitions,
                                                   tau_spec.kind, significant)])

    if args.tau_experiment:
        comparison = tau_experiment(result)
        _write_metrics(manifest.add_output(os.path.join(args.out, "tau_metrics.csv")),
                       comparison.metrics.values())
        _write_learnt_tau(manifest, args.out, comparison.learnt,
                          train_repetitions=list(comparison.train_reps),
                          test_repetitions=list(comparison.test_reps))
    stage("metrics")

    manifest.write(args.out)
    return 0


# ----------------------------------------------------------------- analyze


def _read_counts(path: str, spec: ExperimentSpec):
    """Parse and validate the counts CSV.

    Expected header: update,<factor names in spec order...>,assignments,
    responses. Returns per-update CountData increments.
    """
    factors = spec.factors
    expected = ["update"] + [f.name for f in factors] + ["assignments", "responses"]
    value_index = {
        (f.name, v): j for f in factors for j, v in enumerate(f.values)
    }
    with _csv_reader(path, "counts file") as reader:
        header = next(reader, None)
        if header != expected:
            raise InputError(
                f"malformed counts header: expected {','.join(expected)!r}, "
                f"got {','.join(header or [])!r}"
            )
        per_update: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n_cells = spec.n_cells
        totals = [0] * n_cells  # each cell's assignments in the rows so far
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise InputError(f"row {line_no}: expected {len(expected)} columns")
            try:
                update = int(row[0])
                a = int(row[-2])
                r = int(row[-1])
            except ValueError as exc:
                raise InputError(f"row {line_no}: {exc}") from exc
            combo = []
            for f, label in zip(factors, row[1:-2]):
                try:
                    combo.append(value_index[(f.name, label)])
                except KeyError:
                    raise InputError(
                        f"row {line_no}: unknown value {label!r} for factor {f.name!r}"
                    ) from None
            if r > a or a < 0 or r < 0:
                raise InputError(
                    f"row {line_no}: need 0 <= responses <= assignments, "
                    f"got responses {r}, assignments {a}"
                )
            n_content = len(spec.content_factors)
            idx = spec.cell_index(tuple(combo[:n_content]), tuple(combo[n_content:]))
            totals[idx] += a
            if totals[idx] > MAX_ASSIGNMENTS:
                raise InputError(f"row {line_no}: the assignments of cell "
                                 f"({spec.describe_cell(combo)}) pass 2**53")
            if update not in per_update:
                per_update[update] = (
                    np.zeros(n_cells, dtype=np.int64),
                    np.zeros(n_cells, dtype=np.int64),
                )
            per_update[update][0][idx] += a
            per_update[update][1][idx] += r

    if not per_update:
        raise InputError("counts file holds no data rows")
    updates = sorted(per_update)
    if updates[0] != 1 or updates != list(range(1, len(updates) + 1)):
        raise InputError("updates must be contiguous from 1")
    return [CountData(per_update[u][0], per_update[u][1]) for u in updates]


def _check_traffic(increments: list[CountData], spec: ExperimentSpec, method: str) -> None:
    """The first update needs traffic in some cell, and the plain estimator
    needs it in every cell: a cell without assignments has no proportion to
    compare."""
    cum_a = np.cumsum([inc.assignments for inc in increments], axis=0)
    if not cum_a[0].any():
        raise InputError("update 1 has no assignments in any cell")
    if method == "mle" and not cum_a.all():
        u, k = np.argwhere(cum_a == 0)[0]
        raise InputError(
            f"update {u + 1}: no assignments yet in cell "
            f"({spec.describe_cell(enumerate_cells(spec)[k])}); "
            "--method mle needs traffic in every cell"
        )


def cmd_analyze(args) -> int:
    try:
        spec = load_experiment_spec(args.design)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load design spec: {exc}") from exc
    _check_context_labels(spec)
    tau_spec = _parse_tau(args.tau)
    if not 0.0 < args.alpha < 1.0:
        raise InputError(f"--alpha must lie in (0, 1), got {args.alpha}")
    increments = _read_counts(args.counts, spec)
    _check_traffic(increments, spec, args.method)

    payload = {
        "design": spec_to_dict(spec),
        "counts": _file_sha256(args.counts),
        "tau": args.tau,
        "alpha": args.alpha,
        "method": args.method,
        "seed": args.seed,
    }
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("analyze", payload, seed=args.seed,
                         chains=ANALYZE_SAMPLER.chains if args.method == "hb" else 0)

    X = build_design_matrix(spec, 2 if len(spec.factors) >= 2 else 1)
    n_contexts = len(spec.context_combinations())
    contents = spec.content_combinations()
    # The context-pooled pairs are the comparisons of a spec without context.
    pooled_spec = ExperimentSpec(spec.content_factors)
    context_pairs = _pair_labels(spec)
    pair_labels = context_pairs + [
        (_POOLED_CONTEXT, a, b) for _, a, b in _pair_labels(pooled_spec)]
    cell_labels = [[f.values[i] for f, i in zip(spec.factors, cell)]
                   for cell in enumerate_cells(spec).tolist()]
    content_labels = [[f.values[i] for f, i in zip(spec.content_factors, combo)]
                      for combo in contents]

    method = "hierarchical" if args.method == "hb" else "mle"
    looks = look_estimates(increments, X, (method,), ANALYZE_SAMPLER,
                           itertools.count(args.seed + 1))
    est_rows, marg_rows, diff_mean, diff_var, records = [], [], [], [], []
    for u, (data, estimates, fit_warnings, record) in enumerate(looks, start=1):
        for w in fit_warnings:
            manifest.warn(f"update {u}: {w}")
        if record is not None:
            records.append(record)
        ests = estimates[method]
        est_rows += ((u, *labels, args.method, _fmt(mean), _fmt(var))
                     for labels, mean, var in zip(cell_labels, ests.means.tolist(),
                                                  ests.variances.tolist()))

        # Content factors are the leading digits of the cell order, so a
        # context's traffic is a column sum.
        traffic = data.assignments.reshape(len(contents), n_contexts).sum(axis=0)
        marginals = marginalize(ests, spec, traffic.astype(float))
        marg_rows += ((u, *labels, args.method, _fmt(mean), _fmt(var))
                      for labels, mean, var in zip(content_labels,
                                                   marginals.means.tolist(),
                                                   marginals.variances.tolist()))
        d, v = cell_differences(spec, ests)
        pooled_d, pooled_v = cell_differences(pooled_spec, marginals)
        diff_mean.append(np.concatenate([d, pooled_d]))
        diff_var.append(np.concatenate([v, pooled_v]))
    diff_mean, diff_var = np.array(diff_mean), np.array(diff_var)
    if method == "hierarchical":
        manifest.data["fits"] = fit_telemetry(records)

    # Every update of every pair in one call, so both row families follow
    # the zero-variance rule of decisions.csv.
    t = sequential_trace(diff_mean, diff_var, tau_spec, args.alpha)
    columns = (t.diff_mean, t.diff_var, t.bayes_factor, t.p_instant, t.p_min,
               t.significant)
    cmp_rows = [
        (u, *label, *map(_fmt, values), int(significant))
        for u, row in enumerate(zip(*(c.tolist() for c in columns)), start=1)
        for label, *values, significant in zip(pair_labels, *row)
    ]

    factor_names = [f.name for f in spec.factors]
    _write_csv(
        manifest.add_output(os.path.join(args.out, "estimates.csv")),
        ["update", *factor_names, "method", "mean", "variance"],
        est_rows,
    )
    _write_csv(
        manifest.add_output(os.path.join(args.out, "marginal_estimates.csv")),
        ["update", *(f.name for f in spec.content_factors), "method", "mean",
         "variance"],
        marg_rows,
    )
    _write_csv(
        manifest.add_output(os.path.join(args.out, "comparisons.csv")),
        ["update", "context", "content_a", "content_b", "diff_mean", "diff_var",
         "bayes_factor", "p_instant", "p_min", "significant"],
        cmp_rows,
    )
    # The per-context pairs lead; the pooled ones, means of those, are not
    # independent evidence and stay in comparisons.csv only.
    per_context = slice(len(context_pairs))
    _write_differences(manifest.add_output(os.path.join(args.out, _DIFFERENCES)),
                       {method: ([diff_mean[:, per_context]], [diff_var[:, per_context]])})
    manifest.write(args.out)
    return 0


# --------------------------------------------------------------- learn-tau


def _write_learnt_tau(manifest: _Manifest, out_dir: str, learnt: LearntTau,
                      **extra) -> None:
    """``learnt_tau.json`` of both ``learn-tau`` and ``simulate
    --tau-experiment``: ``learnt``, whose ``point_value_for_testing`` is
    what ``--tau learnt:`` reads, then the keys of ``extra``."""
    _write_json(manifest.add_output(os.path.join(out_dir, "learnt_tau.json")), {
        "n_effects": learnt.n_effects,
        "posterior_mean": learnt.posterior_mean,
        "quantiles": {"2.5": learnt.q2_5, "50": learnt.median, "97.5": learnt.q97_5},
        "point_value_for_testing": learnt.point_value_for_testing,
        **extra,
    })


def _effects_from_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(delta, noise_sd)`` corpus of an effects CSV."""
    with _csv_reader(path, "effects file") as reader:
        header = next(reader, None)
        if header != ["delta", "noise_sd"]:
            raise InputError(
                f"malformed effects header: expected 'delta,noise_sd', "
                f"got {','.join(header or [])!r}"
            )
        deltas, sds = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise InputError(f"row {line_no}: expected 2 columns")
            try:
                delta, sd = float(row[0]), float(row[1])
            except ValueError as exc:
                raise InputError(f"row {line_no}: {exc}") from exc
            if not math.isfinite(delta):
                raise InputError(f"row {line_no}: delta must be finite")
            if not (sd > 0 and math.isfinite(sd)):
                raise InputError(f"row {line_no}: noise_sd must be positive")
            deltas.append(delta)
            sds.append(sd)
    return np.array(deltas, dtype=float), np.array(sds, dtype=float)


def _npy_header(member) -> tuple[tuple[int, ...], np.dtype]:
    """The shape and dtype of the ``.npy`` zip member ``member``, read up to
    its data; ``ValueError`` unless they are a C-ordered float64
    ``[repetitions, updates, pairs]`` array's."""
    version = np.lib.format.read_magic(member)
    if version != (1, 0):  # what np.save writes for any such array
        raise ValueError(f"{member.name} has .npy version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
    if fortran_order or dtype.kind != "f" or dtype.itemsize != 8 or len(shape) != 3:
        raise ValueError(f"{member.name} holds a {'Fortran' if fortran_order else 'C'}"
                         f"-ordered {dtype} array of shape {shape}, not a C-ordered "
                         "float64 [repetitions, updates, pairs] array")
    return shape, dtype


def _npy_block(member, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """The next ``shape`` array of ``dtype`` in the ``.npy`` member ``member``."""
    size = dtype.itemsize * math.prod(shape)
    data = member.read(size)
    if len(data) < size:
        raise ValueError(f"{member.name} ends before its data does")
    return np.frombuffer(data, dtype).reshape(shape)


def _final_differences_npz(
    path: str, method: str
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Each (repetition, pair)'s last informative difference in the
    ``differences.npz`` at ``path``, repetition-major in the file's pair
    order, and the methods the file holds arrays of; no differences if
    ``method`` is not one of them. One repetition's block of each array is
    read at a time."""
    names = [f"{method}.{field}.npy" for field in _DIFFERENCE_FIELDS]
    suffix = f".{_DIFFERENCE_FIELDS[0]}.npy"
    try:
        with zipfile.ZipFile(path) as archive:
            held = [name[:-len(suffix)] for name in archive.namelist() if name.endswith(suffix)]
            present = [name in archive.namelist() for name in names]
            if not any(present):
                return np.empty(0), np.empty(0), held
            if not all(present):
                raise ValueError(f"{names[present.index(False)]} is missing")
            with archive.open(names[0]) as means, archive.open(names[1]) as variances:
                (shape, mean_dtype), (var_shape, var_dtype) = map(
                    _npy_header, (means, variances))
                if shape != var_shape:
                    raise ValueError(f"{names[0]} has shape {shape} but {names[1]} "
                                     f"has {var_shape}")
                reps, pairs = shape[0], shape[2]
                d, v = np.empty(reps * pairs), np.empty(reps * pairs)
                for i in range(reps):
                    d[i * pairs:(i + 1) * pairs], v[i * pairs:(i + 1) * pairs] = (
                        last_informative(_npy_block(means, mean_dtype, shape[1:]),
                                         _npy_block(variances, var_dtype, shape[1:])))
    except OSError as exc:
        raise InputError(f"cannot read differences file: {exc}") from exc
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise InputError(f"malformed differences file {path!r}: {exc}") from exc
    return d, v, held


def _effects_from_results_dir(path: str, method: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(delta, noise_sd)`` corpus of every (repetition, pair)'s final
    difference in the ``differences.npz`` files under ``path``, read in the
    order of a walk with each directory's names sorted; an ``InputError``
    if there is none, or if none holds differences of ``method``."""
    diff_mean, diff_var, held = [], [], set()
    for root, dirs, files in os.walk(path):
        dirs.sort()  # os.walk lists them in the filesystem's order
        if _DIFFERENCES in files:
            d, v, methods = _final_differences_npz(os.path.join(root, _DIFFERENCES), method)
            diff_mean.append(d)
            diff_var.append(v)
            held.update(methods)
    if not diff_mean:
        raise InputError(f"no {_DIFFERENCES} under results directory {path!r}")
    if method not in held:
        raise InputError(
            f"no {method} differences in the {_DIFFERENCES} files under results directory "
            f"{path!r}; they hold {', '.join(sorted(held)) or 'none'} (see --method)")
    return effects_from_differences(np.concatenate(diff_mean), np.concatenate(diff_var))


_HASH_BLOCK = 1 << 12  # effects


def cmd_learn_tau(args) -> int:
    if os.path.isdir(args.effects):
        delta, noise_sd = _effects_from_results_dir(args.effects, args.method)
    else:
        delta, noise_sd = _effects_from_csv(args.effects)

    # The corpus as "delta,noise_sd" lines, hashed a block of effects at a
    # time: whole, its strings took about 170 bytes an effect.
    corpus = hashlib.sha256()
    for s in range(0, delta.size, _HASH_BLOCK):
        corpus.update("".join(
            "%.17g,%.17g\n" % pair for pair in zip(delta[s:s + _HASH_BLOCK].tolist(),
                                                   noise_sd[s:s + _HASH_BLOCK].tolist())
        ).encode("ascii"))
    payload = {
        "effects": corpus.hexdigest(),
        "n_effects": delta.size,
        "seed": args.seed,
        "method": args.method,
    }
    manifest = _Manifest("learn-tau", payload, seed=args.seed)
    try:
        learnt = learn_tau(delta, noise_sd)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    if learnt.point_value_for_testing <= 1e-8:
        manifest.warn(
            "corpus shows no excess dispersion; point value floored at 1e-8"
        )

    _write_learnt_tau(manifest, args.out, learnt)
    manifest.write(args.out)
    return 0


# ------------------------------------------------------------ oracle-check


def cmd_oracle_check(args) -> int:
    payload = {"seed": args.seed, "corrupt": bool(args.corrupt)}
    os.makedirs(args.out, exist_ok=True)
    manifest = _Manifest("oracle-check", payload, seed=args.seed,
                         chains=conjugate.ORACLE_SAMPLER.chains)

    results = list(conjugate.oracle_checks(args.corrupt, args.seed))
    lines = []
    for name, tolerance, observed, passed in results:
        status = "PASS" if passed else "FAIL"
        line = f"{status} {name}: observed {observed:.6g} ({tolerance})"
        lines.append(line)
        print(line)
    report = {
        "checks": [
            {"name": n, "tolerance": t, "observed": float(o), "passed": bool(p)}
            for n, t, o, p in results
        ],
        "all_passed": all(p for _, _, _, p in results),
    }
    _write_json(manifest.add_output(os.path.join(args.out, "oracle_report.json")), report)
    _atomic_write(
        manifest.add_output(os.path.join(args.out, "oracle_report.txt")),
        "\n".join(lines) + "\n",
    )
    manifest.write(args.out)
    return 0 if report["all_passed"] else 1


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbab",
        description="Hierarchical Bayesian estimation and sequential testing "
        "for multivariate AB tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the simulation harness")
    p_sim.add_argument("--config", help="JSON scenario overrides")
    p_sim.add_argument("--scale", choices=("paper", "desk"), default="desk")
    p_sim.add_argument("--power", choices=("low", "high"), default="low")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument(
        "--tau-experiment", action="store_true",
        help="also run the fixed/dynamic/learnt tau comparison on a "
        "train/test split of the repetitions",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze an external count stream")
    p_an.add_argument("--design", required=True, help="experiment spec JSON")
    p_an.add_argument("--counts", required=True, help="counts CSV")
    p_an.add_argument("--tau", default="fixed:0.1",
                      help="fixed:VALUE | dynamic | learnt:FILE")
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--method", choices=("hb", "mle"), default="hb")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_lt = sub.add_parser("learn-tau", help="learn the effect-size dispersion")
    p_lt.add_argument("effects", help="effects CSV (delta,noise_sd) or a "
                      "results directory holding differences.npz files")
    p_lt.add_argument("--method", default="hierarchical",
                      help="method whose arrays are read from each "
                      "differences.npz of a results directory")
    p_lt.add_argument("--seed", type=int, default=0,
                      help="recorded in the manifest; the quadrature result "
                      "does not depend on it")
    p_lt.add_argument("--out", required=True)
    p_lt.set_defaults(func=cmd_learn_tau)

    p_oc = sub.add_parser("oracle-check", help="run the closed-form "
                          "verification battery")
    p_oc.add_argument("--seed", type=int, default=20240501)
    p_oc.add_argument("--out", required=True)
    p_oc.add_argument("--corrupt", action="store_true",
                      help="negative control: perturb the closed form and "
                      "confirm the checks fail")
    p_oc.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # seed sequences take non-negative integers only
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # sampler or other runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
