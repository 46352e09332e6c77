"""Property tests of the command-line readers.

Generated effects CSVs go through ``learn-tau``; generated design specs,
counts CSVs and ``--tau`` values through ``analyze --method mle``. Every run
exits 0 or 2, never 3 (a runtime failure), within a time bound and without
a numpy ``RuntimeWarning``, and every number it writes is finite, besides
the documented ``nan`` of a pair before its first informative update.
"""

import csv
import io
import itertools
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbab.cli import main

# Per command. The generated runs take well under a second each.
SECONDS = 10.0


def run(argv) -> int:
    """The exit code of ``main(argv)``, which must be 0 or 2 and come
    within ``SECONDS`` without a ``RuntimeWarning``."""
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(arg) for arg in argv])
    assert time.monotonic() - start < SECONDS
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2)
    return code


def _not_finite(name):
    raise AssertionError(f"{name} written to a JSON file")


def read_json(path: Path):
    """The JSON file at ``path``, which must hold only finite numbers."""
    return json.loads(path.read_text(), parse_constant=_not_finite)


def with_junk(draw, text: str) -> bytes:
    """``text`` as UTF-8, one time in six with a few arbitrary bytes put
    in."""
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


# Magnitudes from 0 and the least subnormal to the largest finite float,
# spread over every decade in between.
_MAGNITUDES = (st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.1, 1.0, 1e150,
                                1e300, 1.7e308])
               | st.floats(0.0, 1.7e308)
               | st.floats(-323.0, 308.0).map(lambda e: 10.0**e))
_SIGNED = st.tuples(st.sampled_from([1.0, -1.0]), _MAGNITUDES).map(lambda t: t[0] * t[1])
_EFFECTS = st.tuples(_SIGNED, _MAGNITUDES)


_TWO_MODES = [(0.0, 5e-324), (4.2778691198601664e+23, 1678409030765367.0)]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_EFFECTS, min_size=2, max_size=6) | st.lists(_EFFECTS, max_size=1))
# Each of the next three printed RuntimeWarnings from the tau density. All
# three exit 2: their tau posterior has no finite mode.
@example(rows=[(-1e-160, 1e-160), (5e-324, 1e-160)])
@example(rows=[(1e300, 1e-8), (-1e150, 1e-300)])
@example(rows=[(0.0, 1e-160), (0.0, 1e-160)])
# A local mode at log tau 1.06, 3e16 nats below the highest at log tau 108,
# sent the grid past the log tau where exp overflows: exit 2.
@example(rows=_TWO_MODES)
def test_learn_tau_on_any_effects_csv(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "effects.csv"
        path.write_text("delta,noise_sd\n" + "".join("%r,%r\n" % row for row in rows))
        if run(["learn-tau", path, "--out", tmp / "out"]) == 0:
            learnt = read_json(tmp / "out" / "learnt_tau.json")
            assert learnt["n_effects"] == len(rows)
            assert learnt["point_value_for_testing"] > 0
            read_json(tmp / "out" / "manifest.json")


def test_learn_tau_finds_the_highest_of_two_modes(tmp_path):
    path = tmp_path / "effects.csv"
    path.write_text("delta,noise_sd\n" + "".join("%r,%r\n" % row for row in _TWO_MODES))
    assert run(["learn-tau", path, "--out", tmp_path / "out"]) == 0
    learnt = read_json(tmp_path / "out" / "learnt_tau.json")
    q = learnt["quantiles"]
    assert q["2.5"] < learnt["posterior_mean"] < q["97.5"]
    # The highest mode sits near tau = delta**2 of the second effect.
    assert 1e46 < q["50"] < 1e48


_LABELS = ("a", "b", "c")


@st.composite
def _designs(draw):
    """A design spec mapping: three times in four valid, otherwise with a
    repeated or odd name, label or role."""
    if draw(st.integers(0, 3)) > 0:
        names = draw(st.lists(st.sampled_from("fgh"), min_size=1, max_size=3, unique=True))
        return {"factors": [
            {"name": name, "role": "content" if i == 0 else draw(
                st.sampled_from(["content", "context"])),
             "values": draw(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=3,
                                     unique=True))}
            for i, name in enumerate(names)]}
    labels = st.sampled_from([*_LABELS, "marginal", "a|b", "a\rb", "", 1])
    return {"factors": draw(st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(["f", "g", "", "g\r"]),
        "role": st.sampled_from(["content", "context", "other"]),
        "values": st.lists(labels, max_size=3)}), max_size=3))}


# Stray fields: counts from none to past the 2**53 that a cell's
# assignments may reach, and what is not a count.
_JUNK = st.sampled_from(["0", "1", str(2**53), str(2**63 - 1), str(2**64), "", "-1", "1.5",
                         "nan", "x", "1e3", " 2", "9" * 30])


@st.composite
def _counts(draw, design):
    """A counts CSV for ``design``: every cell at each of 1 to 3 updates,
    at up to 1 to 2**50 assignments a cell, and in two streams of five with
    a field or two replaced by junk."""
    factors = [f for f in design["factors"] if isinstance(f.get("values"), list)]
    factors.sort(key=lambda f: f["role"] != "content")
    rows = [["update", *(str(f["name"]) for f in factors), "assignments", "responses"]]
    most = draw(st.sampled_from([1, 50, 10**4, 2**30, 2**50]))
    for update in range(1, draw(st.integers(1, 3)) + 1):
        for cell in itertools.product(*(f["values"] for f in factors)):
            a = draw(st.integers(1, most))
            rows.append([update, *cell, a, draw(st.integers(0, a))])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return with_junk(draw, buf.getvalue())


# Mostly positive numbers.
_TAU_VALUES = st.one_of(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES,
                        st.floats() | st.integers() | st.booleans() | st.none())


@st.composite
def _taus(draw):
    """A ``--tau`` argument; ``learnt:`` is followed by the contents of its
    file."""
    kind = draw(st.sampled_from(["fixed", "fixed", "dynamic", "learnt", "learnt", "other"]))
    if kind == "fixed":
        return f"fixed:{draw(_TAU_VALUES)!r}"
    if kind == "learnt":
        payload = {"point_value_for_testing": draw(_TAU_VALUES)}
        return "learnt:", with_junk(draw, json.dumps(payload))
    return draw(st.just("dynamic") | st.text(max_size=8))


@st.composite
def _analyze_inputs(draw):
    design = draw(_designs())
    return with_junk(draw, json.dumps(design)), draw(_counts(design)), draw(_taus())


# Columns that hold numbers; only these comparison ones may read nan.
_NUMBERS = {
    "estimates.csv": ("mean", "variance"),
    "marginal_estimates.csv": ("mean", "variance"),
    "comparisons.csv": ("diff_mean", "diff_var", "bayes_factor", "p_instant", "p_min"),
}
_MAY_BE_NAN = ("diff_mean", "diff_var", "bayes_factor", "p_instant")


_TWO_BY_TWO = json.dumps({"factors": [
    {"name": "f", "role": "content", "values": ["a", "b"]},
    {"name": "g", "role": "context", "values": ["a", "b"]}]}).encode()


@settings(max_examples=250, deadline=None)
@given(inputs=_analyze_inputs())
# A counts file that is not UTF-8, or holds a field past the csv module's
# limit, exited 3.
@example(inputs=(_TWO_BY_TWO, b"update,f,g,assignments,responses\n1,a,a,10\xff,5\n",
                 "dynamic"))
@example(inputs=(_TWO_BY_TWO, b'update,f,g,assignments,responses\n1,a,a,"%s",5\n'
                 % (b"9" * 200_000), "dynamic"))
# A value label holding a lone carriage return exited 0 with output rows
# that a CSV reader ends early.
@example(inputs=(json.dumps({"factors": [
    {"name": "f", "role": "content", "values": ["a", "a\rb"]}]}).encode(),
    b"update,f,assignments,responses\n1,a,10,5\n1,\"a\rb\",10,4\n", "dynamic"))
# A tau past about 1e292 times a pair's difference variance underflowed
# their ratio to 0, whose math.log exited 3.
@example(inputs=(_TWO_BY_TWO, b"update,f,g,assignments,responses\n" + b"".join(
    b"1,%s,%s,1125899906842624,562949953421312\n" % cell
    for cell in ((b"a", b"a"), (b"a", b"b"), (b"b", b"a"), (b"b", b"b"))), "fixed:1.7e308"))
def test_analyze_on_any_design_counts_and_tau(inputs):
    design, counts, tau = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "design.json").write_bytes(design)
        (tmp / "counts.csv").write_bytes(counts)
        if isinstance(tau, tuple):
            (tmp / "tau.json").write_bytes(tau[1])
            tau = f"{tau[0]}{tmp / 'tau.json'}"
        out = tmp / "out"
        code = run(["analyze", "--design", tmp / "design.json", "--counts",
                    tmp / "counts.csv", f"--tau={tau}", "--method", "mle", "--out", out])
        if code == 2:
            return
        read_json(out / "manifest.json")
        for name, columns in _NUMBERS.items():
            with open(out / name, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column in columns:
                        value = row[column]
                        assert math.isfinite(float(value)) or (
                            value == "nan" and column in _MAY_BE_NAN), (name, column, value)
