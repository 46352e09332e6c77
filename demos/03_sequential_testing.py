"""Sequential Bayes-factor testing and why naive peeking misleads.

First: a two-arm test with a real difference, monitored every update with
the always-valid sequential p-value (running minimum of 1/K). The test can
be stopped the moment p_min crosses the threshold without invalidating the
error rate. Second: the cautionary baseline, a fixed-horizon z-test applied
at every peek on two identical arms, whose false-positive rate balloons.

The test runs on the incremental kernel: ``cell_differences`` gives each
pair's difference summary at an update, and ``sequential_trace`` folds it
into the running test, carrying the running minimum from one update to
the next through ``prior_p_min``. ``run_all_comparisons`` computes the same
test as a list of per-pair results.
"""

import numpy as np

from hbab import CellEstimates, TauSpec, naive_sequential_test_fpr
from hbab.design import ExperimentSpec, Factor
from hbab.seqtest import cell_differences, sequential_trace

spec = ExperimentSpec(content_factors=(Factor("variant", ("A", "B")),))

rng = np.random.default_rng(11)
rate_a, rate_b = 0.50, 0.53
n_per_update = 2000

print("two-arm test, true rates 0.50 vs 0.53, tau fixed at 0.1")
print(f"{'update':>6} {'diff':>8} {'K':>12} {'p_min':>8}  decision")
cum = np.zeros(2, dtype=int)
resp = np.zeros(2, dtype=int)
p_min = 1.0  # one pair, fresh
for update in range(1, 21):
    cum += n_per_update
    resp += rng.binomial(n_per_update, (rate_a, rate_b))
    rates = resp / cum
    d, v = cell_differences(spec, CellEstimates(rates, rates * (1 - rates) / cum))
    trace = sequential_trace(d[None], v[None], TauSpec.fixed(0.1), prior_p_min=p_min)
    p_min = trace.p_min[-1]
    significant = bool(trace.significant[-1, 0])
    decision = "STOP: significant" if significant else "continue"
    print(f"{update:>6} {trace.diff_mean[-1, 0]:>8.4f} {trace.bayes_factor[-1, 0]:>12.2f} "
          f"{p_min[0]:>8.4f}  {decision}")
    if significant:
        break

print("\nnaive repeated z-testing on two IDENTICAL arms "
      "(1000 simulations, alpha = 0.05):")
fpr = naive_sequential_test_fpr(updates=30, repetitions=1000, seed=3)
for u in (1, 5, 10, 20, 30):
    print(f"  false-positive rate by update {u:>2}: {fpr[u - 1]:.3f}")
print("the nominal 5% level roughly quintuples by the 30th peek; the "
      "sequential p_min above stays valid at every update by construction")
