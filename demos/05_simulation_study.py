"""A miniature end-to-end simulation study.

Runs two repetitions of the down-scaled scenario: half the content
combinations carry real interaction effects, half are exact nulls. Both
estimators are fitted at every sequential update and every content pair is
tested; the scorer turns the traces into estimation-error and decision-
accuracy curves. Takes about 15 seconds on 2 CPUs, most of it sampling.
"""

from hbab import desk_scenario, run_scenario, score
from hbab.sim import scenario_from_dict

# The same mapping that `hbab simulate --seed 42 --config` reads from a JSON
# file; every key it leaves out keeps the preset's value.
config, tau, methods = scenario_from_dict({"repetitions": 2, "updates": 6},
                                          desk_scenario("low", seed=42))
print(f"scenario: {config.spec.n_cells} cells, {config.updates} updates, "
      f"{config.repetitions} repetitions, "
      f"{config.assignments_per_update} assignments per update")

result = run_scenario(config, methods)
report = score(result, tau)

print("\nmean absolute estimation error per update:")
print(f"{'update':>6} {'hierarchical':>13} {'plain':>8}")
for u in range(config.updates):
    print(f"{u + 1:>6} {report.rmse['hierarchical'][u]:>13.4f} "
          f"{report.rmse['mle'][u]:>8.4f}")

print("\ndecision accuracy at the final update:")
for m in result.methods:
    print(f"  {m:>12}: false-negative rate {report.fnr[m][-1]:.2f}, "
          f"false-positive rate {report.fpr[m][-1]:.2f}, "
          f"false-discovery rate {report.fdr[m][-1]:.2f}")

truth = result.repetitions[0].truth
print(f"\nrepetition 0 ground truth: {truth.pair_is_h1.sum()} of "
      f"{truth.pair_is_h1.size} pairs carry a real difference; "
      f"true rates span [{truth.rates.min():.3f}, {truth.rates.max():.3f}]")

# Long-format rows, as written to metrics.csv by the command-line runner.
rows = list(report.rows())
print(f"\nscorer emits {len(rows)} long-format rows, e.g. {rows[0]}")
