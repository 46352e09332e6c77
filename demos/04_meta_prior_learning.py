"""Learning the effect-size dispersion from past experiments.

Each finished comparison contributes one observed effect and its standard
error. Modeling those as Normal(0, noise^2 + tau) and learning tau gives a
data-driven setting for the alternative-hypothesis variance in future
sequential tests: the platform's own history says how big effects tend to
be.
"""

import numpy as np

from hbab import TauSpec, learn_tau
from hbab.seqtest import bayes_factor

rng = np.random.default_rng(7)

# A synthetic corpus of 300 past experiments: true dispersion 0.01, each
# measured with its own noise level. A corpus is two arrays: the observed
# effects and their standard errors.
tau_true = 0.01
noise = rng.uniform(0.01, 0.05, 300)
deltas = rng.normal(0.0, np.sqrt(noise**2 + tau_true))

learnt = learn_tau(deltas, noise)
print(f"true dispersion: {tau_true}")
print(f"learnt: mean {learnt.posterior_mean:.4f}, "
      f"95% CI [{learnt.q2_5:.4f}, {learnt.q97_5:.4f}]")
print(f"plug-in value for testing: {learnt.point_value_for_testing:.4f}")

# What the learnt value changes downstream: evidence for one observed
# difference under different tau settings.
diff, diff_var = 0.04, 1e-4
print(f"\nobserved difference {diff} with variance {diff_var}:")
for spec in (TauSpec.fixed(0.1), TauSpec.learnt(learnt.point_value_for_testing)):
    tau = spec.value
    k = bayes_factor(diff, diff_var, tau)
    print(f"  tau={tau:<8.4f} ({spec.kind:<6}) -> K = {k:>10.1f}, "
          f"sequential p = {min(1.0, 1.0 / k):.4f}")

# A corpus with no real effects: the posterior collapses toward zero and
# the plug-in value is floored.
floored = learn_tau(np.zeros(50), np.full(50, 1e-5))
print(f"\nall-null corpus: posterior mean {floored.posterior_mean:.2e}, "
      f"plug-in floored at {floored.point_value_for_testing:.0e}")
