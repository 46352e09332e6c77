"""Fitting the hierarchical model and watching partial pooling at work.

Simulates one small experiment where the true rates are all equal, then
compares the plain per-cell proportions against the hierarchical posterior
means: pooling pulls the noisy proportions toward their common mean, which
is exactly what cuts spurious differences in later hypothesis tests.
"""

import numpy as np

from hbab import (
    CountData,
    ExperimentSpec,
    Factor,
    SamplerConfig,
    build_design_matrix,
    fit_posterior,
    hb_estimate,
    mle_estimates,
    posterior_summary,
)

spec = ExperimentSpec(
    content_factors=(Factor("title", ("a", "b")), Factor("image", ("x", "y"))),
    context_factors=(Factor("country", ("US", "CA")),),
)
X = build_design_matrix(spec, interaction_order=2)

rng = np.random.default_rng(4)
true_rate = 0.30
assignments = np.full(X.rows, 60)
data = CountData(assignments, rng.binomial(assignments, true_rate))

samples = fit_posterior(
    data, X, SamplerConfig(chains=2, warmup_draws=300, kept_draws=300, seed=1)
)
# Diagnostics cover the quantities the data identify: every cell's logit,
# sigma and mu + epsilon. The coefficients beta[j] are identified only
# through the prior and can mix slowly even when every cell rate is fine.
diag = samples.diagnostics
print(f"convergence over {len(diag.quantities)} identified quantities "
      f"({diag.quantities[0]} ... {diag.quantities[-1]}):")
print("  max split R-hat =", round(float(diag.split_r_hat.max()), 3),
      "| min ESS =", int(diag.effective_sample_size.min()),
      "| divergences =", diag.divergence_count)

# One record per estimator: per-cell means and variances, and for the
# hierarchical estimate the [cells, draws] matrix of posterior rate draws.
hb = hb_estimate(samples, X)
plain = mle_estimates(data)
print(f"\ntrue rate everywhere: {true_rate}")
print(f"{'cell':>4} {'plain':>7} {'pooled':>7}")
for k in range(X.rows):
    print(f"{k:>4} {plain[k].mean:>7.3f} {hb[k].mean:>7.3f}")

print(f"\ncross-cell spread: plain sd = {plain.means.std():.4f}, "
      f"pooled sd = {hb.means.std():.4f}")

print("\nshared-level posteriors:")
for label in ("mu", "sigma", "epsilon"):
    s = posterior_summary(samples, label)
    print(f"  {label:>8}: mean {s.mean:+.3f}  95% CI [{s.q2_5:+.3f}, {s.q97_5:+.3f}]")
