"""
Two-period regimes: target, regress, target again
==================================================

For the always-untreated regime over two decision points the targeted
estimator alternates fluctuation and regression: fluctuate the final
outcome model under the cumulative weights, regress the result onto the
baseline covariates, fluctuate again under the first-period weights,
then average. Each step leaves a certificate; and when the second
period is trivial the whole pipeline collapses to the one-period
answer, exactly.
"""

import json
import pathlib

import numpy as np

from eiftools.data import Dataset, LongDataset
from eiftools.estimators import tmle
from eiftools.longitudinal import (fit_sequential_nuisances, one_step_long,
                                   tmle_long)
from eiftools.nuisance import LearnerSpec, fit_nuisance
from eiftools.simulation import DgpConfig, generate, replicate_seed

# draw one two-period dataset from the shipped longitudinal generator
config_path = (pathlib.Path(__file__).parent.parent
               / "tests" / "fixtures" / "dgp_long.json")
dgp = DgpConfig.from_dict(json.loads(config_path.read_text()))
data = generate(dgp, 800, replicate_seed(3, 0))

nuis = fit_sequential_nuisances(data)
fit = tmle_long(data, nuis, variant="weighted_logistic")
d = fit.diagnostics
print(f"theta_hat = {fit.psi_hat:.4f}  (se {fit.se:.4f})")
print(f"step 3 residual: {d['step3_score_residual']:.2e} on weight sum "
      f"{d['step3_weight_sum']:.1f}")
print(f"step 5 residual: {d['step5_score_residual']:.2e} on weight sum "
      f"{d['step5_weight_sum']:.1f}")
print(f"one_step_long:   {one_step_long(data, nuis).psi_hat:.4f}")

# reduction check: make the second period vacuous (nobody treated at
# the second point, no second-period covariates) and compare against
# the one-period estimator on the same rows
rng = np.random.default_rng(21)
n = 300
w = rng.uniform(size=n)
p_untreated = 1.0 / (1.0 + np.exp(-(-0.4 + 1.1 * w)))
a = (rng.random(n) >= p_untreated).astype(float)
y = 1.0 + 0.8 * w - 0.5 * a + rng.normal(scale=0.6, size=n)

point = Dataset.from_columns({"w": w}, a, y)
as_long = LongDataset.from_columns({"w": w}, a, {}, np.zeros(n), y)

learner = LearnerSpec.parse("glm_main_terms")
point_fit = tmle(point, fit_nuisance(point, learner, learner),
                 "weighted_linear")
long_fit = tmle_long(as_long, fit_sequential_nuisances(as_long),
                     variant="weighted_linear")

print(f"\none-period  psi_hat: {point_fit.psi_hat:.12f}  se {point_fit.se:.12f}")
print(f"two-period  psi_hat: {long_fit.psi_hat:.12f}  se {long_fit.se:.12f}")
print(f"second-period weights degenerate (all 1): "
      f"{long_fit.diagnostics['g1_degenerate']}")
