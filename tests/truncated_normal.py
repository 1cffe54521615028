"""Scalar reference for the truncated-normal draws of `lcodr.uncertainty`.

Plain rejection sampling, one draw at a time from a numpy Generator. The
batched, counter-based sampler that Monte-Carlo runs
(`uncertainty.truncated_normals`) is compared with it in distribution by
tests/test_uncertainty.py and tests/test_acceptance.py.
"""

import numpy as np


def sample_truncated_normal(mean: float, sigma: float, z: float,
                            rng: np.random.Generator) -> float:
    """One draw from Normal(mean, sigma) conditioned on +/- z sigma.

    Rejection sampling; at z = 1.285 roughly 80 % of proposals are
    accepted. sigma = 0 returns the mean exactly.
    """
    if sigma == 0.0:
        return mean
    bound = z * sigma
    while True:
        x = rng.normal(mean, sigma)
        if abs(x - mean) <= bound:
            return x
