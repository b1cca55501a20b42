"""Deterministic random sub-streams.

Every random draw in the package comes from a generator built here.  A
64-bit master seed plus a (domain, index) pair is fed to numpy's
SeedSequence as a spawn key, so distinct components get independent
streams even when they share the master seed, and the stream consumed by
component i never depends on whether components 0..i-1 were generated at
all.  That property is what makes parallel and serial runs byte-identical
and per-sample statistics prefix-stable.

Domain codes (fixed, part of the on-disk reproducibility contract):

    0  network layer weights        index = layer number, 0-based
    1  problem-instance components  index = component code
    2  estimator sample draws       index = sample counter
    3  solver starting point        index = 0
"""

import numpy as np

from .errors import check_count

DOMAIN_NET = 0
DOMAIN_INSTANCE = 1
DOMAIN_SAMPLE = 2
DOMAIN_X0 = 3


def sub_rng(seed, domain, index=0):
    """Return the Generator for stream (seed, domain, index).

    Pure function of its arguments: calling it twice gives two generators
    that produce identical draws.  The seed follows the count rule with
    least 0, since SeedSequence takes no negative seed.
    """
    ss = np.random.SeedSequence(entropy=check_count(seed, "seed", least=0),
                                spawn_key=(int(domain), int(index)))
    return np.random.default_rng(ss)


def unit_vector(rng, n):
    """Uniform unit vector in R^n, n a count, from rng; redraws a zero Gaussian."""
    while True:
        v = rng.standard_normal(check_count(n, "unit vector dimension"))
        nv = np.linalg.norm(v)
        if nv > 0.0:
            return v / nv
