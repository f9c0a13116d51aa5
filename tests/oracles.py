"""Reference implementations the tests check the library against.

A plain module, not a test module, so that an error in one test module
cannot stop another from being collected.
"""

from __future__ import annotations

import numpy as np

from situsearch.errors import InvalidInputError
from situsearch.gaussian import MultivariateGaussian


def marginal(dist: MultivariateGaussian, keep: list[str]) -> MultivariateGaussian:
    """Marginal over the kept labels, preserving the distribution's own order.

    The oracle of the conditioning tests and of acceptance criteria 1 and 8.
    """
    if not keep:
        raise InvalidInputError("must keep at least one dimension")
    wanted = set(dist.indices(keep))
    idx = [i for i in range(dist.dim) if i in wanted]
    return MultivariateGaussian(
        dims=tuple(dist.dims[i] for i in idx),
        mean=dist.mean[idx],
        cov=dist.cov[np.ix_(idx, idx)],
        epsilon=dist.epsilon,
    )


def draw(rng: np.random.Generator, searched, size: int):
    """The random calls of ``size`` iterations of the per-proposal loop over ``searched``.

    One ``rng.integers``, ``rng.random(3)`` and ``sample_alpha_gamma`` call
    per iteration, in the loop's order: the oracle of the block decoder,
    ``search._draw``. Returns each iteration's index into ``searched``, its
    three location uniforms and its (alpha, gamma) draw, as arrays.
    """
    picks, uniforms, descriptors = [], [], []
    n = len(searched)
    for _ in range(size):
        k = int(rng.integers(n))
        picks.append(k)
        uniforms.append(rng.random(3))
        descriptors.append(searched[k].sample_alpha_gamma(rng))
    return (
        np.array(picks, dtype=np.intp),
        np.reshape(uniforms, (size, 3)),
        np.reshape(descriptors, (size, 2)),
    )
