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
