"""Reference implementations the tests check the library against.

A plain module, not a test module, so that an error in one test module
cannot stop another from being collected.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

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

    One ``rng.integers``, ``rng.random(3)`` and ``alpha_gamma.sample`` call per
    iteration, in the loop's order: the oracle of the block decoder,
    ``search._draw``. Returns each iteration's index into ``searched``, its
    three location uniforms and its (alpha, gamma) draw, as arrays, and the
    first iteration whose pick took more than one 32-bit half-word of a
    PCG64 ``rng`` (numpy rejected one), or None.
    """
    picks, uniforms, descriptors, rejected = [], [], [], None
    n = len(searched)
    for i in range(size):
        before = rng.bit_generator.state
        k = int(rng.integers(n))
        if rejected is None and n > 1 and half_words_taken(before, rng.bit_generator.state) > 1:
            rejected = i
        picks.append(k)
        uniforms.append(rng.random(3))
        descriptors.append(searched[k].alpha_gamma.sample(rng))
    arrays = (
        np.array(picks, dtype=np.intp),
        np.reshape(uniforms, (size, 3)),
        np.reshape(descriptors, (size, 2)),
    )
    return arrays, rejected


def exact_cells(grid: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The cells uniforms in [0, 1) draw from ``grid`` by the cumulative sum of its cells.

    ``min(searchsorted(cumsum(grid), u * cdf[-1], "right"), n - 1)``, as
    every location map once drew: the oracle of ``GaussianMap``'s search,
    which draws without the grid.
    """
    cdf = np.cumsum(grid.ravel())
    return np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], "right"), cdf.size - 1)


class LoopPCG64(np.random.PCG64):
    """PCG64 under another name, on which ``search.run_image`` draws no block:
    each of its runs' iterations is a single ``sample_proposal`` draw."""


def loop_only(rng: np.random.Generator) -> np.random.Generator:
    """A generator on ``rng``'s stream whose runs the per-proposal loop makes.

    A PCG64 ``rng``'s state goes to a LoopPCG64; a generator on any other bit
    generator is returned as it is, since blocks decline it already.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        return rng
    bitgen = LoopPCG64()
    bitgen.state = {**rng.bit_generator.state, "bit_generator": "LoopPCG64"}
    return np.random.Generator(bitgen)


def half_words_taken(before: dict, after: dict) -> int:
    """The 32-bit half-words a PCG64 generator handed out between two of its states.

    Two per 64-bit word it read, plus the buffered half-word at ``before``
    if it was used, less the one buffered at ``after``. A pick that numpy
    accepts first time takes one; each rejected half-word adds one, so a
    zero word read for a pick among three takes three. A rejection does not
    always show in ``has_uint32``: an even number of them toggles it as an
    accepted pick does.
    """
    probe = np.random.PCG64()
    probe.state = before
    for words in range(16):
        if probe.state["state"] == after["state"]:
            return 2 * words + before["has_uint32"] - after["has_uint32"]
        probe.random_raw()
    raise AssertionError("the generator read more than 15 words for one pick")


def gaussian_filter(grid: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's reflecting Gaussian filter: the oracle of ``salience.smooth_grid``."""
    return ndimage.gaussian_filter(np.asarray(grid, dtype=float), sigma=sigma, mode="reflect")


def zoom(grid: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """scipy's bilinear zoom of ``grid`` to ``shape``: the oracle of ``salience._resize``.

    scipy rounds ``n * (m / n)`` to get each output side, which is ``m``
    for every pair of sides the grids here can have.
    """
    factors = (shape[0] / grid.shape[0], shape[1] / grid.shape[1])
    out = ndimage.zoom(grid, factors, order=1, mode="nearest", grid_mode=True)
    assert out.shape == shape
    return out
