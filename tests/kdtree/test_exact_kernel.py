"""The engine's exact distance kernel gives the reference kernel's bits.

The per-query loop paths, ``radius_reference`` and ``radius_bruteforce``
define the reported distances as ``np.sqrt((diff * diff).sum(axis=-1))``.
The batched kernels call ``_exact_distances``, which sums the three
squares column by column because the reduction over a length-3 axis is
several times slower.  The loop/batched bit-identity rests on the two
giving the same bits; if a NumPy release reorders the 3-term reduction,
this test fails first.
"""

import numpy as np
import pytest

from repro.kdtree.engine import _exact_distances


def _reference(q, c):
    diff = q - c
    return np.sqrt((diff * diff).sum(axis=-1))


def _pairs(rng, n):
    """Query and candidate rows covering the kernel's awkward inputs."""
    offset = rng.choice([0.0, 1.0, 1e3, 1e5, 1e6], size=(n, 1)) * rng.choice([-1, 1], (n, 3))
    q = offset + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 3, (n, 1))
    step = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-12, 4, (n, 1))
    c = q + step
    kind = rng.integers(0, 6, size=n)
    c[kind == 0] = q[kind == 0]                            # exactly-zero differences
    sub = kind == 1                                        # subnormal differences
    q[sub] = rng.choice([-1, 1], (sub.sum(), 3)) * 2.0 ** -1060
    c[sub] = q[sub] + rng.choice([-3, -1, 1, 2], (sub.sum(), 3)) * 2.0 ** -1074
    small = kind == 2                                      # subnormal squares
    q[small] = rng.normal(size=(small.sum(), 3)) * 2.0 ** -520
    c[small] = q[small] + rng.normal(size=(small.sum(), 3)) * 2.0 ** -530
    mixed = kind == 3                                      # one equal coordinate
    j = rng.integers(0, 3)
    c[mixed, j] = q[mixed, j]
    return q, c


@pytest.mark.parametrize("seed", range(4))
def test_two_d_rows_match_the_reference_kernel(seed):
    q, c = _pairs(np.random.default_rng(seed), 20_000)
    got = _exact_distances(q, c)
    want = _reference(q, c)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_three_d_broadcast_matches_the_reference_kernel(seed):
    rng = np.random.default_rng(100 + seed)
    q, c = _pairs(rng, 6_000)
    q = q.reshape(500, 12, 3)[:, :1, :]                    # (G, 1, 3) rows
    c = c.reshape(500, 12, 3)                              # (G, t, 3) candidates
    got = _exact_distances(q, c)
    assert got.shape == (500, 12)
    assert np.array_equal(got, _reference(q, c))
    # Either operand order gives the same bits, as (a - b)^2 == (b - a)^2.
    assert np.array_equal(_exact_distances(c, q), got)


def test_zero_subnormal_and_signed_zero_rows():
    tiny = 2.0 ** -1074
    q = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [tiny, 0.0, 0.0],
                  [1e6, -1e6, 1e6], [-1e6, 1e6, -1e6]])
    c = np.array([[0.0, -0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -tiny, tiny],
                  [1e6, -1e6, 1e6 + 2.0 ** -33], [-1e6 - 1e-10, 1e6, -1e6]])
    got = _exact_distances(q, c)
    assert np.array_equal(got, _reference(q, c))
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert got[1] == 0.0 and not np.signbit(got[1])
