"""Property tests of the engine's certified selection cut (``_cut``).

``_cut`` keeps each row's ``t`` smallest scores and flags the rows whose
cut rounding could have got wrong.  Rows up to ``2 ** _ID_BITS`` wide
rank on packed int64 keys (the score's bits with the column in the low
bits), wider rows on ``argpartition``.  With a zero margin the scores
given are the truth, so a certified row must keep no score above one it
dropped, whatever the packing truncated.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kdtree.engine import _EPS, _ID_BITS, _MARGIN_ULPS, _cut

FIELD = 1 << _ID_BITS


@st.composite
def cuts(draw):
    """``(scores, t)``: rows of awkward scores and a cut depth."""
    t = draw(st.integers(1, 16))
    width = draw(st.one_of(
        st.integers(t + 1, t + 40),
        # 2^b and 2^b + 1: both sides of a key-width boundary.
        st.builds(lambda b, d: (1 << b) + d,
                  st.integers(t.bit_length(), _ID_BITS), st.integers(0, 1)),
        st.just(FIELD + 1),                        # the argpartition side
    ))
    n_rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_rows):
        style = rng.integers(0, 3)
        if style == 0:
            # Spread over many binades, subnormals included.
            lo = rng.uniform(-1074, 1000)
            row = 2.0 ** rng.uniform(lo, min(lo + rng.uniform(0, 300), 1020), width)
        elif style == 1:
            # A few ulps apart: many scores share a truncation step.
            base = 2.0 ** rng.uniform(-1060, 60)
            row = base + rng.integers(0, 4 * width, width) * np.spacing(base)
        else:
            # Exact duplicates.
            row = rng.choice(rng.random(rng.integers(1, 6)) * 10.0, width)
        # Cancellation just below 0, signed and unsigned zeros.
        low = rng.random(width) < rng.choice([0.0, 0.05, 0.5])
        row[low] = -rng.choice([0.0, 5e-324, 1e-300, 1e-17, 3e-14], low.sum())
        row[rng.random(width) < 0.03] = 0.0
        # Padding: some rows end, or are, all inf.
        if rng.random() < 0.3:
            row[rng.integers(0, width + 1):] = np.inf
        rows.append(rng.permutation(row))
    return np.array(rows), t


def _check(scores, t, margin=None):
    truth = scores.copy()
    n_rows, width = truth.shape
    margin = np.zeros(n_rows) if margin is None else margin
    top, kept, risky = _cut(scores, margin, t)

    assert top.shape == kept.shape == (n_rows, t)
    assert ((top >= 0) & (top < width)).all()
    assert all(np.unique(r).size == t for r in top)

    taken = np.take_along_axis(truth, top, axis=1)
    for r in np.setdiff1d(np.arange(n_rows), risky):
        dropped = np.ones(width, dtype=bool)
        dropped[top[r]] = False
        assert taken[r].max() <= truth[r, dropped].min(), r

    # A row with at most t finite scores has nothing to be unsure of.
    padded = np.flatnonzero(np.isinf(np.sort(truth, axis=1)[:, t]))
    assert not np.isin(padded, risky).any()

    # The scores returned are the clamped ones, truncated by the packing.
    clamped = np.maximum(taken, 0.0)
    assert (kept <= clamped).all()
    if width > FIELD:
        assert np.array_equal(kept, taken)
    else:
        b = (width - 1).bit_length()
        fin = np.isfinite(clamped)
        assert (clamped[fin] - kept[fin] < (1 << b) * np.spacing(kept[fin])).all()
    return risky


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cuts())
def test_certified_rows_keep_their_smallest_scores(case):
    scores, t = case
    _check(scores, t)


def test_truncation_term_flags_a_gap_the_packing_widened():
    """A kept score just below a packing step looks 2^b ulps further
    from the cut than it is: only the truncation term of the slack
    sees that the true gap is inside the margin."""
    t, width = 4, 256
    b = (width - 1).bit_length()
    u = np.spacing(1.0)
    beyond = 1.0 + (1 << b) * u          # on a packing step
    last_kept = beyond - u               # truncates a whole step down
    row = np.concatenate([[0.25, 0.5, 0.75, last_kept, beyond],
                          4.0 + np.arange(width - 5.0)])
    margin = 100 * u                     # true gap (1 ulp) < margin < truncated gap
    truncated_gap = beyond - 1.0
    assert truncated_gap > margin + _MARGIN_ULPS * _EPS * beyond
    scores = np.random.default_rng(0).permutation(row)[None, :]
    risky = _check(scores, t, np.array([margin]))
    assert risky.tolist() == [0]


def test_wide_rows_take_argpartition_and_keep_exact_scores():
    rng = np.random.default_rng(5)
    scores = rng.random((3, FIELD + 7))
    truth = scores.copy()
    top, kept, risky = _cut(scores, np.zeros(3), 6)
    assert np.array_equal(scores, truth)           # not packed in place
    assert np.array_equal(kept, np.take_along_axis(truth, top, axis=1))
    assert risky.size == 0
