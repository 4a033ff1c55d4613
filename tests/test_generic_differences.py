"""The generic (non-separable) lemma 1/2 quantities and ``lhs_double`` take
their differences by slicing one table per sub-block.  They must equal,
bit for bit, sums over whole ``delta_rr``/``delta_r0``/``delta_0r`` grids
(kept here as the twin), at every sub-block size."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublesine import (
    delta_0r,
    delta_r0,
    delta_r0_grid,
    delta_rr,
    delta_rr_grid,
    from_expression,
    from_table,
    ksum,
    lemma1_quantity,
    lemma2_quantities,
)
from doublesine import differences
from doublesine.membership import lhs_double

from conftest import dense_twin


def _complex_table():
    rng = np.random.default_rng(11)
    return rng.standard_normal((23, 19)) + 1j * rng.standard_normal((23, 19))


SEQUENCES = {
    "twin": dense_twin(),
    "nonsep": from_expression("nonsep", "1/(j*k*(j+k))"),
    "complex": from_table("complex", _complex_table()),
    "one": from_expression("one", "1"),
}
LEMMA1 = ((1, 1, 24), (3, 5, 30), (4, 2, 17))            # m, n, horizon
LEMMA2 = ((1, 1, 12, 24), (3, 2, 20, 17), (2, 5, 9, 31))  # m, n, sup, sum horizon
LHS = tuple((r, m, n) for r in (1, 2, 3) for m, n in ((1, 1), (4, 7), (9, 3), (16, 16)))


# --- the twin: whole grids of shifted delta_* calls --------------------------

def lemma1_twin(c, m, n, horizon):
    j = np.arange(m, horizon + 1, dtype=np.int64)[:, None]
    k = np.arange(n, horizon + 1, dtype=np.int64)[None, :]
    return m * n * float(ksum(np.abs(delta_rr(c, 2, j, k))))


def lemma2_twin(c, m, n, sup_horizon, sum_horizon):
    def one_sided(swap, lo_sum, lo_sup, scale):
        sup_idx = np.arange(lo_sup, sup_horizon + 1, dtype=np.int64)
        j = np.arange(lo_sum, sum_horizon + 1, dtype=np.int64)
        d = (delta_0r(c, 2, sup_idx[None, :], j[:, None]) if swap
             else delta_r0(c, 2, j[:, None], sup_idx[None, :]))
        # every column in row order, a single column too
        sums = np.cumsum(np.abs(d), axis=0)[-1]
        return scale * float(np.max(sup_idx.astype(np.float64) * sums))

    return one_sided(False, m, n, m), one_sided(True, n, m, n)


def lhs_double_twin(c, r, m, n):
    j = np.arange(m, 2 * m, dtype=np.int64)[:, None]
    k = np.arange(n, 2 * n, dtype=np.int64)[None, :]
    return float(ksum(np.abs(delta_rr(c, r, j, k))))


# Sub-block settings, in rows of the rectangle's width: one row, a few
# rows, and the default cell count.  None of them may change a bit.
SUB_BLOCKS = {"row": 1, "rows": 3, "default": None}


def _set_sub_block(monkeypatch, sub, width):
    if SUB_BLOCKS[sub] is not None:
        monkeypatch.setattr(differences, "_SUB_BLOCK_CELLS", SUB_BLOCKS[sub] * width)


# --- library against twin ------------------------------------------------------

@pytest.mark.parametrize("sub", sorted(SUB_BLOCKS))
@pytest.mark.parametrize("name", sorted(SEQUENCES))
@pytest.mark.parametrize("m, n, horizon", LEMMA1)
def test_lemma1_matches_twin(monkeypatch, name, m, n, horizon, sub):
    c = SEQUENCES[name]
    _set_sub_block(monkeypatch, sub, horizon - n + 1)
    got = lemma1_quantity(c, m, n, horizon=horizon).value
    assert got.hex() == lemma1_twin(c, m, n, horizon).hex()


@pytest.mark.parametrize("sub", sorted(SUB_BLOCKS))
@pytest.mark.parametrize("name", sorted(SEQUENCES))
@pytest.mark.parametrize("m, n, sup_h, sum_h", LEMMA2)
def test_lemma2_matches_twin(monkeypatch, name, m, n, sup_h, sum_h, sub):
    c = SEQUENCES[name]
    _set_sub_block(monkeypatch, sub, sup_h - n + 1)
    qa, qb = lemma2_quantities(c, m, n, sup_horizon=sup_h, sum_horizon=sum_h)
    ta, tb = lemma2_twin(c, m, n, sup_h, sum_h)
    assert (qa.value.hex(), qb.value.hex()) == (ta.hex(), tb.hex())


@pytest.mark.parametrize("sub", sorted(SUB_BLOCKS))
def test_lemma2_single_column_matches_twin(monkeypatch, sub):
    # n = sup_horizon leaves one column, which numpy's sum(axis=0) would add
    # pairwise; it is added in row order like every wider column
    c = SEQUENCES["nonsep"]
    _set_sub_block(monkeypatch, sub, 1)
    qa, qb = lemma2_quantities(c, 2, 9, sup_horizon=9, sum_horizon=300)
    ta, tb = lemma2_twin(c, 2, 9, 9, 300)
    assert (qa.value.hex(), qb.value.hex()) == (ta.hex(), tb.hex())


@pytest.mark.parametrize("sub", sorted(SUB_BLOCKS))
@pytest.mark.parametrize("name", sorted(SEQUENCES))
@pytest.mark.parametrize("r, m, n", LHS)
def test_lhs_double_matches_twin(monkeypatch, name, r, m, n, sub):
    c = SEQUENCES[name]
    _set_sub_block(monkeypatch, sub, n)
    assert lhs_double(c, r, m, n).hex() == lhs_double_twin(c, r, m, n).hex()


# --- frozen values -------------------------------------------------------------

def _digest(c) -> str:
    values = [lemma1_quantity(c, m, n, horizon=h).value for m, n, h in LEMMA1]
    for m, n, sup_h, sum_h in LEMMA2:
        values.extend(q.value for q in
                      lemma2_quantities(c, m, n, sup_horizon=sup_h, sum_horizon=sum_h))
    values.extend(lhs_double(c, r, m, n) for r, m, n in LHS)
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


# sha256 of the hex values of every case above, frozen from the
# four-evaluation loops before they took one table per block.
FROZEN = {
    "complex": "81982c71d8eea85e2e5ef8cfcea2c5b65dc61d54a6a7c064a72c532e8b5cfc85",
    "nonsep": "41405e3110ea76e756bde277b3a34baeec669b671e6ce10c7a7caca0bc5d0524",
    "one": "68bcc71ca5f1cf3a356950208e660b757449deb69fde22427e19f8dcb65e5aa7",
    "twin": "84a679c2297cba7c4b21db1b2efc1f91e43b1af54252cd361876cedd757b6d0d",
}


@pytest.mark.parametrize("sub_cells", [1, 100, None])
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_generic_quantities_are_frozen(monkeypatch, name, sub_cells):
    if sub_cells is not None:
        monkeypatch.setattr(differences, "_SUB_BLOCK_CELLS", sub_cells)
    assert _digest(SEQUENCES[name]) == FROZEN[name]


# --- the reducer itself ----------------------------------------------------------

def _sum_or_error(f):
    try:
        return f().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 90),
       st.sampled_from(["none", "nan", "inf", "both", "huge", "zeros", "tiny"]),
       st.sampled_from(["column", "rect", "square"]),
       st.lists(st.integers(1, 42), min_size=1, max_size=6, unique=True))
# start 1's range holds inf and -inf: the pass is built, and only its read raises
@example(seed=0, rows=6, width=4, special="both", shape="square", starts=[1, 3])
@settings(max_examples=60, deadline=None)
def test_blocked_sum_is_ksum_of_the_whole_rectangle(seed, rows, width, special, shape, starts):
    # signed values over 40 binades, read from drawn starts on one column, a
    # rectangle or the square, each range against ksum of it alone, at every
    # sub-block size
    width = {"column": 1, "rect": width, "square": rows}[shape]
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(rows, width)) * 2.0 ** rng.integers(-20, 20, size=(rows, width))
    if special == "zeros":
        t[: rows // 2] = 0.0
    elif special == "tiny":   # sub-blocks below the range extraction handles
        t[: rows // 2] *= 2.0 ** -1000
    elif special != "none":
        values = {"nan": [np.nan], "inf": [np.inf], "both": [np.inf, -np.inf],
                  "huge": [1e308, 1e308]}[special]
        t.reshape(-1)[rng.choice(t.size, size=min(len(values), t.size), replace=False)] = (
            values[:t.size])
    starts = sorted(starts)
    square = shape == "square"
    lo = starts[0]
    block = lambda j0, j1: t[j0 - 1:j1, lo - 1:] if square else t[j0 - 1:j1]  # noqa: E731
    want = {m: _sum_or_error(lambda: float(ksum(t[m - 1:, m - 1:] if square else t[m - 1:])))
            for m in starts}
    saved = differences._SUB_BLOCK_CELLS
    try:
        for sub_cells in (1, 3 * width, 600, saved):
            differences._SUB_BLOCK_CELLS = sub_cells
            read = differences._nested_sums(starts, rows, block, width, square=square)
            assert {m: _sum_or_error(lambda: read(m)) for m in starts} == want, sub_cells
    finally:
        differences._SUB_BLOCK_CELLS = saved


# --- the working set -----------------------------------------------------------

@pytest.mark.parametrize("quantity", [
    lambda c: lemma1_quantity(c, 4, 4, horizon=512),
    lambda c: lemma2_quantities(c, 4, 4, sup_horizon=256, sum_horizon=512),
], ids=["lemma1", "lemma2"])
def test_dense_lemma_scans_stream_in_sub_blocks(quantity):
    # the whole rectangle is about 2 MB of float64 differences, so only its
    # sub-blocks keep the scan under 1 MB
    c = SEQUENCES["nonsep"]
    quantity(from_expression("warm", "1/(j*k*(j+k))"))  # first-use caches stay out
    tracemalloc.start()
    try:
        quantity(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- the grid operators themselves ---------------------------------------------

@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 7),
       st.integers(1, 6), st.integers(0, 7), st.booleans())
@settings(max_examples=60, deadline=None)
def test_grid_operators_match_pointwise(j0, r, rows, k0, cols, transpose):
    c = SEQUENCES["complex"]
    j = np.arange(j0, j0 + rows + 1)[:, None]
    k = np.arange(k0, k0 + cols + 1)[None, :]
    rr = delta_rr_grid(c, r, j0, j0 + rows, k0, k0 + cols)
    assert np.array_equal(rr, delta_rr(c, r, j, k))
    r0 = delta_r0_grid(c.T if transpose else c, r, j0, j0 + rows, k0, k0 + cols)
    assert np.array_equal(r0, delta_0r(c, r, k, j) if transpose else delta_r0(c, r, j, k))
    assert r0.flags.c_contiguous


def test_sub_blocks_cover_in_order(monkeypatch):
    monkeypatch.setattr(differences, "_SUB_BLOCK_CELLS", 10)
    assert list(differences._sub_blocks(3, 12, 4)) == [(3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
    assert list(differences._sub_blocks(3, 5, 100)) == [(3, 3), (4, 4), (5, 5)]
    assert list(differences._sub_blocks(3, 2, 4)) == []
