"""Block construction against dense linear algebra and combinatorics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from fcspin import (
    ModelParams,
    build_block,
    log_multiplicity,
    multiplicity,
    parity_split,
    sector_spins,
)
from fcspin.spin_algebra import (off_diagonal_scale, sector_multiplicities,
                                 sub_block_elements)
from tests.conftest import draw_params


def dense_block(blk) -> np.ndarray:
    """Dense symmetric matrix from the stored diagonals."""
    dim = blk.diag.size
    h = np.diag(blk.diag)
    if blk.off2.size:
        h += np.diag(blk.off2, 2) + np.diag(blk.off2, -2)
    return h


# ---------------------------------------------------------------------------
# multiplicities


@pytest.mark.parametrize("n", range(1, 21))
def test_multiplicity_sum_rule(n):
    # sum over sectors of Y(n, S) * (2S + 1) must exhaust the 2^n states
    total = sum(multiplicity(n, two_s) * (two_s + 1) for two_s in sector_spins(n))
    assert total == 2**n


def test_multiplicity_frozen_n4():
    assert multiplicity(4, 4) == 1
    assert multiplicity(4, 2) == 3
    assert multiplicity(4, 0) == 2


def test_sector_spins_parity_of_n():
    assert sector_spins(6) == [6, 4, 2, 0]
    assert sector_spins(7) == [7, 5, 3, 1]


def test_log_multiplicity_matches_exact_counts():
    for n in (3, 10, 24):
        for two_s in sector_spins(n):
            assert math.isclose(
                math.exp(log_multiplicity(n, two_s)),
                multiplicity(n, two_s),
                rel_tol=1e-12,
            )


def test_sector_multiplicities_match_the_binomials():
    # the recurrence against two math.comb calls per sector
    for n in [*range(1, 41), 399, 400, 1001, 1999, 2000]:
        got = sector_multiplicities(n)
        assert got == [multiplicity(n, ts) for ts in sector_spins(n)], n
        assert all(type(y) is int for y in got)


def test_log_multiplicity_no_overflow():
    val = log_multiplicity(2000, 0)
    assert math.isfinite(val) and val > 1000.0


# ---------------------------------------------------------------------------
# single-sector blocks


def test_frozen_n2_spectrum():
    # n = 2, v = (1, 1/2, 0), b = 0, worked out by hand:
    # triplet {+1/8, -1/8, -3/8}, singlet {+3/8}
    p = ModelParams(n=2, b=0.0, v_x=1.0, v_y=0.5, v_z=0.0)
    trip = np.sort(eigh(dense_block(build_block(p, 2)), eigvals_only=True))
    sing = build_block(p, 0).diag
    assert np.allclose(trip, [-0.375, -0.125, 0.125], atol=1e-15)
    assert np.allclose(sing, [0.375], atol=1e-15)


def test_block_shapes_and_multiplicity():
    p = ModelParams(n=8, b=0.7, v_x=1.0, v_y=-0.2, v_z=0.4)
    for two_s in sector_spins(8):
        blk = build_block(p, two_s)
        assert blk.diag.size == two_s + 1
        assert blk.off2.size == max(two_s - 1, 0)
        assert blk.multiplicity == multiplicity(8, two_s)


def test_xxz_blocks_are_diagonal():
    p = ModelParams(n=7, b=0.4, v_x=1.3, v_y=1.3, v_z=0.2)
    for two_s in sector_spins(7):
        blk = build_block(p, two_s)
        assert np.all(blk.off2 == 0.0)


def test_block_scale_covariance():
    rng = np.random.default_rng(7)
    p = draw_params(rng, 6)
    s = 3.7
    for two_s in sector_spins(6):
        a, b = build_block(p, two_s), build_block(p.scaled(s), two_s)
        assert np.allclose(b.diag, s * a.diag, rtol=1e-14)
        assert np.allclose(b.off2, s * a.off2, rtol=1e-14)


def test_field_enters_linearly_on_the_diagonal():
    p0 = ModelParams(n=6, b=0.0, v_x=1.0, v_y=0.3, v_z=-0.2)
    p1 = p0.with_field(0.9)
    for two_s in sector_spins(6):
        b0, b1 = build_block(p0, two_s), build_block(p1, two_s)
        m = np.arange(-two_s / 2, two_s / 2 + 1)
        assert np.allclose(b1.diag - b0.diag, 0.9 * m, atol=1e-14)
        assert np.array_equal(b1.off2, b0.off2)


def _closed_form_block(p: ModelParams, two_s: int):
    """Diagonal and S_+^2 elements as build_block wrote them inline."""
    n, dim, s = p.n, two_s + 1, two_s / 2.0
    m = (np.arange(dim) * 2 - two_s) / 2.0
    vx, vy, vz = p.v_x, p.v_y, p.v_z
    diag = p.b * m - (0.5 * (vx + vy) * (s * (s + 1) - m * m) + vz * m * m
                      - 0.25 * n * (vx + vy + vz)) / n
    mm = m[:-2]
    ladder = np.sqrt((s - mm) * (s + mm + 1) * (s - mm - 1) * (s + mm + 2))
    return diag, ladder, -(vx - vy) / (4.0 * n) * ladder


def _element_draws():
    rng = np.random.default_rng(13)
    draws = [ModelParams(n=n, b=0.0, v_x=1.0, v_y=-0.7, v_z=-0.4)
             for n in (1, 2, 3)]
    draws.append(ModelParams(n=9, b=0.6, v_x=1.2, v_y=1.2, v_z=0.3))
    return draws + [draw_params(rng, int(n)) for n in rng.integers(1, 120, 8)]


def test_build_block_keeps_the_closed_form_bitwise():
    for p in _element_draws():
        for two_s in sector_spins(p.n):
            blk = build_block(p, two_s)
            diag, ladder, off2 = _closed_form_block(p, two_s)
            assert blk.diag.tobytes() == diag.tobytes()
            assert blk.ladder2.tobytes() == ladder.tobytes()
            assert blk.off2.tobytes() == off2.tobytes()


def test_sub_block_elements_equal_the_parity_split_bitwise():
    for p in _element_draws():
        scale = off_diagonal_scale(p)
        for two_s in sector_spins(p.n):
            subs = parity_split(build_block(p, two_s)).blocks
            m, x, plus2 = sub_block_elements(p, two_s, [0, 1][:len(subs)])
            assert len(m) == two_s + 1
            lo = 0
            for sub in subs:
                hi = lo + sub.dim
                assert m[lo:hi].tobytes() == sub.m_values.tobytes()
                assert (p.b * m[lo:hi] - x[lo:hi]).tobytes() == \
                    sub.diag.tobytes()
                assert plus2[lo:hi - 1].tobytes() == sub.plus2.tobytes()
                assert (scale * plus2[lo:hi - 1]).tobytes() == \
                    sub.off.tobytes()
                assert plus2[hi - 1] == 0.0
                lo = hi


# ---------------------------------------------------------------------------
# parity split


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_split_preserves_the_spectrum(seed):
    rng = np.random.default_rng(seed)
    p = draw_params(rng, 8)
    for two_s in sector_spins(8):
        blk = build_block(p, two_s)
        full = np.sort(eigh(dense_block(blk), eigvals_only=True))
        parts = []
        for tb in parity_split(blk).blocks:
            if tb.diag.size == 0:
                continue
            if tb.diag.size == 1:
                parts.append(tb.diag)
            else:
                parts.append(eigh_tridiagonal(tb.diag, tb.off)[0])
        split = np.sort(np.concatenate(parts))
        assert split.size == full.size
        assert np.allclose(split, full, atol=1e-12 * p.v_x)


def test_parity_split_strides_and_labels():
    p = ModelParams(n=6, b=0.2, v_x=1.0, v_y=0.5, v_z=0.0)
    blk = build_block(p, 6)
    even, odd = parity_split(blk).blocks
    # even block starts at the lowest M and both advance in steps of 2
    assert even.parity == 1 and odd.parity == -1
    assert np.array_equal(even.m_values, np.arange(-3.0, 4.0, 2.0))
    assert np.array_equal(odd.m_values, np.arange(-2.0, 3.0, 2.0))


def test_parity_split_covers_every_m_once():
    p = ModelParams(n=9, b=1.1, v_x=1.0, v_y=-0.6, v_z=0.3)
    for two_s in sector_spins(9):
        blk = build_block(p, two_s)
        even, odd = parity_split(blk).blocks
        merged = np.sort(np.concatenate([even.m_values, odd.m_values]))
        assert np.array_equal(merged, np.arange(-two_s / 2, two_s / 2 + 1))
