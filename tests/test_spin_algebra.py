"""Sub-block construction against dense linear algebra and combinatorics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from fcspin import ModelParams, Spectra, sector_spins
from fcspin.spin_algebra import (off_diagonal_scale, sector_multiplicities,
                                 sub_block_elements)
from tests.conftest import (closed_form_block, draw_params, flat_levels,
                            multiplicity, parity_halves)


def _sub_blocks(p: ModelParams, two_s: int):
    """(m, diag, off) of each parity sub-block of sector 2S, as built."""
    out = []
    for first in range(min(two_s, 1) + 1):
        m, x, plus2 = sub_block_elements(p, two_s, first)
        out.append((m, p.b * m - x, off_diagonal_scale(p) * plus2[:-1]))
    return out


def _split_levels(p: ModelParams, two_s: int) -> np.ndarray:
    """Levels of sector 2S, ascending, solved one sub-block at a time."""
    return np.sort(np.concatenate([
        d if len(d) == 1 else eigh_tridiagonal(d, o, eigvals_only=True)
        for _, d, o in _sub_blocks(p, two_s)]))


# ---------------------------------------------------------------------------
# multiplicities


@pytest.mark.parametrize("n", range(1, 21))
def test_multiplicity_sum_rule(n):
    # sum over sectors of Y(n, S) * (2S + 1) must exhaust the 2^n states
    total = sum(y * (two_s + 1)
                for y, two_s in zip(sector_multiplicities(n), sector_spins(n)))
    assert total == 2**n


def test_multiplicity_frozen_n4():
    assert sector_multiplicities(4) == [1, 3, 2]


def test_sector_spins_parity_of_n():
    assert sector_spins(6) == [6, 4, 2, 0]
    assert sector_spins(7) == [7, 5, 3, 1]


def test_sector_multiplicities_match_the_binomials():
    # the recurrence against two math.comb calls per sector
    for n in [*range(1, 41), 399, 400, 1001, 1999, 2000]:
        got = sector_multiplicities(n)
        assert got == [multiplicity(n, ts) for ts in sector_spins(n)], n
        assert all(type(y) is int for y in got)


def test_log_multiplicity_no_overflow():
    # ln Y of exact big integers, far past the float range at n = 2000
    p = ModelParams(n=2000, b=0.0, v_x=1.0, v_y=0.5, v_z=0.0)
    ln_y = Spectra(p)._sub_log_mult
    assert np.all(np.isfinite(ln_y)) and ln_y.max() > 1000.0


# ---------------------------------------------------------------------------
# single-sector blocks


def test_frozen_n2_spectrum():
    # n = 2, v = (1, 1/2, 0), b = 0, worked out by hand:
    # triplet {+1/8, -1/8, -3/8}, singlet {+3/8}
    p = ModelParams(n=2, b=0.0, v_x=1.0, v_y=0.5, v_z=0.0)
    assert np.allclose(_split_levels(p, 2), [-0.375, -0.125, 0.125],
                       atol=1e-15)
    assert np.allclose(_split_levels(p, 0), [0.375], atol=1e-15)


def test_block_shapes_and_multiplicity():
    p = ModelParams(n=8, b=0.7, v_x=1.0, v_y=-0.2, v_z=0.4)
    for two_s, y in zip(sector_spins(8), sector_multiplicities(8)):
        dims = [len(m) for m, _, _ in _sub_blocks(p, two_s)]
        assert dims == [d for d in (two_s // 2 + 1, (two_s + 1) // 2) if d]
        assert y == multiplicity(8, two_s)


def test_xxz_blocks_are_diagonal():
    p = ModelParams(n=7, b=0.4, v_x=1.3, v_y=1.3, v_z=0.2)
    for two_s in sector_spins(7):
        assert all(np.all(off == 0.0) for _, _, off in _sub_blocks(p, two_s))


def test_block_scale_covariance():
    rng = np.random.default_rng(7)
    p = draw_params(rng, 6)
    s = 3.7
    for two_s in sector_spins(6):
        for (_, da, oa), (_, db, ob) in zip(_sub_blocks(p, two_s),
                                            _sub_blocks(p.scaled(s), two_s)):
            assert np.allclose(db, s * da, rtol=1e-14)
            assert np.allclose(ob, s * oa, rtol=1e-14)


def test_field_enters_linearly_on_the_diagonal():
    p0 = ModelParams(n=6, b=0.0, v_x=1.0, v_y=0.3, v_z=-0.2)
    p1 = p0.with_field(0.9)
    for two_s in sector_spins(6):
        for (m, d0, o0), (_, d1, o1) in zip(_sub_blocks(p0, two_s),
                                            _sub_blocks(p1, two_s)):
            assert np.allclose(d1 - d0, 0.9 * m, atol=1e-14)
            assert np.array_equal(o1, o0)


def _element_draws():
    rng = np.random.default_rng(13)
    draws = [ModelParams(n=n, b=0.0, v_x=1.0, v_y=-0.7, v_z=-0.4)
             for n in (1, 2, 3)]
    draws.append(ModelParams(n=9, b=0.6, v_x=1.2, v_y=1.2, v_z=0.3))
    return draws + [draw_params(rng, int(n)) for n in rng.integers(1, 120, 8)]


def test_sub_block_elements_equal_the_closed_form_bitwise():
    for p in _element_draws():
        scale = off_diagonal_scale(p)
        for two_s in sector_spins(p.n):
            halves = parity_halves(p, two_s)
            m, x, plus2 = sub_block_elements(p, two_s, [0, 1][:len(halves)])
            assert len(m) == two_s + 1
            lo = 0
            for _, hm, diag, ladder, off in halves:
                hi = lo + len(hm)
                assert m[lo:hi].tobytes() == hm.tobytes()
                assert (p.b * m[lo:hi] - x[lo:hi]).tobytes() == \
                    diag.tobytes()
                assert plus2[lo:hi - 1].tobytes() == ladder.tobytes()
                assert (scale * plus2[lo:hi - 1]).tobytes() == off.tobytes()
                assert plus2[hi - 1] == 0.0
                lo = hi


# ---------------------------------------------------------------------------
# parity split


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_split_preserves_the_spectrum(seed):
    rng = np.random.default_rng(seed)
    p = draw_params(rng, 8)
    for two_s in sector_spins(8):
        _, diag, _, off = closed_form_block(p, two_s)
        dense, i = np.diag(diag), np.arange(len(off))
        dense[i, i + 2] = dense[i + 2, i] = off
        full = eigh(dense, eigvals_only=True)
        assert np.allclose(_split_levels(p, two_s), full, atol=1e-12 * p.v_x)


def test_parity_split_strides_and_labels():
    p = ModelParams(n=6, b=0.2, v_x=1.0, v_y=0.5, v_z=0.0)
    (even, _, _), (odd, _, _) = _sub_blocks(p, 6)
    # the even half starts at the lowest M and both advance in steps of 2
    assert np.array_equal(even, np.arange(-3.0, 4.0, 2.0))
    assert np.array_equal(odd, np.arange(-2.0, 3.0, 2.0))
    assert (flat_levels(Spectra(p))["parity"][:7].tolist()
            == [1] * 4 + [-1] * 3)


def test_parity_split_covers_every_m_once():
    p = ModelParams(n=9, b=1.1, v_x=1.0, v_y=-0.6, v_z=0.3)
    for two_s in sector_spins(9):
        halves = _sub_blocks(p, two_s)
        merged = np.sort(np.concatenate([m for m, _, _ in halves]))
        assert np.array_equal(merged, np.arange(-two_s / 2, two_s / 2 + 1))
