from fractions import Fraction

import pytest

from nlab.linalg import invert, rank
from nlab.ribbon import complexes
from nlab.ribbon.complexes import RibbonComplex
from nlab.ribbon.graph import RibbonError


def test_rank_keeps_rows_with_zero_pivot_column():
    # Rows with a zero in the first pivot column still need their scaling,
    # or the next exact division floors and loses a pivot.
    m = [[0, 3, -1, 0, 0],
         [0, -2, -2, 0, 0],
         [0, 0, 3, -2, -1],
         [0, 0, 0, -1, 0]]
    assert rank(m) == 4


def test_non_unit_pivots_stay_exact():
    # no +-1 entry, so every pivot divides
    a = [[2, 4], [6, 3]]
    assert rank(a) == 2
    inv = invert(a)
    assert inv == [[Fraction(-1, 6), Fraction(2, 9)], [Fraction(1, 3), Fraction(-1, 9)]]
    assert all(type(x) is Fraction for row in inv for x in row)
    # rank 1; a float quotient such as 7 / 3 would leave a nonzero residue
    for m in ([[3, 1], [1, Fraction(1, 3)]], [[3, 7], [7, Fraction(49, 3)]]):
        assert rank(m) == 1
        with pytest.raises(ValueError, match="singular"):
            invert(m)


P = (1 << 61) - 1


def rank_mod_p(rows):
    """Rank of an integer matrix over Z/P: an echelon basis keyed by the
    leading column of each reduced row."""
    basis = {}
    for row in rows:
        v = {j: x % P for j, x in enumerate(row) if x % P}
        while v:
            c = min(v)
            if c not in basis:
                inv = pow(v[c], -1, P)
                basis[c] = {j: x * inv % P for j, x in v.items()}
                break
            f = v[c]
            for j, x in basis[c].items():
                y = (v.get(j, 0) - f * x) % P
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return len(basis)


@pytest.mark.parametrize("genus,faces,max_edges,betti", [
    (0, 5, None, None), (2, 1, None, None), (1, 3, None, None), (2, 2, 7, None),
    (0, 6, 8, {5: (4, 0), 6: (66, 0), 7: (418, 0), 8: (1220, 864)}),
])
def test_rank_matches_mod_p_rank_on_boundaries(genus, faces, max_edges, betti):
    # a rank mod P never exceeds the rank over Q; equal on every boundary here
    cx = RibbonComplex(genus, faces, 3, max_edges=max_edges)
    for k, mat in cx.matrices.items():
        assert rank(mat) == rank_mod_p(mat), k
    if betti is not None:
        assert cx.betti() == betti


def test_betti_rejects_impossible_ranks(monkeypatch):
    cx = RibbonComplex(0, 3, 3)
    assert cx.betti() == {2: (1, 0), 3: (2, 1)}
    # sparse rows do not carry their column count: it is dim C_3
    ncols = len(cx.basis[3])
    monkeypatch.setattr(complexes, "rank", lambda rows: min(len(rows), ncols) + 1)
    with pytest.raises(RibbonError, match="exceeds"):
        cx.betti()
    monkeypatch.setattr(complexes, "rank", lambda rows: min(len(rows), ncols))
    cx.basis[2] = []
    with pytest.raises(RibbonError, match="negative Betti"):
        cx.betti()
