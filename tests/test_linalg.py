import pytest

from nlab.linalg import rank
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


def test_betti_rejects_impossible_ranks(monkeypatch):
    cx = RibbonComplex(0, 3, 3)
    assert cx.betti() == {2: (1, 0), 3: (2, 1)}
    monkeypatch.setattr(complexes, "rank", lambda mat: min(len(mat), len(mat[0])) + 1)
    with pytest.raises(RibbonError, match="exceeds"):
        cx.betti()
    monkeypatch.setattr(complexes, "rank", lambda mat: min(len(mat), len(mat[0])))
    cx.basis[2] = []
    with pytest.raises(RibbonError, match="negative Betti"):
        cx.betti()
