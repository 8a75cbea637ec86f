"""Property test: exact rank against an independent Fraction Gauss-Jordan."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from nlab.linalg import rank  # noqa: E402


def gauss_jordan_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    # sparse-ish entries, like boundary matrices
    cell = st.one_of(st.just(0), entry)
    return [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rank_matches_gauss_jordan(m):
    assert rank(m) == gauss_jordan_rank(m)
