"""Property tests: exact rank against an independent Fraction Gauss-Jordan;
Pfaffians and inverses against cofactor determinants."""

import pytest

pytest.importorskip("hypothesis")

import math  # noqa: E402
from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from nlab.linalg import invert, pfaffian, rank  # noqa: E402


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


# sparse-ish entries, like boundary matrices
CELL = st.one_of(st.just(0), st.integers(-3, 3),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    return [[draw(CELL) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rank_matches_gauss_jordan(m):
    assert rank(m) == gauss_jordan_rank(m)
    # the same rows as {column: entry} dicts of their nonzeros
    assert rank([{j: x for j, x in enumerate(row) if x} for row in m]) == rank(m)


def cofactor_det(a):
    """Determinant by Laplace expansion along the first row, in Fractions."""
    if not a:
        return Fraction(1)
    return sum((Fraction((-1) ** j * a[0][j]) *
                cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
                for j in range(len(a)) if a[0][j]), Fraction(0))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    a = [[draw(CELL) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # the last row a combination of the others: singular
        coeffs = [draw(st.integers(-2, 2)) for _ in range(n - 1)]
        a[-1] = [sum(c * row[j] for c, row in zip(coeffs, a[:-1])) for j in range(n)]
    return a


@st.composite
def antisymmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.integers(-3, 3))
            a[j][i] = -a[i][j]
    return a


@settings(max_examples=200, deadline=None)
@given(antisymmetric_matrices())
def test_pfaffian_squares_to_determinant(a):
    pf = pfaffian(a)
    assert pf ** 2 == cofactor_det(a)
    if len(a) % 2:
        assert pf == 0


def test_pfaffian_of_block_diagonal_is_product_of_blocks():
    # fixes the sign that pf^2 = det leaves open
    for xs in ([2], [2, -3], [2, -3, 5]):
        a = [[0] * (2 * len(xs)) for _ in range(2 * len(xs))]
        for k, x in enumerate(xs):
            a[2 * k][2 * k + 1], a[2 * k + 1][2 * k] = x, -x
        assert pfaffian(a) == math.prod(xs)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_invert_is_a_two_sided_inverse(a):
    n = len(a)
    if cofactor_det(a) == 0:
        with pytest.raises(ValueError):
            invert(a)
        return
    inv = invert(a)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for left, right in ((inv, a), (a, inv)):
        assert [[sum(left[i][t] * right[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)] == identity
