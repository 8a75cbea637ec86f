"""Exact linear algebra over Q: ranks, determinant signs, Pfaffians.

Matrices are lists of rows; entries int or Fraction.  Sizes here are desk
scale (hundreds), so fraction-free elimination with plain integers is both
fast enough and immune to rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _to_int_rows(rows):
    """Each row scaled by the lcm of its denominators (1 for an int)."""
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        out.append([int(x * den) for x in row])
    return out


def _bareiss(rows):
    """Fraction-free (Bareiss) elimination: (rank, sign).

    For a full-rank square matrix the last pivot is det(P A), P the row
    swaps, so sign = sign(last pivot) * sign(P) is the sign of det(A).
    """
    a = _to_int_rows(rows)
    nrows, ncols = len(a), len(a[0])
    r = 0
    prev = 1
    sign = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nrows:
            break
    return r, sign if prev > 0 else -sign


def rank(rows) -> int:
    """Rank over Q by fraction-free (Bareiss-style) elimination."""
    return _bareiss(rows)[0] if rows else 0


def det_sign(rows) -> int:
    """Sign of det of a square matrix (0 if singular)."""
    if not rows:
        return 1
    r, sign = _bareiss(rows)
    return sign if r == len(rows) else 0


def pfaffian(a) -> int:
    """Pfaffian of an integer antisymmetric matrix, by expansion along the
    first row."""
    if len(a) % 2:
        return 0
    memo = {(): 1}

    def rec(rows):
        hit = memo.get(rows)
        if hit is None:
            i = rows[0]
            hit = 0
            for pos in range(1, len(rows)):
                j = rows[pos]
                if a[i][j]:
                    rest = rows[1:pos] + rows[pos + 1:]
                    hit += (-1) ** (pos - 1) * a[i][j] * rec(rest)
            memo[rows] = hit
        return hit

    return rec(tuple(range(len(a))))


def invert(rows):
    """Exact inverse of a square matrix over Q (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence (image list or mapping order)."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def relative_perm_sign(seq_from, seq_to) -> int:
    """Sign of the permutation carrying seq_from to seq_to (same multiset-free items)."""
    pos = {x: i for i, x in enumerate(seq_from)}
    if len(pos) != len(seq_from) or len(seq_from) != len(seq_to):
        raise ValueError("sequences must be duplicate-free and equal length")
    return perm_sign([pos[x] for x in seq_to])
