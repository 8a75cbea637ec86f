"""Exact linear algebra over Q: ranks, inverses, Pfaffians, permutation signs.

Matrices are lists of rows; entries int or Fraction.  A row is a dense
list or, for `rank`, a sparse {column: entry} dict of its nonzeros, the
form in which ribbon complexes store their boundaries (about 1% nonzero).
Ranks and inverses share one sparse Gaussian elimination; its +-1
pivots keep integral rows in int.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _eliminate(rows, ncols):
    """Sparse Gaussian elimination of dense or {column: entry} rows, pivoting
    in columns < ncols (`invert` pivots only in the columns of A of [A | I]).

    Repeatedly takes the shortest remaining row, pivots on its first +-1
    entry in a column < ncols (else its first such entry) and clears that
    column from every other remaining row.  Returns [(pivot column, reduced
    row as {column: entry})] in pivot order; a pivot row is zero in the
    pivot columns before its own.
    """
    active = {i: {j: x for j, x in (row.items() if isinstance(row, dict) else enumerate(row))
                  if x}
              for i, row in enumerate(rows)}
    pivots = []
    while active:
        i = min(active, key=lambda t: len(active[t]))
        row = active.pop(i)
        cols = [j for j in row if j < ncols]
        if not cols:
            continue
        c = next((j for j in cols if row[j] in (1, -1)), cols[0])
        p = row[c]
        for other in active.values():
            if c in other:
                # never int / int, which is a float
                f = other[c] * p if p in (1, -1) else Fraction(other[c]) / p
                for j, x in row.items():
                    y = other.get(j, 0) - f * x
                    if y:
                        other[j] = y
                    else:
                        del other[j]
        pivots.append((c, row))
    return pivots


def rank(rows) -> int:
    """Rank over Q of dense or {column: entry} rows."""
    return len(_eliminate(rows, math.inf))


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
    """Exact inverse of a square matrix over Q, as rows of Fractions."""
    n = len(rows)
    pivots = _eliminate([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    # back-substitution in reverse pivot order: solved[c] is the reduced row
    # with 1 at column c and 0 at every other column < n
    solved = {}
    for c, row in reversed(pivots):
        for j in [j for j in row if j < n and j != c]:
            f = row[j]
            for k, x in solved[j].items():
                row[k] = row.get(k, 0) - f * x
        p = row[c]
        solved[c] = {k: Fraction(x) / p for k, x in row.items() if x}
    return [[solved[c].get(n + j, Fraction(0)) for j in range(n)] for c in range(n)]


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
