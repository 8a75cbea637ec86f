"""Reference computations that share no code with the package under test.

Every function here works on plain Python data (words, integer matrices,
JSON blobs) and is used only outside the timed region, to decide whether
an operation's output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product


# -- exact linear algebra -------------------------------------------------------


def rank_exact(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def product_is_zero(a, b):
    """True when the matrix product a . b vanishes (a: r x m, b: m x c)."""
    for row in a:
        nz = [(t, x) for t, x in enumerate(row) if x]
        if not nz:
            continue
        for j in range(len(b[0]) if b else 0):
            if sum(x * b[t][j] for t, x in nz):
                return False
    return True


def mat_vec(mat, vec):
    return [sum(x * v for x, v in zip(row, vec)) for row in mat]


# -- necklace counting ------------------------------------------------------------


def double_edges(edges):
    """Edges of the double quiver as (name, tail, head); reversal spelled e*."""
    out = []
    for e, t, h in edges:
        out.append((e, t, h))
        out.append((e + "*", h, t))
    return out


def necklace_words(edges, length):
    """One representative word per rotation class of closed words."""
    dq = double_edges(edges)
    tail = {e: t for e, t, _ in dq}
    head = {e: h for e, _, h in dq}
    names = [e for e, _, _ in dq]
    seen = {}
    for word in product(names, repeat=length):
        if all(head[word[i]] == tail[word[(i + 1) % length]] for i in range(length)):
            canon = min(word[r:] + word[:r] for r in range(length))
            seen.setdefault(canon, canon)
    return sorted(seen)


def multiset_counts(edges, max_len):
    """counts[L] = number of necklace multisets of total length exactly L."""
    counts = [1] + [0] * max_len
    for length in range(1, max_len + 1):
        for _ in necklace_words(edges, length):
            # one more necklace type of this length, any multiplicity
            for total in range(length, max_len + 1):
                counts[total] += counts[total - length]
    return counts


def bounded_tuple_count(counts, arity, max_len):
    """Arity-tuples of multisets whose combined length is <= max_len."""
    ways = [1] + [0] * max_len
    for _ in range(arity):
        nxt = [0] * (max_len + 1)
        for used, w in enumerate(ways):
            if w:
                for length in range(0, max_len + 1 - used):
                    nxt[used + length] += w * counts[length]
        ways = nxt
    return sum(ways)


def sweep_sizes(edges, max_len):
    """(singles, pairs, triples) that an exhaustive sweep to max_len visits."""
    counts = multiset_counts(edges, max_len)
    return (sum(counts), bounded_tuple_count(counts, 2, max_len),
            bounded_tuple_count(counts, 3, max_len))


# -- trace polynomials --------------------------------------------------------------


def random_matrices(edges, dims, rng, lo=-3, hi=3):
    """An integer matrix X_e : V_tail -> V_head for every double-quiver edge."""
    out = {}
    for e, t, h in double_edges(edges):
        out[e] = [[rng.randint(lo, hi) for _ in range(dims[t])]
                  for _ in range(dims[h])]
    return out


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def trace_of_word(word, mats):
    """tr(X_{e_m} ... X_{e_1}) for the closed word e_1 ... e_m."""
    acc = mats[word[0]]
    for e in word[1:]:
        acc = _matmul(mats[e], acc)
    return sum(acc[i][i] for i in range(len(acc)))


def evaluate_trace_polynomial(poly, mats):
    """Value of a trace polynomial (monomials in ("M", e, row, col)) at mats.

    Returns None when a coefficient carries a power of h, which a trace of
    an h-free element never does.
    """
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        if any(k for k in coeff.c):
            return None
        value = Fraction(coeff.coeff(0))
        for (tag, e, row, col), power in mono:
            if tag != "M":
                return None
            value *= mats[e][row - 1][col - 1] ** power
        total += value
    return total


# -- cyclic A-infinity data ----------------------------------------------------------


def cyclic_group_algebra(n):
    """The group algebra of Z/n as cyclic A-infinity data (one object).

    Basis g_0..g_{n-1}, all even; pairing <g_a, g_b> = [a + b = 0 mod n];
    product tensor mt_2(g_a, g_b, g_c) = [a + b + c = 0 mod n]; no higher
    products.  It is the group algebra with its trace form, so every
    A-infinity identity and the cyclic symmetry hold.
    """
    return json.dumps({
        "objects": ["v"],
        "adjacency": [["v", "v"]],
        "spaces": {"v,v": {"parities": [0] * n}},
        "pairings": {"v,v": [[int((a + b) % n == 0) for b in range(n)]
                             for a in range(n)]},
        "products": [{"cycle": ["v", "v", "v"],
                      "tensor": [[[int((a + b + c) % n == 0) for c in range(n)]
                                  for b in range(n)] for a in range(n)]}],
    })


def cyclic_scaling(genus, faces, n):
    """Z/n chain coefficient over the unit-algebra one, for a trivalent graph.

    The edge labels a_e in Z/n solve one linear condition per vertex, and
    the conditions have rank V - 1 on a connected graph, so a trivalent
    graph has n^(E - V + 1) = n^(2g + m - 1) labelings, each of weight 1.
    """
    return n ** (2 * genus + faces - 1)


def unit_weight_magnitude(valences, aut_order):
    """|W/|Aut|| for data whose only product is a unit-valued mt_2 tensor."""
    if all(v == 3 for v in valences):
        return Fraction(1, aut_order)
    return Fraction(0)
