import copy
import json
import os
import random

import pytest

from fractions import Fraction
from itertools import product

from nlab.ainf import (AInfError, CyclicAInfData, WeightEngine, build_cycle,
                       check_ainf, cyclicity_check, load_data)
from nlab.linalg import rank
from nlab.ribbon.orientation import OrientationBridge

from ribbon_helpers import polygon_class


def data_k():
    """One object, A = k, pairing <1,1> = 1, m2 = multiplication."""
    return load_data(json.dumps({
        "objects": ["v"], "adjacency": [["v", "v"]],
        "spaces": {"v,v": {"parities": [0]}},
        "pairings": {"v,v": [[1]]},
        "products": [{"cycle": ["v", "v", "v"], "tensor": [[[1]]]}],
    }))


def data_x2(parity_x):
    """k[x]/(x^2) with <1,x> = 1 and m2 = multiplication."""
    return load_data(json.dumps({
        "objects": ["v"], "adjacency": [["v", "v"]],
        "spaces": {"v,v": {"parities": [0, parity_x]}},
        "pairings": {"v,v": [[0, 1], [1, 0]]},
        "products": [{"cycle": ["v", "v", "v"],
                      "tensor": [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]}],
    }))


def data_two_object():
    """Two objects joined by one edge, one-dimensional dual homs, no products."""
    return load_data(json.dumps({
        "objects": ["p", "q"], "adjacency": [["p", "q"]],
        "spaces": {"p,q": {"parities": [0]}, "q,p": {"parities": [0]}},
        "pairings": {"p,q": [[1]]},
        "products": [],
    }))


def data_group_algebra(n):
    """The group algebra of Z/n with its trace form: basis g_0..g_{n-1}, all
    even, <g_a, g_b> = [a + b = 0 mod n], mt_2(g_a, g_b, g_c) = [a + b + c = 0]."""
    return load_data(json.dumps({
        "objects": ["v"], "adjacency": [["v", "v"]],
        "spaces": {"v,v": {"parities": [0] * n}},
        "pairings": {"v,v": [[int((a + b) % n == 0) for b in range(n)]
                             for a in range(n)]},
        "products": [{"cycle": ["v", "v", "v"],
                      "tensor": [[[int((a + b + c) % n == 0) for c in range(n)]
                                  for b in range(n)] for a in range(n)]}],
    }))


EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples-data")


def example_data(name):
    with open(os.path.join(EXAMPLES, name)) as f:
        return load_data(f.read())


def data_nonassociative():
    # cyclically symmetric tensor whose induced m2 is nonassociative:
    # m(1,1) = 1 + x, m(1,x) = m(x,1) = x, m(x,x) = 1
    return load_data(json.dumps({
        "objects": ["v"], "adjacency": [["v", "v"]],
        "spaces": {"v,v": {"parities": [0, 0]}},
        "pairings": {"v,v": [[0, 1], [1, 0]]},
        "products": [{"cycle": ["v", "v", "v"],
                      "tensor": [[[1, 1], [1, 0]], [[1, 0], [0, 1]]]}],
    }))


def test_check_ainf_passes_for_associative_data():
    assert check_ainf(data_k(), 5) == []
    assert check_ainf(data_x2(0), 5) == []
    assert check_ainf(data_x2(1), 5) == []
    assert check_ainf(data_two_object(), 4) == []


def _reference_violations(data, n_max):
    """The quadratic axioms checked densely: every object path seq of length
    n + 1, every basis tuple idx, with each m_n rebuilt from its cyclic
    tensor by contracting the closing slot against C."""
    def m_apply(seq, idx):
        mt = data.tensors.get(tuple(seq))
        if (seq[0], seq[-1]) not in data.parities or mt is None:
            return {}
        out = {}
        for (a, b), g in data.c_tensor(seq[0], seq[-1]).items():
            v = mt.get(tuple(idx) + (b,))
            if v:
                out[a] = out.get(a, Fraction(0)) + v * g
        return {a: v for a, v in out.items() if v}

    bad = []
    for n in range(2, n_max + 1):
        paths = [(o,) for o in data.objects]
        for _ in range(n):
            paths = [p + (o,) for p in paths for o in data.objects
                     if (p[-1], o) in data.parities]
        for seq in paths:
            dims = [data.dim(seq[r], seq[r + 1]) for r in range(n)]
            for idx in product(*(range(d) for d in dims)):
                acc = {}
                for ell in range(2, n + 1):
                    for k in range(0, n - ell + 1):
                        inner = m_apply(seq[k:k + ell + 1], idx[k:k + ell])
                        d_pref = sum(data.parity(seq[r], seq[r + 1], idx[r])
                                     for r in range(k))
                        sign = (-1) ** (ell * d_pref + (k + 1) * (ell + 1))
                        outer_seq = seq[:k + 1] + seq[k + ell:]
                        for b, cb in inner.items():
                            outer_idx = idx[:k] + (b,) + idx[k + ell:]
                            for a, ca in m_apply(outer_seq, outer_idx).items():
                                acc[a] = acc.get(a, Fraction(0)) + sign * cb * ca
                if any(acc.values()):
                    bad.append((n, seq, idx))
    return bad


def _rotation_invariant(rng, parities, n):
    """A random one-object mt_n tensor, summed over its signed rotations so
    that it satisfies the cyclic rotation identity; as a nested list."""
    d = len(parities)
    cur = {idx: rng.choice((-2, -1, 1, 2, 3))
           for idx in product(range(d), repeat=n + 1) if rng.random() < 0.4}
    total = {}
    for _ in range(n + 1):
        for idx, v in cur.items():
            total[idx] = total.get(idx, 0) + v
        odd = [[parities[a] for a in idx] for idx in cur]
        cur = {idx[1:] + idx[:1]: (-1) ** (n + ds[0] * sum(ds[1:])) * v
               for (idx, v), ds in zip(cur.items(), odd)}

    def nest(prefix):
        if len(prefix) == n + 1:
            return total.get(prefix, 0)
        return [nest(prefix + (a,)) for a in range(d)]
    return nest(())


def _random_one_object(rng):
    """One object, dim 1-3 with random parities, a random graded-symmetric
    nondegenerate pairing and random cyclic mt_2..mt_4."""
    while True:
        d = rng.randint(1, 3)
        par = [rng.randint(0, 1) for _ in range(d)]
        mat = [[0] * d for _ in range(d)]
        for a in range(d):
            for b in range(a, d):
                v = 0 if a == b and par[a] else rng.choice((0, 0, 1, -1, 2))
                mat[a][b], mat[b][a] = v, -v if par[a] and par[b] else v
        ns = sorted(rng.sample((2, 3, 4), rng.randint(1, 3)))
        try:
            return load_data(json.dumps({
                "objects": ["v"], "adjacency": [["v", "v"]],
                "spaces": {"v,v": {"parities": par}}, "pairings": {"v,v": mat},
                "products": [{"cycle": ["v"] * (n + 1),
                              "tensor": _rotation_invariant(rng, par, n)} for n in ns]}))
        except AInfError:  # a degenerate pairing: draw again
            pass


def _perturbed_matrix_units(rng):
    """The matrix units with one product scaled, and sometimes a random mt_3."""
    with open(os.path.join(EXAMPLES, "matrix_units.json")) as f:
        base = json.load(f)
    while True:
        blob = json.loads(json.dumps(base))
        rng.choice(blob["products"])["tensor"] = [[[rng.choice((-1, 2, 3))]]]
        if rng.random() < 0.5:
            blob["products"].append({"cycle": [rng.choice("pq") for _ in range(4)],
                                     "tensor": [[[[rng.choice((1, -1, 2))]]]]})
        try:
            return load_data(json.dumps(blob))
        except AInfError:  # the mt_3 breaks the rotation identity: draw again
            pass


def test_check_ainf_matches_dense_reference():
    """The pairwise contraction of stored tensors finds the dense violations,
    in the dense order, on associative, higher-product and random data."""
    rng = random.Random(16)
    cases = [(data, 5) for data in (data_k(), data_x2(0), data_x2(1), data_two_object(),
                                    data_nonassociative(), data_group_algebra(3),
                                    data_matrix_units(), example_data("mt4.json"),
                                    example_data("mt2_mt4.json"))]
    cases += [(_random_one_object(rng), 4) for _ in range(16)]
    cases += [(_perturbed_matrix_units(rng), 5) for _ in range(8)]
    empty = nonempty = 0
    for data, n_max in cases:
        for n in range(2, n_max + 1):
            bad = check_ainf(data, n)
            assert bad == _reference_violations(data, n)
            empty += not bad
            nonempty += bool(bad)
    assert empty > 10 and nonempty > 20, (empty, nonempty)


def test_cyclicity_passes():
    assert cyclicity_check(data_k()) == []
    assert cyclicity_check(data_x2(1)) == []
    assert cyclicity_check(data_x2(0)) == []


def test_cyclicity_check_reports_an_edited_rotation():
    # loading stores every rotation and rejects conflicts; an entry edited
    # afterwards breaks the two rotation identities that read it, its own
    # and the one from the previous rotation
    data = example_data("matrix_units.json")
    assert cyclicity_check(data) == []
    data.tensors[("p", "q", "p")][(0, 0, 0)] = 2
    assert cyclicity_check(data) == [(("p", "p", "q"), (0, 0, 0)),
                                     (("p", "q", "p"), (0, 0, 0))]


def test_nonassociative_fails_at_n3():
    bad = check_ainf(data_nonassociative(), 3)
    assert bad and all(n == 3 for n, _, _ in bad)


def test_noncyclic_tensor_rejected_at_load():
    with pytest.raises(AInfError):
        load_data(json.dumps({
            "objects": ["v"], "adjacency": [["v", "v"]],
            "spaces": {"v,v": {"parities": [0, 0]}},
            "pairings": {"v,v": [[0, 1], [1, 0]]},
            "products": [{"cycle": ["v", "v", "v"],
                          "tensor": [[[0, 1], [2, 0]], [[1, 0], [0, 3]]]}],
        }))


def test_non_adjacent_homs_rejected():
    with pytest.raises(AInfError):
        CyclicAInfData(["p", "q"], [], {("p", "q"): [0], ("q", "p"): [0]},
                       {("p", "q"): [[1]]}, [])


def test_degenerate_pairing_rejected():
    with pytest.raises(AInfError):
        load_data(json.dumps({
            "objects": ["v"], "adjacency": [["v", "v"]],
            "spaces": {"v,v": {"parities": [0, 0]}},
            "pairings": {"v,v": [[1, 0], [0, 0]]},
            "products": [],
        }))


def test_weights_need_even_pairings():
    with pytest.raises(AInfError):
        WeightEngine(data_x2(1))


def test_weight_examples():
    eng = WeightEngine(data_k())
    # 3-edge polygon over A = k: +-1
    p3 = polygon_class(3, ("v", "v"))
    assert eng.weight(p3) in (Fraction(1), Fraction(-1))
    # odd-valence vertices with the matching product missing give zero
    from nlab.ribbon.census import labeled_classes
    cls5 = labeled_classes(5, 3, data_k().G, ("v", "v", "v"), genus=0)
    some = [lg for lg in cls5 if lg.is_orientable()
            and any(len(c) == 5 for c in lg.graph.vertices)]
    for lg in some[:2]:
        assert eng.weight(lg) == 0


def test_weight_choice_invariance_seeded():
    eng = WeightEngine(data_k())
    rng = random.Random(0)
    from nlab.ribbon.complexes import RibbonComplex
    cx = RibbonComplex(0, 3, 3, G=data_k().G, X=("v",) * 3)
    for lg in cx.basis[3]:
        g = lg.graph
        base = eng.weight(lg)
        for _ in range(50):
            vo = list(range(g.num_vertices))
            rng.shuffle(vo)
            cil = [rng.choice(cyc) for cyc in g.vertices]
            eo = list(range(g.num_edges))
            rng.shuffle(eo)
            flips = [e for e in range(g.num_edges) if rng.random() < 0.5]
            assert eng.weight(lg, vertex_order=vo, ciliations=cil,
                              edge_order=eo, edge_flips=flips) == base


def test_build_cycle_boundary_zero():
    for data in (data_k(), data_x2(0)):
        for (g, m) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
            cx, chains, boundaries = build_cycle(data, g, m, ("v",) * m)
            for k, vec in boundaries.items():
                assert not any(vec), (g, m, k)


def test_build_cycle_two_object():
    data = data_two_object()
    for m in (3, 4):
        X = tuple(sorted(("p", "q", "p", "q")[:m]))
        cx, chains, boundaries = build_cycle(data, 0, m, X)
        for vec in boundaries.values():
            assert not any(vec)


def test_k_cycle_is_nonzero_in_top_degree():
    cx, chains, _ = build_cycle(data_k(), 0, 3, ("v",) * 3)
    assert any(chains[3])


def data_matrix_units():
    """A two-object category with nonzero products: the 2x2 matrix units.

    Hom spaces are one-dimensional everywhere (1_p, 1_q, a: p->q, b: q->p
    with ab = 1_p, ba = 1_q) and the trace form pairs them; every valid
    cyclic product tensor equals 1.
    """
    return example_data("matrix_units.json")


def test_matrix_units_axioms_and_cycles():
    mu = data_matrix_units()
    assert check_ainf(mu, 5) == []
    assert cyclicity_check(mu) == []
    # mixed-label chains are genuinely nonzero and all boundaries vanish
    seen_nonzero = False
    for (g, m, X) in [(0, 3, ("p", "p", "q")), (0, 3, ("p", "q", "q")),
                      (1, 1, ("p",)), (0, 4, ("p", "p", "q", "q")),
                      (1, 2, ("p", "q"))]:
        cx, chains, boundaries = build_cycle(mu, g, m, X)
        if any(any(v) for v in chains.values()):
            seen_nonzero = True
        for vec in boundaries.values():
            assert not any(vec), (g, m, X)
    assert seen_nonzero


def _reference_weight(eng, lg, vertex_order, ciliations, edge_order, edge_flips):
    """W by brute force: every product of C entries, one per edge, times the
    vertex tensor entries it picks, with the braid and evaluation signs."""
    data, g = eng.data, lg.graph
    blocks, slot_space = [], {}
    for v in vertex_order:
        darts, slots, tensor = eng._vertex_tensor(lg, ciliations[v])
        blocks.append((darts, tensor))
        slot_space.update(zip(darts, slots))
    m_slots = [d for darts, _ in blocks for d in darts]
    edges = []
    for e in edge_order:
        a, b = g.edges[e][::-1] if e in edge_flips else g.edges[e]
        edges.append((a, b, data.c_tensor(*slot_space[a])))
    c_slots = [d for a, b, _ in edges for d in (a, b)]
    target = [m_slots.index(d) for d in c_slots]
    total = Fraction(0)
    for combo in product(*(ct.items() for _, _, ct in edges)):
        assign, v = {}, Fraction(1)
        for (a, b, _), ((ia, ib), cv) in zip(edges, combo):
            assign[a], assign[b] = ia, ib
            v *= cv
        for darts, tensor in blocks:
            v *= tensor.get(tuple(assign[d] for d in darts), 0)
        if not v:
            continue
        par = {d: data.parity(*slot_space[d], assign[d]) for d in assign}
        odd = [par[d] for d in c_slots]
        inversions = sum(1 for u in range(len(target)) for w in range(u + 1, len(target))
                         if target[u] > target[w] and odd[u] and odd[w])
        evaluation, before = 0, 0
        for darts, _ in blocks:
            here = sum(par[d] for d in darts)
            evaluation += (here % 2) * (before % 2)
            before += here
        total += (-1) ** (inversions + evaluation) * v
    return total * OrientationBridge(lg.graph).ciliation_value(vertex_order,
                                                             dict(enumerate(ciliations)))


def test_weight_matches_enumeration_reference():
    """The vertex-by-vertex contraction equals the full enumeration of C products
    under random presentations, loop edges and pruned C entries included."""
    from nlab.ribbon.complexes import RibbonComplex
    rng = random.Random(10)
    cases = [(data, g, m, ("v",) * m)
             for data in (data_k(), data_x2(0), example_data("frobenius.json"),
                          data_group_algebra(4))
             for g, m in [(0, 3), (1, 1), (0, 4)]]
    cases += [(data_matrix_units(), g, len(X), X)
              for g, X in [(0, ("p", "p", "q")), (1, ("p",)), (0, ("p", "p", "q", "q"))]]
    nonzero = with_loop = 0
    for data, g, m, X in cases:
        eng = WeightEngine(data)
        for basis in RibbonComplex(g, m, 3, G=data.G, X=X).basis.values():
            for lg in basis:
                gr = lg.graph
                vo = rng.sample(range(gr.num_vertices), gr.num_vertices)
                cil = [rng.choice(c) for c in gr.vertices]
                eo = rng.sample(range(gr.num_edges), gr.num_edges)
                flips = [e for e in range(gr.num_edges) if rng.random() < 0.5]
                base = eng.weight(lg, vertex_order=vo, ciliations=cil,
                                  edge_order=eo, edge_flips=flips)
                assert base == _reference_weight(eng, lg, vo, cil, eo, flips), \
                    (g, m, X, lg.code)
                assert eng.weight(lg) == base
                if base:
                    nonzero += 1
                    vertex = {d: v for v, c in enumerate(gr.vertices) for d in c}
                    with_loop += any(vertex[a] == vertex[b] for a, b in gr.edges)
    # the comparison covers nonzero weights, and loop edges among them
    assert nonzero > 20 and with_loop > 5, (nonzero, with_loop)


def test_z4_cycle_on_05_scales_unit_cycle(tmp_path):
    """Z/4 on (0,5): every boundary vanishes, and each coefficient is
    4^(2g+m-1) = 256 times the unit-algebra one on the same cached basis."""
    X = ("v",) * 5
    ucx, unit, _ = build_cycle(example_data("unit.json"), 0, 5, X, cache_dir=str(tmp_path))
    cx, chains, boundaries = build_cycle(data_group_algebra(4), 0, 5, X,
                                         cache_dir=str(tmp_path))
    for vec in boundaries.values():
        assert not any(vec)
    assert {k: [lg.code for lg in b] for k, b in cx.basis.items()} == \
        {k: [lg.code for lg in b] for k, b in ucx.basis.items()}
    assert chains == {k: [256 * c for c in vec] for k, vec in unit.items()}
    assert any(any(vec) for vec in chains.values())


def test_higher_products_mt4_and_mt2_mt4(tmp_path):
    """One even generator with <x, x> = 1 and mt_4 = 1 (with and without
    mt_2 = 1): the axioms hold to n = 7, every boundary vanishes, and the
    nonzero chain coefficients per degree are pinned."""
    expected = {"mt4.json": {(0, 5): {5: 7}, (2, 1): {5: 7}},
                "mt2_mt4.json": {(0, 5): {5: 7, 7: 40, 9: 26},
                                 (2, 1): {5: 7, 7: 19, 9: 9}}}
    for name, families in expected.items():
        data = example_data(name)
        assert check_ainf(data, 7) == []
        assert cyclicity_check(data) == []
        for (g, m), nonzero in families.items():
            cx, chains, boundaries = build_cycle(data, g, m, ("v",) * m,
                                                 cache_dir=str(tmp_path))
            for vec in boundaries.values():
                assert not any(vec), (name, g, m)
            assert {k: sum(1 for c in vec if c) for k, vec in chains.items()
                    if any(vec)} == nonzero, (name, g, m)


def test_higher_product_chains_boundary_or_class(tmp_path):
    """rank d_{k+1} -> rank [d_{k+1} | z] for each nonzero chain z below the
    top degree: every one is a boundary except the degree-7 chain of
    mt_2 = mt_4 = 1 on (2,1), the class behind b_7 = 1 of the full (2,1)
    complex.  The chains have Fraction entries."""
    expected = {("mt4.json", 0, 5): {5: (18, 18)},
                ("mt4.json", 2, 1): {5: (17, 17)},
                ("mt2_mt4.json", 0, 5): {5: (18, 18), 7: (45, 45)},
                ("mt2_mt4.json", 2, 1): {5: (17, 17), 7: (20, 21)}}
    for (name, g, m), ranks in expected.items():
        cx, chains, _ = build_cycle(example_data(name), g, m, ("v",) * m,
                                    cache_dir=str(tmp_path))
        got = {}
        for k, z in chains.items():
            d = cx.matrices.get(k + 1)
            if any(z) and d:
                got[k] = (rank(d), rank([row + [c] for row, c in zip(d, z)]))
        assert got == ranks, (name, g, m)


def _stored_entries(data):
    for store in (data.pairings, data._c_tensors, data.tensors):
        for flat in store.values():
            yield from flat.values()


def _fraction_copy(data):
    """data with every stored pairing, C and product entry a Fraction."""
    out = copy.deepcopy(data)
    for store in (out.pairings, out._c_tensors, out.tensors):
        for key, flat in store.items():
            store[key] = {idx: Fraction(v) for idx, v in flat.items()}
    return out


def _odd_even_paired(rng):
    """Seeded one-object data with an odd generator and an even pairing."""
    while True:
        data = _random_one_object(rng)
        try:
            WeightEngine(data)
        except AInfError:  # an odd or inhomogeneous pairing: draw again
            continue
        if any(data.parities[("v", "v")]):
            return data


def test_integral_entries_are_ints():
    """Stored entries are ints exactly when integral, weights are Fractions,
    and chains and boundaries equal those of the all-Fraction copy."""
    rng = random.Random(18)
    ones = [(0, ("v",) * 3, {}), (1, ("v",), {}), (0, ("v",) * 4, {})]
    cases = [(example_data(name), ones) for name in ("unit.json", "frobenius.json",
                                                     "mt4.json", "mt2_mt4.json")]
    cases += [(data_group_algebra(n), ones) for n in (3, 4)]
    cases += [(_odd_even_paired(rng), ones + [(2, ("v",), {})]) for _ in range(4)]
    cases += [(data_matrix_units(), [(0, ("p", "p", "q"), {}), (1, ("p",), {}),
                                     (0, ("p", "q", "q"), {})]),
              (example_data("two_object.json"),
               [(0, ("p", "q", "q"), {"min_valence": 2, "max_edges": 4})])]
    kinds, nonzero = set(), 0
    for data, families in cases:
        entries = list(_stored_entries(data))
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in entries)
        kinds |= {type(v) for v in entries}
        for (i, j), pairing in data.pairings.items():  # G C = 1 in the stored types
            c, n = data.c_tensor(i, j), data.dim(i, j)
            assert all(sum(pairing.get((r, b), 0) * c.get((a, b), 0) for b in range(n))
                       == (r == a) for r in range(n) for a in range(n))
        eng, ref = WeightEngine(data), _fraction_copy(data)
        for g, X, kw in families:
            cx, chains, boundaries = build_cycle(data, g, len(X), X, **kw)
            assert (chains, boundaries) == build_cycle(ref, g, len(X), X, **kw)[1:]
            assert all(type(c) is Fraction for vec in chains.values() for c in vec)
            for basis in cx.basis.values():
                assert all(type(eng.weight(lg)) is Fraction for lg in basis[:3])
            nonzero += sum(bool(c) for vec in chains.values() for c in vec)
    # integral and non-integral entries both occur, and the chains are not all zero
    assert kinds == {int, Fraction} and nonzero > 20, (kinds, nonzero)
