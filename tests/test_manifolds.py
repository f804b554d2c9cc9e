import itertools
import random
import signal
from fractions import Fraction

import pytest
from test_characteristic import _scramble

from pogorelov import _intlinalg
from pogorelov._intlinalg import GF2Echelon, ZQuotient, gf2_vector, xgcd
from pogorelov.characteristic import (
    CharMatrix,
    NotCharacteristic,
    colouring_to_matrix,
    enumerate_colourings,
    is_characteristic,
)
from pogorelov.constructions import edge_truncate
from pogorelov.manifolds import (
    IsoDecision,
    ModeUnsupported,
    _face_supported_monomials,
    pontryagin_w,
    qt_ring,
    ring_isomorphic,
    sc_isomorphic,
    sc_ring,
    witness_preserves_p1,
)
from pogorelov.polytope import catalog, polygon

SIMPLEX = catalog("simplex")
CP3_MATRIX = CharMatrix(n=3, rows=((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)))


def _hirzebruch(k: int) -> CharMatrix:
    return CharMatrix(n=2, rows=((1, 0, -1, k), (0, 1, 0, -1)))


def _cube_matrix() -> CharMatrix:
    # opposite facet pairs of the catalog cube are (1,2), (3,5), (4,6)
    rows = [[0] * 6 for _ in range(3)]
    for t, (a, b) in enumerate([(1, 2), (3, 5), (4, 6)]):
        rows[t][a - 1] = 1
        rows[t][b - 1] = -1
    return CharMatrix(n=3, rows=tuple(tuple(r) for r in rows))


def _random_valid_polygon_matrix(m, rng, tries=500):
    """Random 2 x m characteristic matrix over the m-gon."""
    for _ in range(tries):
        cols = [(1, 0)]
        for _ in range(m - 1):
            a = cols[-1]
            # b with det(a, b) = +-1: perturb a unimodular completion c,
            # det(a, c) = x a0 + y a1 = 1 for c = (-y, x)
            g, x, y = xgcd(*a)
            assert g == 1, f"{a} is not primitive"
            c = (-y, x)
            t = rng.randint(-2, 2)
            s = rng.choice((1, -1))
            b = (s * c[0] + t * a[0], s * c[1] + t * a[1])
            cols.append(b)
        d = cols[-1][0] * cols[0][1] - cols[-1][1] * cols[0][0]
        if d not in (1, -1):
            continue
        L = CharMatrix(n=2, rows=(tuple(c[0] for c in cols), tuple(c[1] for c in cols)))
        ok, vert = is_characteristic(polygon(m), L)
        assert ok, f"generated matrix fails the vertex condition at {vert}"
        return L
    raise RuntimeError("no matrix found")


def _blown_up_fan(cols, m, rng):
    """Columns of a complete smooth fan with m rays, winding once: start from
    `cols` (a fan in cyclic order) and insert the sum of two adjacent columns
    (a toric blow-up) at random places until there are m."""
    cols = list(cols)
    while len(cols) < m:
        i = rng.randrange(len(cols))
        a, b = cols[i], cols[(i + 1) % len(cols)]
        cols.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    return CharMatrix(n=2, rows=(tuple(c[0] for c in cols), tuple(c[1] for c in cols)))


def _signature(Q):
    """(signature, rank) of a symmetric integer matrix, by exact congruence
    diagonalization over the rationals."""
    Q = [[Fraction(x) for x in row] for row in Q]
    pos = neg = 0
    while Q:
        k = len(Q)
        p = next((i for i in range(k) if Q[i][i]), None)
        if p is None:
            off = next(((i, j) for i in range(k) for j in range(k) if Q[i][j]), None)
            if off is None:
                break
            # Q[i][i] = 0 and Q[i][j] != 0: row/column i += row/column j
            # makes the new diagonal entry 2 Q[i][j] + Q[j][j] = 2 Q[i][j]
            i, j = off
            for r in range(k):
                Q[i][r] += Q[j][r]
            for r in range(k):
                Q[r][i] += Q[r][j]
            p = i
        d = Q[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [r for r in range(k) if r != p]
        Q = [[Q[r][c] - Q[r][p] * Q[p][c] / d for c in rest] for r in rest]
    return pos - neg, pos + neg


def _intersection_form(R):
    return [[R.evaluate(a, b) for b in R.basis_facets] for a in R.basis_facets]


def test_cp3_ring():
    R = qt_ring(SIMPLEX, CP3_MATRIX)
    for vert in SIMPLEX.vertex_tuples:
        assert R.evaluate(*vert) in (1, -1)
    assert R.evaluate(*R.base_vertex) == 1


def test_cp3_p1():
    R = qt_ring(SIMPLEX, CP3_MATRIX)
    p1, w2 = pontryagin_w(R)
    # all generators equal; p1 = 4 x^2 pairs to 4 with the degree-2 generator
    assert set(p1.values()) == {4}


def test_cube_opposite_facets_multiply_to_zero():
    R = qt_ring(catalog("cube"), _cube_matrix())
    for x in range(3, 7):
        assert R.evaluate(1, 2, x) == 0
    assert R.evaluate(1, 3, 4) in (1, -1)


def test_omniorientation_sign_flip():
    # flipping the sign of one column flips every evaluation containing it once
    R = qt_ring(catalog("cube"), _cube_matrix())
    rows = [list(r) for r in _cube_matrix().rows]
    for r in range(3):
        rows[r][0] = -rows[r][0]
    R2 = qt_ring(catalog("cube"), CharMatrix(n=3, rows=tuple(tuple(r) for r in rows)))
    for mono in R.evaluation_table():
        parity = mono.count(1) % 2
        want = -R.evaluate(*mono) if parity else R.evaluate(*mono)
        got = R2.evaluate(*mono)
        # both tables are normalized at the (possibly re-signed) base vertex
        base_parity = R.base_vertex.count(1) % 2
        if base_parity:
            want = -want
        assert got == want


def test_linear_relations_annihilate_evaluations():
    # rows of the characteristic matrix give identically-zero functionals
    for P, L in (
        (SIMPLEX, CP3_MATRIX),
        (catalog("cube"), _cube_matrix()),
        (polygon(5), _random_valid_polygon_matrix(5, random.Random(2))),
    ):
        R = qt_ring(P, L)
        n = P.n
        for row in L.rows:
            if n == 3:
                for a, b in itertools.combinations_with_replacement(range(1, P.m + 1), 2):
                    total = sum(
                        row[i - 1] * R.evaluate(i, a, b) for i in range(1, P.m + 1)
                    )
                    assert total == 0
            else:
                for a in range(1, P.m + 1):
                    total = sum(
                        row[i - 1] * R.evaluate(i, a) for i in range(1, P.m + 1)
                    )
                    assert total == 0


def test_hirzebruch_evaluation_table():
    R = qt_ring(polygon(4), _hirzebruch(2))
    table = R.evaluation_table()
    assert table[(1, 2)] == table[(2, 3)] == table[(3, 4)] == table[(1, 4)] == 1
    assert table[(1, 3)] == table[(2, 4)] == 0
    assert table[(3, 3)] == 2 and table[(1, 1)] == -2
    assert table[(2, 2)] == table[(4, 4)] == 0


def test_signature_identity_polygons():
    # Hirzebruch signature theorem p1 = 3 sigma, sigma the signature of the
    # intersection form on H^2, which has rank m - 2
    rng = random.Random(77)
    for m in range(4, 9):
        for _ in range(5):
            L = _random_valid_polygon_matrix(m, rng)
            R = qt_ring(polygon(m), L)
            p1, _ = pontryagin_w(R)
            sigma, rank = _signature(_intersection_form(R))
            assert rank == m - 2
            assert p1 == 3 * sigma
    # toric surfaces (fans winding once) have sigma = 4 - m: p1 = 12 - 3m
    cp2 = ((1, 0), (0, 1), (-1, -1))
    for m in range(4, 9):
        for start in [cp2] + [tuple(zip(*_hirzebruch(k).rows)) for k in range(4)]:
            L = _blown_up_fan(start, m, rng)
            R = qt_ring(polygon(m), L)
            p1, _ = pontryagin_w(R)
            assert _signature(_intersection_form(R)) == (4 - m, m - 2)
            assert p1 == 12 - 3 * m


def test_sc_ring_z2_data():
    D = catalog("dodecahedron")
    L2 = colouring_to_matrix(enumerate_colourings(D)[0]).reduce_mod2()
    N = sc_ring(D, L2)
    assert N.ring == "Z2"
    for vert in D.vertex_tuples:
        assert N.evaluate(*vert) == 1
    # disjoint facets multiply to zero
    assert N.evaluate(1, 2, 3) == 0


def test_sc_ring_rp3():
    L2 = CharMatrix(n=3, rows=((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)), ring="Z2")
    N = sc_ring(SIMPLEX, L2)
    assert all(N.evaluate(*v) == 1 for v in SIMPLEX.vertex_tuples)


def test_qt_ring_rejects_non_characteristic():
    # last column (1, 1, 2): the minor at the vertex (1, 2, 4) is 2
    bad = CharMatrix(n=3, rows=((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 2)))
    with pytest.raises(NotCharacteristic):
        qt_ring(SIMPLEX, bad)
    # columns e1, e2, e3, e1 + e2 + e3 have every vertex minor +-1: CP^3
    # with another omniorientation, so it is accepted
    cp3 = CharMatrix(n=3, rows=((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)))
    R = qt_ring(SIMPLEX, cp3)
    assert all(R.evaluate(*v) in (1, -1) for v in SIMPLEX.vertex_tuples)


def test_ring_isomorphic_same_colouring_class():
    Q5 = catalog("barrel", 5)
    chis = enumerate_colourings(Q5)
    rng = random.Random(12)
    chi = chis[0]
    perm = rng.sample((1, 2, 3, 4), 4)
    chi2 = tuple(perm[c - 1] for c in chi)
    R1 = qt_ring(Q5, colouring_to_matrix(chi))
    R2 = qt_ring(Q5, colouring_to_matrix(chi2))
    for mode in ("pair-equivalence", "generator-restricted"):
        d = ring_isomorphic(R1, R2, mode)
        assert d.isomorphic and d.sound_negative
        assert witness_preserves_p1(R1, R2, d.witness)


def test_ring_isomorphic_modes_agree_on_hirzebruch():
    # non-Pogorelov base: both modes return a (non-definitive) negative
    R2 = qt_ring(polygon(4), _hirzebruch(2))
    R4 = qt_ring(polygon(4), _hirzebruch(4))
    d_pair = ring_isomorphic(R2, R4, "pair-equivalence")
    d_gen = ring_isomorphic(R2, R4, "generator-restricted")
    assert not d_pair.isomorphic and not d_gen.isomorphic
    assert not d_pair.sound_negative and not d_gen.sound_negative


def test_ring_isomorphic_mixed_dimensions():
    R1 = qt_ring(polygon(4), _hirzebruch(2))
    R2 = qt_ring(SIMPLEX, CP3_MATRIX)
    with pytest.raises(ModeUnsupported):
        ring_isomorphic(R1, R2)


def test_generators_pairwise_distinct_pogorelov():
    # |D(M)| = 2m: no generator equals another up to sign in H^2
    D = catalog("dodecahedron")
    R = qt_ring(D, colouring_to_matrix(enumerate_colourings(D)[0]))
    exprs = [R.expressions[i] for i in range(1, 13)]
    for a, b in itertools.combinations(range(12), 2):
        assert exprs[a] != exprs[b]
        assert exprs[a] != tuple(-x for x in exprs[b])


def test_sc_isomorphic_relabeled():
    D = catalog("dodecahedron")
    L2 = colouring_to_matrix(enumerate_colourings(D)[0]).reduce_mod2()
    N1 = sc_ring(D, L2)
    rng = random.Random(6)
    perm = list(range(1, 13))
    rng.shuffle(perm)
    sigma = {i: perm[i - 1] for i in range(1, 13)}
    D2 = D.relabel(sigma)
    cols = [None] * 12
    for i in range(1, 13):
        cols[sigma[i] - 1] = L2.column(i)
    M2 = CharMatrix(
        n=3, rows=tuple(tuple(cols[j][r] for j in range(12)) for r in range(3)),
        ring="Z2",
    )
    N2 = sc_ring(D2, M2)
    decision = sc_isomorphic(N1, N2)
    assert decision.isomorphic
    assert isinstance(decision, IsoDecision)


def test_sc_isomorphic_distinct_classes_barrel6():
    from pogorelov.characteristic import _colour_canonical

    Q6 = catalog("barrel", 6)
    autos = list(Q6.isomorphisms_to(Q6))
    reps = {}
    for chi in enumerate_colourings(Q6):
        reps.setdefault(_colour_canonical(chi, autos), chi)
    classes = list(reps.values())
    rings = [sc_ring(Q6, colouring_to_matrix(chi).reduce_mod2()) for chi in classes]
    for a, b in itertools.combinations(range(4), 2):
        assert not sc_isomorphic(rings[a], rings[b]).isomorphic
    assert sc_isomorphic(rings[0], rings[0]).isomorphic


def test_each_decision_rejects_the_other_coefficient_ring():
    D = catalog("dodecahedron")
    L = colouring_to_matrix(enumerate_colourings(D)[0])
    R, N = qt_ring(D, L), sc_ring(D, L.reduce_mod2())
    with pytest.raises(ModeUnsupported, match="ring_isomorphic"):
        sc_isomorphic(R, R)
    with pytest.raises(ModeUnsupported, match="ring_isomorphic"):
        sc_isomorphic(N, R)
    for mode in ("pair-equivalence", "generator-restricted"):
        with pytest.raises(ModeUnsupported, match="sc_isomorphic"):
            ring_isomorphic(N, N, mode)
        with pytest.raises(ModeUnsupported, match="sc_isomorphic"):
            ring_isomorphic(R, N, mode)
    assert sc_isomorphic(N, N).isomorphic and ring_isomorphic(R, R).isomorphic


def _shear_scramble(L, rng, hard=False):
    """Act on the rows of L by a signed permutation and three +-1 shears, or
    (``hard``) three +-1/+-2 shears redrawn until the largest entry is 3 to
    5, and flip column signs."""
    n = L.n
    while True:
        perm = rng.sample(range(n), n)
        A = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2) if hard else (1, -1))
            for t in range(n):
                A[i][t] += c * A[j][t]
        if not hard or 3 <= max(abs(a) for row in A for a in row) <= 5:
            break
    signs = [rng.choice((1, -1)) for _ in range(L.m)]
    return CharMatrix(
        n=n,
        rows=tuple(
            tuple(signs[i] * sum(A[r][s] * L.rows[s][i] for s in range(n)) for i in range(L.m))
            for r in range(n)
        ),
        ring=L.ring,
    )


def _reference_top_values(P, L):
    """Top-form values from the definition: the face-supported degree-n
    monomials modulo the products of L's raw rows with every degree-(n-1)
    monomial, each unit vector projected to the free coordinate of the dense
    quotient and normalised so the base vertex evaluates to 1."""
    monos = _face_supported_monomials(P, P.n)
    index = {mo: i for i, mo in enumerate(monos)}
    relations = []
    for row in L.rows:
        for T in itertools.combinations_with_replacement(range(1, P.m + 1), P.n - 1):
            rel = [0] * len(monos)
            for i in range(1, P.m + 1):
                pos = index.get(tuple(sorted(T + (i,))))
                if pos is not None:
                    rel[pos] += row[i - 1]
            if any(rel):
                relations.append(rel)
    base = index[tuple(sorted(min(P.vertex_tuples)))]
    if L.ring == "Z2":
        ech = GF2Echelon()
        for rel in relations:
            ech.add(gf2_vector(rel))
        return {mo: int(ech.reduce(1 << pos)[0] != 0) for pos, mo in enumerate(monos)}
    quo = ZQuotient(len(monos), relations)
    raw = [quo.coords([int(i == pos) for i in range(len(monos))])[0][0] for pos in range(len(monos))]
    return {mo: raw[base] * raw[pos] for pos, mo in enumerate(monos)}


def test_top_form_matches_its_definition():
    rng = random.Random(31)
    D = catalog("dodecahedron")
    shapes = (
        catalog("cube"), catalog("prism", 6), D, catalog("barrel", 6),
        edge_truncate(D, D.edges()[7]),
    )
    for P in shapes:
        L = colouring_to_matrix(rng.choice(enumerate_colourings(P)))
        scrambles = [_shear_scramble(L, rng) for _ in range(3)]
        for M in [L] + scrambles + [_shear_scramble(L, rng, hard=True) for _ in range(2)]:
            assert qt_ring(P, M).top.value == _reference_top_values(P, M)
            M2 = M.reduce_mod2()
            assert sc_ring(P, M2).top.value == _reference_top_values(P, M2)
    for m in (3, 4, 5, 7):
        fans = [_random_valid_polygon_matrix(m, rng) for _ in range(3)]
        fans.append(_blown_up_fan([(1, 0), (0, 1), (-1, -1)], m, rng))
        for L in fans + [_shear_scramble(L, rng, hard=True) for L in fans]:
            assert qt_ring(polygon(m), L).top.value == _reference_top_values(polygon(m), L)
            L2 = L.reduce_mod2()
            assert sc_ring(polygon(m), L2).top.value == _reference_top_values(polygon(m), L2)


def test_top_forms_of_colouring_matrices_make_no_dense_smith_pass(monkeypatch):
    calls = []
    real = _intlinalg.diagonalize

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(_intlinalg, "diagonalize", counting)
    rng = random.Random(8)
    for P in (catalog("dodecahedron"), catalog("barrel", 6)):
        for chi in rng.sample(enumerate_colourings(P), 5):
            L = colouring_to_matrix(chi)
            qt_ring(P, L)
            sc_ring(P, L.reduce_mod2())
    assert calls == []
    # the counter sees the dense pass where one runs
    ZQuotient(2, [[2, 3]])
    assert calls == [2]


def test_qt_ring_on_scrambled_dodecahedron_finishes():
    # the six +-1/+-2 shears drawn from this seed give entries up to 17;
    # relations built from those raw rows make the integer Smith form behind
    # qt_ring grow its coefficients without bound
    D = catalog("dodecahedron")
    L = colouring_to_matrix(enumerate_colourings(D)[0])
    P2, L2 = _scramble(D, L, random.Random(125))

    def give_up(signum, frame):
        raise TimeoutError("qt_ring on a scrambled dodecahedron matrix ran past 20 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    try:
        R2 = qt_ring(P2, L2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert ring_isomorphic(qt_ring(D, L), R2, "generator-restricted").isomorphic
