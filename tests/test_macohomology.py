import gc
import weakref

import pytest

from pogorelov import macohomology
from pogorelov.belts import enumerate_belts, is_flag_polytope
from pogorelov.complex import (
    full_subcomplex,
    new_complex,
    reduced_cohomology,
    sphere_subcomplex_ranks,
)
from pogorelov.constructions import vertex_truncate
from pogorelov.macohomology import (
    InternalMismatch,
    KoszulMonomial,
    MultigradedCohomology,
    RingElement,
    _r_matrix,
    _rank,
    annihilator_dim,
    betti_numbers,
    cohomology,
    cup_product,
    decomposability_report,
    h3_basis,
    h3_square_trivial,
    r_basis,
)
from pogorelov.polytope import catalog, dual_complex
from test_complex import RP2, TORUS

TWO_SEGMENTS = new_complex(4, [(1, 2), (3, 4)])


@pytest.fixture(scope="module")
def coh_two_segments():
    return cohomology(TWO_SEGMENTS, "Z")


@pytest.fixture(scope="module")
def coh_dodeca():
    return cohomology(dual_complex(catalog("dodecahedron")), "Z")


def test_r_complex_basics(coh_two_segments):
    # d(u_i) = v_i on singleton multidegrees
    basis = r_basis(TWO_SEGMENTS, (1,))
    assert basis == {0: [0], 1: [1 << 0]}
    assert _r_matrix(basis, 1 << 0, 0) == [{0: 1}]
    # empty multidegree: basis {1}, zero differential (one empty column), the
    # class of 1 is the unit
    basis = r_basis(TWO_SEGMENTS, ())
    assert basis == {0: [0]}
    assert _r_matrix(basis, 0, 0) == [{}]
    assert coh_two_segments.from_chain((), {(): 1}) == coh_two_segments.unit()


def test_degree5_generator_of_example_complex(coh_two_segments):
    # the difference u1u2u4 v3 - u1u2u3 v4 is a cocycle generating H^5;
    # the monomials themselves are not cocycles
    full = (1, 2, 3, 4)
    basis = r_basis(TWO_SEGMENTS, full)
    d = dict(zip(basis[1], _r_matrix(basis, 0b1111, 1)))
    assert d[1 << 2] == d[1 << 3] != {}
    with pytest.raises(ValueError, match="not a cocycle"):
        coh_two_segments.from_chain(full, {(3,): 1})
    gen = coh_two_segments.from_chain(full, {(3,): 1, (4,): -1})
    ((key, coeff),) = gen.terms.items()
    assert coeff in (1, -1)
    comp = coh_two_segments.component(full)
    assert comp.rank(1) == 1


def test_two_segments_betti(coh_two_segments):
    assert coh_two_segments.betti() == {0: 1, 3: 4, 4: 4, 5: 1}
    assert coh_two_segments.torsion_summary() == {}


def test_cube_betti():
    assert betti_numbers(dual_complex(catalog("cube"))) == {0: 1, 3: 3, 6: 3, 9: 1}


def test_simplex_betti():
    assert betti_numbers(dual_complex(catalog("simplex"))) == {0: 1, 7: 1}


def test_h3_basis_counts():
    assert h3_basis(TWO_SEGMENTS) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert len(h3_basis(dual_complex(catalog("dodecahedron")))) == 36
    assert h3_basis(dual_complex(catalog("simplex"))) == []


def test_h3_class_needs_two_distinct_vertices():
    coh = MultigradedCohomology(dual_complex(catalog("cube")), "Z")
    with pytest.raises(ValueError, match="two distinct vertices"):
        coh.h3_class(1, 1)


def test_multidegree_with_a_vertex_above_m_is_rejected():
    coh = MultigradedCohomology(dual_complex(catalog("cube")), "Z")
    for call in (
        lambda: coh.component((1, 9)).rank(1),
        lambda: coh.class_element((1, 9), 1),
    ):
        with pytest.raises(ValueError, match="vertex 9 lies above m = 6"):
            call()
    assert not coh._components


def test_vertex_zero_and_negative_vertices_are_rejected_by_name():
    coh = MultigradedCohomology(dual_complex(catalog("cube")), "Z")
    for call, v in (
        (lambda: coh.component((0, 1)), 0),
        (lambda: coh.h3_class(0, 2), 0),
        (lambda: coh.from_chain((1, 2), {(0,): 1}), 0),
        (lambda: coh.component((-3, 1)), -3),
        (lambda: coh.class_element((2, -1), 1), -1),
    ):
        with pytest.raises(ValueError, match=f"vertex {v} lies below 1; vertices are 1..6"):
            call()
    with pytest.raises(ValueError, match="multidegree mask -1 is negative"):
        coh.component(-1)
    assert not coh._components


def test_h3_rank_equals_nonadjacent_pairs():
    for P in (catalog("cube"), catalog("prism", 5), catalog("barrel", 5)):
        K = dual_complex(P)
        coh = MultigradedCohomology(K, "Z")
        pairs = h3_basis(K)
        rank3 = sum(
            coh.component(tuple(pr)).rank(1) for pr in pairs
        )
        assert rank3 == len(pairs)


def test_example_216_product_vanishes(coh_two_segments):
    a = coh_two_segments.h3_class(1, 3)
    b = coh_two_segments.h3_class(2, 4)
    assert cup_product(a, b).is_zero()


def test_overlapping_multidegrees_vanish(coh_two_segments):
    a = coh_two_segments.h3_class(1, 3)
    b = coh_two_segments.h3_class(1, 4)
    assert cup_product(a, b).is_zero()


def test_unit_law(coh_two_segments):
    one = coh_two_segments.unit()
    for pr in h3_basis(TWO_SEGMENTS):
        a = coh_two_segments.h3_class(*pr)
        assert cup_product(one, a) == a
        assert cup_product(a, one) == a


def test_product_criterion_small_corpus():
    for P in (
        catalog("simplex"),
        catalog("cube"),
        catalog("prism", 3),
        catalog("prism", 5),
        catalog("dodecahedron"),
    ):
        assert h3_square_trivial(P) == (len(enumerate_belts(P, 4)) == 0)


def test_nontrivial_product_from_cube_belt():
    # each 4-belt of the cube pairs two H^3 classes into a nonzero product
    K = dual_complex(catalog("cube"))
    coh = MultigradedCohomology(K, "Z")
    a = coh.h3_class(1, 2)
    b = coh.h3_class(3, 5)
    assert not cup_product(a, b).is_zero()


def test_graded_commutativity_and_associativity():
    K = dual_complex(catalog("cube"))
    coh = MultigradedCohomology(K, "Z")
    a = coh.h3_class(1, 2)
    b = coh.h3_class(3, 5)
    c = coh.h3_class(4, 6)
    # odd degrees: ab = -ba
    assert cup_product(a, b) == -cup_product(b, a)
    assert cup_product(cup_product(a, b), c) == cup_product(a, cup_product(b, c))
    # squares of odd classes vanish over Z
    assert cup_product(a, a).is_zero()


def test_poincare_duality_and_no_torsion(coh_dodeca):
    b = coh_dodeca.betti()
    m = 12
    for ell in range(m + 4):
        assert b.get(ell, 0) == b.get(m + 3 - ell, 0)
    assert coh_dodeca.torsion_summary() == {}


def test_hochster_crosscheck_runs_everywhere():
    # the route-1 / route-2 comparison is built into every piece; a full
    # sweep over a small polytope exercises it for all multidegrees
    cohomology(dual_complex(catalog("prism", 3)), "Z")
    cohomology(dual_complex(catalog("prism", 3)), "Z2")


def _count_one_extra_rank(monkeypatch):
    """Make the counting route (the check on 2-spheres) disagree on every level."""
    real = macohomology.sphere_subcomplex_ranks

    def one_extra(K, J):
        return tuple(r + 1 for r in real(K, J))

    monkeypatch.setattr(macohomology, "sphere_subcomplex_ranks", one_extra)


def _report_one_extra_rank(monkeypatch):
    """Make route 2 (the full-subcomplex cohomology) disagree on every level."""
    real = macohomology.reduced_cohomology

    def one_extra(K, coeffs="Z"):
        h = real(K, coeffs)
        ranks = {d: h.rank(d) + 1 for d in range(-1, K.m)}
        return type(h)(coeffs=h.coeffs, ranks=ranks, torsion=h.torsion)

    monkeypatch.setattr(macohomology, "reduced_cohomology", one_extra)


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
def test_hochster_mismatch_raises_on_pieces_built_on_demand(monkeypatch, coeffs):
    # the dual of a polytope is a 2-sphere: its pieces are checked by counting
    K = dual_complex(catalog("cube"))
    coh = MultigradedCohomology(K, coeffs)
    a, b = coh.h3_class(1, 2), coh.h3_class(3, 5)  # checked before the patch
    _count_one_extra_rank(monkeypatch)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).h3_class(1, 2)
    with pytest.raises(InternalMismatch):
        cup_product(a, b)  # builds level 2 of multidegree (1, 2, 3, 5)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).component((1, 2, 3, 5)).piece(2)


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
def test_route2_mismatch_raises_off_spheres(monkeypatch, coeffs):
    # two segments are no 2-sphere: their pieces are checked by route 2
    K = TWO_SEGMENTS
    assert not K.is_two_sphere()
    coh = MultigradedCohomology(K, coeffs)
    a, b = coh.h3_class(1, 3), coh.h3_class(2, 4)  # checked before the patch
    _report_one_extra_rank(monkeypatch)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).h3_class(1, 3)
    with pytest.raises(InternalMismatch):
        cup_product(a, b)  # builds level 2 of multidegree (1, 2, 3, 4)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).component((1, 2, 3, 4)).piece(2)


def _record_builds_and_checks(monkeypatch):
    """Lists of (jmask, level) for every piece built and every level checked,
    and of the complexes passed to route 2."""
    built, checked, route2 = [], [], []
    real_build, real_check = macohomology.Component._build, macohomology.Component._check
    real_route2 = macohomology.reduced_cohomology

    def recording_build(comp, p, lvl):
        built.append((comp.jmask, p))
        return real_build(comp, p, lvl)

    def recording_check(comp, p, piece):
        checked.append((comp.jmask, p))
        return real_check(comp, p, piece)

    def counting_route2(sub, coeffs="Z"):
        route2.append(sub)
        return real_route2(sub, coeffs)

    monkeypatch.setattr(macohomology.Component, "_build", recording_build)
    monkeypatch.setattr(macohomology.Component, "_check", recording_check)
    monkeypatch.setattr(macohomology, "reduced_cohomology", counting_route2)
    return built, checked, route2


def _record_cohomologies(monkeypatch, keep=lambda H: H):
    """``keep(H)`` for every MultigradedCohomology H that macohomology creates."""
    made = []

    class Recording(MultigradedCohomology):
        def __init__(self, K, coeffs="Z"):
            super().__init__(K, coeffs)
            made.append(keep(self))

    monkeypatch.setattr(macohomology, "MultigradedCohomology", Recording)
    return made


def test_h3_square_trivial_builds_one_piece_per_component(monkeypatch):
    built, checked, route2 = _record_builds_and_checks(monkeypatch)
    made = _record_cohomologies(monkeypatch)
    P = catalog("dodecahedron")
    K = dual_complex(P)
    assert h3_square_trivial(P)
    (H,) = made
    # the 36 H^3 classes read level 1 of |J| = 2; every product target counts zero
    want = {(1 << (i - 1) | 1 << (j - 1), 1) for i, j in h3_basis(K)}
    assert len(want) == 36
    assert sorted(built) == sorted(checked) == sorted(want)
    assert {jm: tuple(c._pieces) for jm, c in H._components.items()} == {
        jm: (1,) for jm, _ in want
    }
    assert route2 == []


@pytest.mark.parametrize("name,k", [("cube", None), ("prism", 5)])
def test_h3_square_trivial_builds_and_checks_the_nonzero_target(monkeypatch, name, k):
    built, checked, route2 = _record_builds_and_checks(monkeypatch)
    P = catalog(name, k)
    K = dual_complex(P)
    assert not h3_square_trivial(P)
    classes = {(1 << (i - 1) | 1 << (j - 1), 1) for i, j in h3_basis(K)}
    targets = [key for key in built if key not in classes]
    # the one target built is a 4-belt at level 2, where the product is non-zero
    assert len(targets) == 1
    jm, p = targets[0]
    belts = {sum(1 << (f - 1) for f in belt) for belt in enumerate_belts(P, 4)}
    assert p == 2 and jm in belts
    assert len(built) == len(set(built)) and sorted(built) == sorted(checked)
    assert route2 == []


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("name,k", [("cube", None), ("prism", 5)])
def test_pieces_built_one_at_a_time_equal_compute_all(monkeypatch, name, k, coeffs):
    K = dual_complex(catalog(name, k))
    ref = cohomology(K, coeffs)
    # the reference pieces, built before the recorders go in
    wants = {jmask: ref.component(jmask).pieces for jmask in range(1 << K.m)}
    mats, counted = [], []
    real_matrix, real_count = macohomology._r_matrix, macohomology.sphere_subcomplex_ranks

    def recording_matrix(basis, jmask, p):
        mats.append((jmask, p))
        return real_matrix(basis, jmask, p)

    def recording_count(K, J):
        counted.append(J)
        return real_count(K, J)

    monkeypatch.setattr(macohomology, "_r_matrix", recording_matrix)
    monkeypatch.setattr(macohomology, "sphere_subcomplex_ranks", recording_count)
    built, checked, route2 = _record_builds_and_checks(monkeypatch)
    fresh = MultigradedCohomology(K, coeffs)
    for jmask in range(1 << K.m):
        comp = fresh.component(jmask)
        want = wants[jmask]
        for p in range(jmask.bit_count(), -1, -1):
            got = comp.piece(p)
            if p not in want:
                assert got is None
                continue
            assert (got.basis, got.rank, got.torsion, got.reps) == (
                want[p].basis,
                want[p].rank,
                want[p].torsion,
                want[p].reps,
            )
        # every level is built: the basis, differentials and the count are let go
        assert (comp._basis, comp._mats, comp._hochster) == (None, None, None)
        assert comp.pieces.keys() == want.keys()
    assert len(mats) == len(set(mats))
    # each level of each multidegree is checked exactly once, by one count
    every_level = [(jm, p) for jm in range(1 << K.m) for p in range(jm.bit_count() + 1)]
    assert sorted(checked) == every_level
    assert sorted(counted) == list(range(1 << K.m))
    assert set(built) <= set(checked)
    assert route2 == []
    assert fresh.betti() == ref.betti()
    assert fresh.torsion_summary() == ref.torsion_summary()


def test_cohomology_is_freed_without_the_cyclic_gc(monkeypatch):
    P = catalog("prism", 5)
    made = _record_cohomologies(monkeypatch, keep=weakref.ref)
    gc.disable()
    try:
        assert not h3_square_trivial(P)
        # the call's own cohomology, with its components, is gone once it returns
        (ref,) = made
        assert ref() is None
    finally:
        gc.enable()


def test_hochster_shift_explicit():
    # H^{-i,2J} rank equals reduced cohomology of K_J in degree |J|-i-1
    K = dual_complex(catalog("prism", 5))
    coh = MultigradedCohomology(K, "Z")
    for J in [(1, 2), (1, 2, 3), (3, 5, 7), (1, 2, 3, 4, 5)]:
        comp = coh.component(J)
        h = reduced_cohomology(full_subcomplex(K, J))
        for p in range(len(J) + 1):
            assert comp.rank(p) == h.rank(p - 1)


def test_decomposability_triple_truncated_simplex():
    P = catalog("simplex")
    for _ in range(3):
        P = vertex_truncate(P, P.vertex_tuples[0])
    assert not is_flag_polytope(P)
    rep = decomposability_report(cohomology(dual_complex(P), "Z"), degrees=[P.m - 2])
    assert rep[P.m - 2] > 0


def test_decomposability_flag_polytopes_h1_parts():
    for name, k in (("cube", None), ("prism", 5), ("prism", 6)):
        K = dual_complex(catalog(name, k))
        for coeffs in ("Z", "Z2"):
            assert decomposability_report(cohomology(K, coeffs), levels=(2, 3)) == {}


def test_decomposability_degree_m_minus_2_flag():
    for name, k in (("cube", None), ("prism", 5), ("prism", 6)):
        K = dual_complex(catalog(name, k))
        for coeffs in ("Z", "Z2"):
            rep = decomposability_report(cohomology(K, coeffs), degrees=[K.m - 2])
            assert rep[K.m - 2] == 0


def test_rank_is_over_the_field_of_the_coefficients_and_splits_into_blocks():
    # a triangle of rows: dependent mod 2, independent over Q
    triangle = [{"a": 1, "b": 1}, {"b": 1, "c": 1}, {"a": 1, "c": 1}]
    assert (_rank(triangle, "Z"), _rank(triangle, "Z2")) == (3, 2)
    assert (_rank([{"a": 2}], "Z"), _rank([{"a": 2}], "Z2")) == (1, 0)
    # columns on disjoint rows add their ranks; empty columns count nothing
    blocks = triangle + [{}, {"d": 1, "e": 1}, {"d": 3, "e": 3}, {"f": -1}]
    assert (_rank(blocks, "Z"), _rank(blocks, "Z2")) == (5, 4)
    assert _rank(iter(blocks), "Z") == 5


@pytest.mark.parametrize(
    "K,coeffs,want",
    [
        # H*(Z_RP2; Z) has 2-torsion in degree 9, which over Z2 gives one
        # more indecomposable class in each of degrees 8 and 9
        (RP2, "Z", {5: 10, 6: 15, 7: 6}),
        (RP2, "Z2", {5: 10, 6: 15, 7: 6, 8: 1, 9: 1}),
        (TORUS, "Z", {5: 21, 6: 49, 7: 42, 8: 14, 9: 2, 10: 1}),
        (TORUS, "Z2", {5: 21, 6: 49, 7: 42, 8: 14, 9: 2, 10: 1}),
    ],
    ids=["RP2-Z", "RP2-Z2", "torus-Z", "torus-Z2"],
)
def test_decomposability_report_off_2_spheres(K, coeffs, want):
    assert decomposability_report(cohomology(K, coeffs)) == want


def test_annihilator_extremes(coh_dodeca):
    # zero annihilates every class and the unit none, over Z and over Z2;
    # RP2's Z2 ring is larger than its free Z part (torsion)
    rings = [
        (coh_dodeca, coh_dodeca.total_dim()),
        (cohomology(RP2, "Z"), 32),
        (cohomology(RP2, "Z2"), 34),
    ]
    for H, total in rings:
        assert annihilator_dim(RingElement(H, {})) == total
        assert annihilator_dim(H.unit()) == 0


def test_annihilator_dim_completes_the_ring_of_its_element():
    # the element's ring need not be built in full beforehand
    K = dual_complex(catalog("cube"))
    lazy = MultigradedCohomology(K, "Z2")
    x = lazy.h3_class(1, 2)
    assert annihilator_dim(x) == annihilator_dim(cohomology(K, "Z2").h3_class(1, 2))


def test_annihilator_lemma_inequality_z2():
    D = catalog("dodecahedron")
    coh2 = cohomology(dual_complex(D), "Z2")
    pairs = h3_basis(dual_complex(D))
    samples = [(pairs[0], pairs[7]), (pairs[3], pairs[20]), (pairs[11], pairs[30])]
    for pr1, pr2 in samples:
        alpha = coh2.h3_class(*pr1) + coh2.h3_class(*pr2)
        d_alpha = annihilator_dim(alpha)
        for pr in (pr1, pr2):
            d_single = annihilator_dim(coh2.h3_class(*pr))
            assert d_single > d_alpha


def test_monomial_formatting():
    mono = KoszulMonomial(J=(1, 2), I=(3,))
    assert str(mono) == "u1 u2 v3"
    assert mono.degree == 4
    assert str(KoszulMonomial(J=(), I=())) == "1"


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
def test_monomials_round_trip_through_from_chain(coeffs):
    H = cohomology(dual_complex(catalog("cube")), coeffs)
    classes = list(H.basis_classes())
    assert len(classes) == 8
    for jm, p, i in classes:
        x = RingElement(H, {(jm, p, i): 1})
        monos = x.monomials()
        assert monos
        for c, mo in monos:
            assert c and sum(1 << (f - 1) for f in mo.J + mo.I) == jm
            assert mo.degree == jm.bit_count() + p
        assert H.from_chain(jm, {mo.I: c for c, mo in monos}) == x


def test_ring_element_terms_are_read_only_and_chains_cached():
    coh = MultigradedCohomology(dual_complex(catalog("cube")), "Z")
    a = coh.h3_class(1, 2)
    key = next(iter(a.terms))
    with pytest.raises(TypeError):
        a.terms[key] = 5
    with pytest.raises(AttributeError):
        a.terms = {}
    assert a.chains() is a.chains()
    # equality, hashing and sums behave as on plain dicts of terms
    b = RingElement(coh, dict(a.terms))
    assert a == b and hash(a) == hash(b)
    assert dict((a + b).terms) == {key: 2 * a.terms[key]}
    assert (a - b).is_zero() and dict(a.terms) == {key: a.terms[key]}


def test_elements_of_two_cohomologies_do_not_mix():
    K = dual_complex(catalog("cube"))
    a = MultigradedCohomology(K, "Z").h3_class(1, 2)
    b = MultigradedCohomology(K, "Z").h3_class(3, 5)
    message = "^elements live over different cohomologies$"
    with pytest.raises(ValueError, match=message):
        a + b
    with pytest.raises(ValueError, match=message):
        cup_product(a, b)


def test_differentials_are_built_only_between_two_non_empty_levels(monkeypatch):
    calls = []

    def recording(basis, jmask, p):
        calls.append(p in basis and p + 1 in basis)
        return _r_matrix(basis, jmask, p)

    monkeypatch.setattr(macohomology, "_r_matrix", recording)
    K = dual_complex(catalog("prism", 7))
    counted = {}  # Hochster: level p of multidegree J is H~^{p-1}(K_J)
    for jmask in range(1 << K.m):
        for p, r in enumerate(sphere_subcomplex_ranks(K, jmask)):
            if r:
                d = jmask.bit_count() + p
                counted[d] = counted.get(d, 0) + r
    for coeffs in ("Z", "Z2"):
        calls.clear()
        H = cohomology(K, coeffs)
        assert {d: b for d, b in H.betti().items() if b} == counted
        assert calls and all(calls), calls.count(False)
    # the piece path as well: products on Pogorelov polytopes, whose |J| = 2
    # components have an empty level 2, hand out d_1's columns empty
    for P in (catalog("dodecahedron"), catalog("barrel", 6)):
        calls.clear()
        assert h3_square_trivial(P)
        assert calls and all(calls), calls.count(False)
