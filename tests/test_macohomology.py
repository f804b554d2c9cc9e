import gc
import itertools
import weakref

import pytest

from pogorelov import macohomology
from pogorelov.belts import enumerate_belts, is_flag_polytope
from pogorelov.complex import full_subcomplex, new_complex, reduced_cohomology
from pogorelov.constructions import vertex_truncate
from pogorelov.macohomology import (
    InternalMismatch,
    KoszulMonomial,
    MultigradedCohomology,
    RingElement,
    annihilator_dim,
    betti_numbers,
    cohomology,
    cup_product,
    decomposability_report,
    h3_basis,
    h3_square_trivial,
    r_complex,
)
from pogorelov.polytope import catalog, dual_complex

TWO_SEGMENTS = new_complex(4, [(1, 2), (3, 4)])


@pytest.fixture(scope="module")
def coh_two_segments():
    return cohomology(TWO_SEGMENTS, "Z")


@pytest.fixture(scope="module")
def coh_dodeca():
    return cohomology(dual_complex(catalog("dodecahedron")), "Z")


def test_r_complex_basics():
    rc = r_complex(TWO_SEGMENTS)
    # d(u_i) = v_i on singleton multidegrees
    assert rc.d({0: 1}, (1,)) == {1 << 0: 1}
    # empty multidegree: basis {1}, zero differential
    basis = rc.basis(())
    assert basis == {0: [KoszulMonomial(J=(), I=())]}
    assert rc.d({0: 1}, ()) == {}


def test_r_complex_d_squared_zero():
    rc = r_complex(TWO_SEGMENTS)
    for r in range(5):
        for J in itertools.combinations(range(1, 5), r):
            assert rc.check_d_squared(J)


def test_degree5_generator_of_example_complex(coh_two_segments):
    # the difference u1u2u4 v3 - u1u2u3 v4 is a cocycle generating H^5;
    # the monomials themselves are not cocycles
    rc = r_complex(TWO_SEGMENTS)
    full = (1, 2, 3, 4)
    assert rc.d({(1 << 2): 1, (1 << 3): -1}, full) == {}
    assert rc.d({(1 << 2): 1}, full) != {}
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
    K = dual_complex(catalog("cube"))
    coh = MultigradedCohomology(K, coeffs)
    a, b = coh.h3_class(1, 2), coh.h3_class(3, 5)  # checked before the patch
    _report_one_extra_rank(monkeypatch)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).h3_class(1, 2)
    with pytest.raises(InternalMismatch):
        cup_product(a, b)  # builds level 2 of multidegree (1, 2, 3, 5)
    with pytest.raises(InternalMismatch):
        MultigradedCohomology(K, coeffs).component((1, 2, 3, 5)).piece(2)


def test_h3_square_trivial_builds_one_piece_per_component(monkeypatch):
    built, route2, real = [], [], macohomology.reduced_cohomology

    class CountingPiece(macohomology._PieceZ):
        __slots__ = ()

        def __init__(self, basis, *args):
            built.append(basis)
            super().__init__(basis, *args)

    def counting_route2(K, coeffs="Z"):
        route2.append(K)
        return real(K, coeffs)

    monkeypatch.setattr(macohomology, "_PieceZ", CountingPiece)
    monkeypatch.setattr(macohomology, "reduced_cohomology", counting_route2)
    P = catalog("dodecahedron")
    H = MultigradedCohomology(dual_complex(P), "Z")
    assert h3_square_trivial(P, H)
    comps = H._components
    # 36 H^3 classes read level 1 of |J| = 2; products read level 2 of |J| = 4
    assert {(jm.bit_count(), tuple(c._pieces)) for jm, c in comps.items()} == {
        (2, (1,)),
        (4, (2,)),
    }
    assert len(built) == len(route2) == len(comps)


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("name,k", [("cube", None), ("prism", 5)])
def test_pieces_built_one_at_a_time_equal_compute_all(monkeypatch, name, k, coeffs):
    K = dual_complex(catalog(name, k))
    ref = cohomology(K, coeffs)
    mats, route2 = [], []
    real_matrix, real_route2 = macohomology._r_matrix, macohomology.reduced_cohomology

    def recording_matrix(basis, jmask, p):
        mats.append((jmask, p))
        return real_matrix(basis, jmask, p)

    def counting_route2(sub, coeffs="Z"):
        route2.append(sub)
        return real_route2(sub, coeffs)

    monkeypatch.setattr(macohomology, "_r_matrix", recording_matrix)
    monkeypatch.setattr(macohomology, "reduced_cohomology", counting_route2)
    fresh = MultigradedCohomology(K, coeffs)
    for jmask in range(1 << K.m):
        comp = fresh.component(jmask)
        want = ref.component(jmask).pieces
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
        # every level is built: the basis, differentials and route 2 are let go
        assert (comp._basis, comp._mats, comp._hochster) == (None, None, None)
        assert comp.pieces.keys() == want.keys()
    assert len(mats) == len(set(mats))
    assert len(route2) == 1 << K.m
    assert fresh.betti() == ref.betti()
    assert fresh.torsion_summary() == ref.torsion_summary()


def test_cohomology_is_freed_without_the_cyclic_gc():
    P = catalog("prism", 5)
    gc.disable()
    try:
        H = MultigradedCohomology(dual_complex(P), "Z")
        ref = weakref.ref(H)
        assert not h3_square_trivial(P, H)
        assert H._components
        del H
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
    rep = decomposability_report(P, "q", degrees=[P.m - 2])
    assert rep[P.m - 2] > 0


def test_decomposability_flag_polytopes_h1_parts():
    for name, k in (("cube", None), ("prism", 5), ("prism", 6)):
        P = catalog(name, k)
        assert decomposability_report(P, "q", levels=(2, 3)) == {}


def test_decomposability_degree_m_minus_2_flag():
    for name, k in (("cube", None), ("prism", 5), ("prism", 6)):
        P = catalog(name, k)
        rep = decomposability_report(P, "q", degrees=[P.m - 2])
        assert rep[P.m - 2] == 0


def test_annihilator_extremes(coh_dodeca):
    D = catalog("dodecahedron")
    total = coh_dodeca.total_dim()
    assert annihilator_dim(D, RingElement(coh_dodeca, {}), "q", cohom=coh_dodeca) == total
    assert annihilator_dim(D, coh_dodeca.unit(), "q", cohom=coh_dodeca) == 0


def test_annihilator_lemma_inequality_z2():
    D = catalog("dodecahedron")
    coh2 = cohomology(dual_complex(D), "Z2")
    pairs = h3_basis(dual_complex(D))
    samples = [(pairs[0], pairs[7]), (pairs[3], pairs[20]), (pairs[11], pairs[30])]
    for pr1, pr2 in samples:
        alpha = coh2.h3_class(*pr1) + coh2.h3_class(*pr2)
        d_alpha = annihilator_dim(D, alpha, "z2", cohom=coh2)
        for pr in (pr1, pr2):
            d_single = annihilator_dim(D, coh2.h3_class(*pr), "z2", cohom=coh2)
            assert d_single > d_alpha


def test_monomial_formatting():
    mono = KoszulMonomial(J=(1, 2), I=(3,))
    assert str(mono) == "u1 u2 v3"
    assert mono.degree == 4
    assert str(KoszulMonomial(J=(), I=())) == "1"
