"""Counting (Hochster's formula on 2-spheres) against the Smith-form route,
and the target levels that products skip because counting shows them zero."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pogorelov import macohomology
from pogorelov.belts import enumerate_belts, has_belt
from pogorelov.complex import (
    _unmask,
    full_subcomplex,
    reduced_cohomology,
    sphere_subcomplex_ranks,
)
from pogorelov.constructions import edge_cut_all, edge_truncate, vertex_truncate
from pogorelov.macohomology import (
    MultigradedCohomology,
    cup_product,
    h3_basis,
    h3_square_trivial,
)
from pogorelov.polytope import catalog, dual_complex

SMALL_CATALOG = [
    ("simplex", None),
    ("cube", None),
    ("prism", 3),
    ("prism", 5),
    ("dodecahedron", None),
]


def _edge_truncated_dodecahedron():
    D = catalog("dodecahedron")
    return edge_truncate(D, D.edges()[0])


@st.composite
def truncations(draw, max_cuts=4):
    """The simplex or the cube after a few random vertex and edge truncations."""
    P = catalog(draw(st.sampled_from(["simplex", "cube"])))
    for _ in range(draw(st.integers(min_value=0, max_value=max_cuts))):
        if draw(st.booleans()):
            P = vertex_truncate(P, draw(st.sampled_from(P.vertex_tuples)))
        else:
            P = edge_truncate(P, draw(st.sampled_from(P.edges())))
    return P


def _assert_counting_matches_route2(K):
    assert K.is_two_sphere()
    for jmask in range(1 << K.m):
        counted = sphere_subcomplex_ranks(K, jmask)
        sub = full_subcomplex(K, _unmask(jmask))
        for coeffs in ("Z", "Z2"):
            h = reduced_cohomology(sub, coeffs)
            assert counted == tuple(h.rank(d) for d in range(-1, 3)), (jmask, coeffs)
            assert not h.torsion


@pytest.mark.parametrize("name,k", SMALL_CATALOG)
def test_counting_equals_route2_on_every_multidegree(name, k):
    _assert_counting_matches_route2(dual_complex(catalog(name, k)))


@settings(max_examples=15, deadline=None)
@given(truncations())
def test_counting_equals_route2_on_truncations(P):
    _assert_counting_matches_route2(dual_complex(P))


@settings(max_examples=15, deadline=None)
@given(truncations())
def test_product_criterion_on_truncations(P):
    assert h3_square_trivial(P) == (not has_belt(P, 4))


def test_product_criterion_on_edge_truncated_edge_cut_dodecahedron():
    Q = edge_cut_all(catalog("dodecahedron"))
    P = edge_truncate(Q, Q.edges()[0])
    assert P.m == 43
    assert has_belt(P, 4)
    assert not h3_square_trivial(P)


def _all_h3_products(K, coeffs):
    """Every product of two H^3 basis classes on disjoint multidegrees."""
    H = MultigradedCohomology(K, coeffs)
    classes = {pr: H.h3_class(*pr) for pr in h3_basis(K)}
    return {
        (pr1, pr2): dict(cup_product(classes[pr1], classes[pr2]).terms)
        for pr1, pr2 in itertools.combinations(classes, 2)
        if not set(pr1) & set(pr2)
    }


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog("cube"),
        lambda: catalog("prism", 5),
        lambda: catalog("barrel", 6),
        lambda: catalog("dodecahedron"),
        _edge_truncated_dodecahedron,
    ],
    ids=["cube", "prism5", "barrel6", "dodecahedron", "edge-truncated-dodecahedron"],
)
def test_skipped_targets_are_zero_by_route2(monkeypatch, make, coeffs):
    P = make()
    K = dual_complex(P)
    real = macohomology._zero_by_counting
    skipped = []

    def recording(K, jmask, p):
        zero = real(K, jmask, p)
        if zero:
            skipped.append((jmask, p))
        return zero

    monkeypatch.setattr(macohomology, "_zero_by_counting", recording)
    products = _all_h3_products(K, coeffs)
    # two disjoint non-edges span a 4-cycle in K_J exactly when J is a 4-belt
    belts = {sum(1 << (f - 1) for f in belt) for belt in enumerate_belts(P, 4)}
    targets = {sum(1 << (f - 1) for f in pr1 + pr2) for pr1, pr2 in products}
    assert set(skipped) == {(jm, 2) for jm in targets - belts}
    for jmask, p in set(skipped):
        h = reduced_cohomology(full_subcomplex(K, _unmask(jmask)), coeffs)
        assert (h.rank(p - 1), h.torsion_at(p - 1)) == (0, ()), (_unmask(jmask), p)
    # with no target skipped, every product comes out the same
    monkeypatch.setattr(macohomology, "_zero_by_counting", lambda K, jmask, p: False)
    assert _all_h3_products(K, coeffs) == products
