import random

import pytest
from hypothesis import given, settings

from pogorelov.complex import is_flag, reduced_cohomology
from pogorelov.polytope import (
    BadIntersection,
    NonSimple,
    NotSphere,
    Polygon,
    SimplePolytope,
    catalog,
    canonical_code,
    dual_complex,
    from_rotation_system,
    from_triangles,
    is_isomorphic,
    pk_vector,
    polygon,
)
from test_counting import truncations


def _cyclic_variants(seq):
    s = tuple(seq)
    return {s[r:] + s[:r] for r in range(len(s))}


def assert_valid_isomorphism(P, Q, sigma):
    ok_same = ok_refl = True
    for i in range(1, P.m + 1):
        mapped = tuple(sigma[j] for j in P.neighbors(i))
        target = Q.neighbors(sigma[i])
        if mapped not in _cyclic_variants(target):
            ok_same = False
        if mapped not in _cyclic_variants(tuple(reversed(target))):
            ok_refl = False
    assert ok_same or ok_refl


def test_tetrahedron_valid():
    P = catalog("simplex")
    assert P.m == 4
    assert P.f_vector() == (4, 6, 4)


def test_cube_valid():
    P = catalog("cube")
    assert P.m == 6
    assert P.f_vector() == (8, 12, 6)


def test_prism4_is_cube():
    assert is_isomorphic(catalog("prism", 4), catalog("cube")) is not None


def test_two_facets_glued_along_two_edges_rejected():
    # facet 1 lists facet 2 twice: two shared edges
    with pytest.raises(BadIntersection):
        from_rotation_system([(2, 3, 2, 4), (1, 3, 1, 4), (1, 2, 4), (1, 2, 3)])


def test_one_sided_adjacency_rejected():
    with pytest.raises(BadIntersection):
        from_rotation_system([(2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 5), (1, 2, 4)])


def test_inconsistent_triples_rejected():
    rot = {
        1: (2, 3, 4, 5),
        2: (1, 3, 4, 5),
        3: (1, 2, 4, 5),
        4: (1, 2, 3, 5),
        5: (1, 2, 3, 4),
    }
    with pytest.raises((NonSimple, NotSphere)):
        from_rotation_system(rot)


def test_dual_complexes():
    assert dual_complex(catalog("cube")).f_vector() == (6, 12, 8)
    assert dual_complex(catalog("dodecahedron")).f_vector() == (12, 30, 20)
    K = dual_complex(catalog("simplex"))
    assert K.f_vector() == (4, 6, 4)
    assert reduced_cohomology(K).rank(2) == 1


def _assert_triangles_round_trip(P):
    Q = from_triangles(P.m, P.vertex_tuples)
    assert Q.vertex_tuples == P.vertex_tuples
    assert Q.canonical_code() == P.canonical_code()


@pytest.mark.parametrize(
    "name,k",
    [("simplex", None), ("cube", None), ("prism", 3), ("prism", 7), ("barrel", 6), ("dodecahedron", None)],
)
def test_from_triangles_inverts_dual_complex(name, k):
    _assert_triangles_round_trip(catalog(name, k))


@settings(max_examples=30, deadline=None)
@given(truncations())
def test_from_triangles_inverts_dual_complex_on_truncations(P):
    _assert_triangles_round_trip(P)


def test_from_triangles_rejects_what_is_no_dual_triangulation():
    tetra = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    with pytest.raises(NotSphere, match="facet 5 lies in no triangle"):
        from_triangles(5, tetra)
    with pytest.raises(NotSphere, match="link of facet 1 is not a cycle"):
        from_triangles(4, tetra[1:])  # a disc
    # two tetrahedron boundaries sharing facet 4: its link is two triangles
    pinched = tetra + [(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    with pytest.raises(NotSphere, match="link of facet 4 is not one cycle"):
        from_triangles(7, pinched)
    with pytest.raises(ValueError, match=r"out of range 1\.\.4: \[0\]"):
        from_triangles(4, tetra + [(0, 1, 2)])


def test_pk_vectors():
    assert pk_vector(catalog("cube")).p == {4: 6}
    assert pk_vector(catalog("dodecahedron")).p == {5: 12}
    barrel6 = pk_vector(catalog("barrel", 6))
    assert barrel6.p == {5: 12, 6: 2}
    assert catalog("barrel", 6).m == 14


def test_barrel_numbering_matches_contract():
    # facet 1 top, facet 2 bottom, 3..k+2 upper belt, k+3..2k+2 lower belt
    Q = catalog("barrel", 6)
    assert set(Q.neighbors(1)) == set(range(3, 9))
    assert set(Q.neighbors(2)) == set(range(9, 15))
    assert all(Q.facet_size(i) == 5 for i in range(3, 15))


def test_catalog_parameter_errors():
    with pytest.raises(ValueError):
        catalog("barrel", 4)
    with pytest.raises(ValueError):
        catalog("prism", 2)
    with pytest.raises(ValueError):
        catalog("megaprism")


def test_cube_relabel_isomorphic():
    P = catalog("cube")
    rng = random.Random(11)
    perm = list(range(1, 7))
    rng.shuffle(perm)
    Q = P.relabel(perm)
    sigma = is_isomorphic(P, Q)
    assert sigma is not None
    assert_valid_isomorphism(P, Q, sigma)


def test_cube_vs_pentagonal_prism():
    assert is_isomorphic(catalog("cube"), catalog("prism", 5)) is None


def test_canonical_code_random_relabelings():
    rng = random.Random(303)
    for P in (catalog("cube"), catalog("barrel", 5), catalog("prism", 6)):
        code = canonical_code(P)
        for _ in range(100):
            perm = list(range(1, P.m + 1))
            rng.shuffle(perm)
            assert canonical_code(P.relabel(perm)) == code


def test_automorphism_counts():
    # full combinatorial symmetry groups, reflections included
    assert sum(1 for _ in catalog("simplex").isomorphisms_to(catalog("simplex"))) == 24
    assert sum(1 for _ in catalog("cube").isomorphisms_to(catalog("cube"))) == 48
    D = catalog("dodecahedron")
    assert sum(1 for _ in D.isomorphisms_to(D)) == 120


def test_euler_and_simplicity_identities():
    for P in (catalog("simplex"), catalog("prism", 7), catalog("barrel", 7)):
        f0, f1, f2 = P.f_vector()
        assert f0 - f1 + f2 == 2
        assert 3 * f0 == 2 * f1


def test_text_roundtrip():
    P = catalog("barrel", 6)
    Q = SimplePolytope.from_text(P.to_text())
    assert canonical_code(Q) == canonical_code(P)
    assert Q.rotations == P.rotations


def test_from_text_names_the_bad_line():
    text = catalog("cube").to_text().replace("3: ", "3: 1 y ", 1)
    with pytest.raises(ValueError, match=r"line 4: .*'3: 1 y "):
        SimplePolytope.from_text(text)
    with pytest.raises(ValueError, match=r"line 2: .*'one: 2 3 4'"):
        SimplePolytope.from_text("m=4\none: 2 3 4\n")
    with pytest.raises(ValueError, match=r"line 1: .*'m=4.5'"):
        SimplePolytope.from_text("m=4.5\n")


def test_polygon_basics():
    G = polygon(5)
    assert G.m == 5 and G.n == 2
    assert G.adjacent(1, 5) and not G.adjacent(1, 3)
    assert len(G.vertex_tuples) == 5
    assert sum(1 for _ in G.isomorphisms_to(polygon(5))) == 10
    with pytest.raises(ValueError):
        Polygon(2)
