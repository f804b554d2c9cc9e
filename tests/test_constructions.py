import pytest

from pogorelov.belts import enumerate_belts, is_flag_polytope, is_pogorelov
from pogorelov.constructions import (
    Alignment,
    FacetNotBeltSurrounded,
    all_alignments,
    connected_sum,
    edge_cut_all,
    edge_truncate,
    sk_truncate,
    vertex_truncate,
)
from pogorelov.polytope import canonical_code, catalog, is_isomorphic, pk_vector

SIMPLEX = catalog("simplex")
CUBE = catalog("cube")
DODECA = catalog("dodecahedron")


def test_vertex_truncate_simplex_is_prism3():
    vt = vertex_truncate(SIMPLEX, SIMPLEX.vertex_tuples[0])
    assert vt.m == 5
    assert is_isomorphic(vt, catalog("prism", 3)) is not None


def test_vertex_truncate_cube_counts():
    vt = vertex_truncate(CUBE, CUBE.vertex_tuples[0])
    assert pk_vector(vt).p == {3: 1, 4: 3, 5: 3}


def test_triple_truncations_of_simplex_three_types():
    level = [SIMPLEX]
    for _ in range(3):
        level = [vertex_truncate(P, v) for P in level for v in P.vertex_tuples]
    codes = {canonical_code(P) for P in level}
    assert len(codes) == 3
    assert all(P.m == 7 for P in level)


def test_edge_truncate_keeps_flagness():
    et = edge_truncate(CUBE, CUBE.edges()[0])
    assert et.m == 7
    assert pk_vector(et).p == {4: 5, 5: 2}
    assert is_flag_polytope(et)


def test_connected_sum_requires_belt():
    with pytest.raises(FacetNotBeltSurrounded, match="first summand"):
        connected_sum(SIMPLEX, 1, SIMPLEX, 1)
    with pytest.raises(FacetNotBeltSurrounded, match="second summand"):
        connected_sum(catalog("prism", 3), 1, SIMPLEX, 1)


def test_connected_sum_dodecahedra_pogorelov_all_alignments():
    for al in all_alignments(5):
        R = connected_sum(DODECA, 1, DODECA, 1, al)
        assert R.m == 17
        assert is_pogorelov(R)
        assert (len(enumerate_belts(R, 5)) >= 1)


def test_connected_sum_mismatched_gons():
    Q6 = catalog("barrel", 6)
    with pytest.raises(ValueError):
        connected_sum(Q6, 1, DODECA, 1)  # hexagon against pentagon


def test_edge_sum_of_dodecahedra_realizes_both_outcomes():
    et1 = edge_truncate(DODECA, DODECA.edges()[0])
    et2 = edge_truncate(DODECA, DODECA.edges()[5])
    outcomes = set()
    for al in all_alignments(4):
        s = connected_sum(et1, 13, et2, 13, al)
        assert s.m == 20
        assert not is_pogorelov(s)
        outcomes.add(tuple(sorted(pk_vector(s).p.items())))
    assert outcomes == {
        ((5, 16), (7, 4)),
        ((5, 16), (6, 2), (8, 2)),
    }


def test_example_b4_double_sum_has_both_belt_sizes():
    # one dodecahedron summed with two others, at a vertex and at an edge
    # chosen away from each other
    P1 = vertex_truncate(DODECA, (1, 3, 4))
    P2 = edge_truncate(P1, (2, 8))
    R1 = connected_sum(P2, 13, vertex_truncate(DODECA, DODECA.vertex_tuples[0]), 13)
    double = connected_sum(R1, 13, edge_truncate(DODECA, DODECA.edges()[0]), 13)
    pk = pk_vector(double).p
    assert 3 not in pk and 4 not in pk
    assert enumerate_belts(double, 3) and enumerate_belts(double, 4)
    assert not is_flag_polytope(double)


def test_sk_truncation_pogorelov_cases():
    Q6 = catalog("barrel", 6)
    nb = Q6.neighbors(1)
    sk = sk_truncate(Q6, 1, (nb[0], nb[1]))
    assert is_pogorelov(sk)
    Q8 = catalog("barrel", 8)
    nb8 = Q8.neighbors(1)
    sk8 = sk_truncate(Q8, 1, (nb8[0], nb8[1], nb8[2]))
    assert is_pogorelov(sk8)


def test_sk_truncation_below_threshold_still_valid():
    # pentagon with s=2: k=5 < s+4, no Pogorelov claim but a valid polytope
    nb = DODECA.neighbors(1)
    sk = sk_truncate(DODECA, 1, (nb[0], nb[1]))
    assert sk.m == 13
    assert pk_vector(sk).p[5] >= 10


def test_sk_truncation_malformed_run():
    nb = DODECA.neighbors(1)
    with pytest.raises(ValueError):
        sk_truncate(DODECA, 1, (nb[0], nb[2]))  # not consecutive
    with pytest.raises(ValueError):
        sk_truncate(DODECA, 1, (nb[0],))  # s < 2


def test_sk_truncation_run_given_backwards_is_the_same_cut():
    Q8 = catalog("barrel", 8)
    nb = Q8.neighbors(1)
    run = (nb[3], nb[4], nb[5])
    forward = sk_truncate(Q8, 1, run)
    backward = sk_truncate(Q8, 1, run[::-1])
    assert backward.vertex_tuples == forward.vertex_tuples
    # the run wraps around the end of the rotation
    wrap = (nb[-1], nb[0])
    assert sk_truncate(Q8, 1, wrap[::-1]).vertex_tuples == sk_truncate(Q8, 1, wrap).vertex_tuples


def test_sk_truncation_run_must_name_distinct_neighbours():
    nb = DODECA.neighbors(1)
    far = next(i for i in range(2, DODECA.m + 1) if i not in nb)
    for run in ((nb[0], nb[0]), (nb[0], far), (nb[0], nb[1], nb[1])):
        with pytest.raises(ValueError, match="distinct neighbors"):
            sk_truncate(DODECA, 1, run)


def test_sk_truncation_may_not_destroy_the_facet():
    nb = CUBE.neighbors(1)
    assert sk_truncate(CUBE, 1, nb[:2]).facet_size(1) == 3  # s = k - 2 is the most
    for s in (3, 4):
        with pytest.raises(ValueError, match="destroy the facet"):
            sk_truncate(CUBE, 1, nb[:s])


def test_vertex_truncate_rejects_a_non_vertex():
    # facets 1 and 2 of the cube are opposite: no vertex lies on both
    for v in ((1, 2, 3), (1, 3), (1, 3, 5, 4)):
        with pytest.raises(ValueError, match="is not a vertex"):
            vertex_truncate(CUBE, v)


def test_edge_truncate_rejects_non_adjacent_facets():
    with pytest.raises(ValueError, match="are not adjacent"):
        edge_truncate(CUBE, (1, 2))


def test_truncations_add_one_facet_next_to_the_cut():
    v = DODECA.vertex_tuples[4]
    vt = vertex_truncate(DODECA, v)
    assert set(vt.neighbors(13)) == set(v)
    nb = DODECA.neighbors(1)
    et = edge_truncate(DODECA, (1, nb[2]))
    assert set(et.neighbors(13)) == {1, nb[1], nb[2], nb[3]}
    assert et.facet_size(1) == 5 and not et.adjacent(1, nb[2])


def test_edge_cut_all_bookkeeping():
    for P in (SIMPLEX, CUBE, DODECA, catalog("prism", 5)):
        f0, f1, f2 = P.f_vector()
        PE = edge_cut_all(P)
        pk_old = pk_vector(P).p
        pk_new = pk_vector(PE).p
        assert PE.m == P.m + f1
        for k in set(pk_old) | set(pk_new):
            expected = pk_old.get(k, 0) + (f1 if k == 6 else 0)
            assert pk_new.get(k, 0) == expected


def test_edge_cut_simplex_counts():
    PE = edge_cut_all(SIMPLEX)
    assert pk_vector(PE).p == {3: 4, 6: 6}


def test_edge_cut_pogorelov_criterion():
    assert is_pogorelov(edge_cut_all(DODECA))
    assert not is_pogorelov(edge_cut_all(CUBE))


def test_alignment_positions():
    al = Alignment(start=2, reverse=True)
    assert [al.position(j, 5) for j in range(5)] == [2, 1, 0, 4, 3]
    assert len(all_alignments(4)) == 8
