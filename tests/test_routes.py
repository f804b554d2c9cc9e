"""The fast routes of relabel, 3- and 4-belts, canonical_code and
isomorphisms_to against the plain routes they replaced, kept here as
references: on the catalog, on surgery outputs and on the `hypothesis`
truncation corpus of tests/test_counting.py, relabellings included.
has_belt is checked against enumerate_belts for every belt length 3..7."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pogorelov.belts import enumerate_belts, has_belt
from pogorelov.complex import chordless_cycles
from pogorelov.constructions import connected_sum, edge_cut_all, edge_truncate, vertex_truncate
from pogorelov.polytope import catalog, dual_complex, from_rotation_system
from test_counting import truncations

CATALOG = [
    ("simplex", None),
    ("cube", None),
    ("prism", 3),
    ("prism", 5),
    ("prism", 6),
    ("barrel", 5),
    ("barrel", 6),
    ("barrel", 7),
    ("dodecahedron", None),
]


_D = catalog("dodecahedron")
_B = catalog("barrel", 6)
SURGERY = {
    "edge-truncated dodecahedron": lambda: edge_truncate(_D, _D.edges()[0]),  # a 4-belt
    "edge-truncated barrel(6)": lambda: edge_truncate(_B, _B.edges()[7]),
    "vertex-truncated dodecahedron": lambda: vertex_truncate(_D, _D.vertex_tuples[3]),
    "dodecahedron # dodecahedron": lambda: connected_sum(_D, 1, _D, 5),  # Pogorelov, m = 17
}


# -- reference routes ---------------------------------------------------------


def _relabel_reference(P, perm):
    """Permute the rotations and validate them from scratch."""
    new_rot = [None] * P.m
    for i in range(1, P.m + 1):
        new_rot[perm[i - 1] - 1] = [perm[j - 1] for j in P.neighbors(i)]
    return from_rotation_system(new_rot)


def _three_belts_reference(P):
    """Pairwise adjacent triples that are not a face of the dual complex."""
    K = dual_complex(P)
    return [
        (i, j, l)
        for i, j, l in itertools.combinations(range(1, P.m + 1), 3)
        if P.adjacent(i, j) and P.adjacent(j, l) and P.adjacent(i, l) and not K.has_face((i, j, l))
    ]


def _has_four_belt_reference(P):
    """Some chordless cycle of length 4 in the dual 1-skeleton."""
    return any(len(c) == 4 for c in chordless_cycles(dual_complex(P), max_len=4))


def _code_reference(P, a, b, direction):
    """Breadth-first code of every row from the dart (a, b), with the labels."""
    label = {a: 1, b: 2}
    order = [a, b]
    parent = {a: b, b: a}
    code = []
    for v in order:
        r = P.neighbors(v) if direction == 1 else P.neighbors(v)[::-1]
        k = r.index(parent[v])
        seq = r[k:] + r[:k]
        for w in seq:
            if w not in label:
                label[w] = len(order) + 1
                order.append(w)
                parent[w] = v
        code.append(tuple(label[w] for w in seq))
    return tuple(code), label


def _darts(P):
    for a in range(1, P.m + 1):
        for b in P.neighbors(a):
            for direction in (1, -1):
                yield a, b, direction


def _canonical_code_reference(P):
    """The unpruned minimum of the full codes over all darts."""
    best = min(_code_reference(P, *dart)[0] for dart in _darts(P))
    flat = [P.m]
    for row in best:
        flat.append(len(row))
        flat.extend(row)
    return b"".join(x.to_bytes(2, "big") for x in flat)


def _isomorphisms_reference(P, Q):
    """Full-code comparison of every dart of Q with one dart of P."""
    code0, label0 = _code_reference(P, 1, P.neighbors(1)[0], 1)
    inv0 = {t: v for v, t in label0.items()}
    for dart in _darts(Q):
        code, label = _code_reference(Q, *dart)
        if code == code0:
            inv = {t: v for v, t in label.items()}
            yield {inv0[t]: inv[t] for t in inv0}


# -- comparisons --------------------------------------------------------------


def _random_perm(m, rng):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return perm


def _assert_routes_agree(P, perm):
    Q = P.relabel(perm)
    R = _relabel_reference(P, perm)
    assert Q.rotations == R.rotations
    assert Q.vertex_tuples == R.vertex_tuples
    assert all(Q.oriented_vertex(v) == R.oriented_vertex(v) for v in R.vertex_tuples)
    for X in (P, Q):
        assert enumerate_belts(X, 3) == _three_belts_reference(X)
        assert has_belt(X, 4) == _has_four_belt_reference(X)
    for X in (P, Q):
        assert X.canonical_code() == _canonical_code_reference(X)
    assert Q.canonical_code() == P.canonical_code()
    for X, Y in ((P, P), (P, Q), (Q, P)):
        got = [list(s.items()) for s in X.isomorphisms_to(Y)]
        want = [list(s.items()) for s in _isomorphisms_reference(X, Y)]
        assert got == want
        assert got


@pytest.mark.parametrize("name,k", CATALOG)
def test_routes_agree_on_catalog(name, k):
    P = catalog(name, k)
    rng = random.Random(f"{name}{k}")
    for _ in range(3):
        _assert_routes_agree(P, _random_perm(P.m, rng))


@pytest.mark.parametrize("name", SURGERY)
def test_routes_agree_on_surgery_outputs(name):
    P = SURGERY[name]()
    _assert_routes_agree(P, _random_perm(P.m, random.Random(name)))


def test_routes_agree_at_m42():
    P = edge_cut_all(_D)
    Q = edge_truncate(P, P.edges()[0])
    assert not has_belt(P, 4) and not _has_four_belt_reference(P)
    assert has_belt(Q, 4) and _has_four_belt_reference(Q)
    perm = _random_perm(P.m, random.Random(42))
    R = P.relabel(perm)
    assert R.rotations == _relabel_reference(P, perm).rotations
    assert R.canonical_code() == _canonical_code_reference(P)


@settings(max_examples=60, deadline=None)
@given(truncations(), st.randoms(use_true_random=False))
def test_routes_agree_on_truncations(P, rng):
    _assert_routes_agree(P, _random_perm(P.m, rng))


def _assert_has_belt_agrees(P):
    for k in range(3, 8):
        assert has_belt(P, k) == bool(enumerate_belts(P, k)), k


@pytest.mark.parametrize("name,k", CATALOG)
def test_has_belt_agrees_with_enumerate_belts_on_catalog(name, k):
    _assert_has_belt_agrees(catalog(name, k))


@settings(max_examples=30, deadline=None)
@given(truncations())
def test_has_belt_agrees_with_enumerate_belts_on_truncations(P):
    _assert_has_belt_agrees(P)


def test_catalog_returns_one_shared_polytope():
    assert catalog("barrel", 6) is catalog("barrel", 6)
    assert isinstance(catalog("barrel", 6).adjacency(), tuple)
    assert catalog("dodecahedron") == catalog("barrel", 5)


@pytest.mark.parametrize(
    "perm,message",
    [
        ([1, 1, 2, 3, 4, 5], r"not a bijection of 1\.\.6.*repeats \[1\]"),
        ([1, 2, 3], r"3 entries for 6 facets"),
        ([2, 3, 4, 5, 6, 7], r"not a bijection of 1\.\.6"),
        ({1: 2, 2: 1, 3: 3}, r"keys 1\.\.6"),
        ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 2}, r"not a bijection.*repeats \[2\]"),
    ],
)
def test_relabel_rejects_a_non_bijection(perm, message):
    with pytest.raises(ValueError, match=message):
        catalog("cube").relabel(perm)
