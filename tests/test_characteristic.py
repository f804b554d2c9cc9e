import itertools
import random

import pytest

from pogorelov.characteristic import (
    CharMatrix,
    NotCharacteristic,
    SizeGuard,
    _colour_canonical,
    colouring_classes,
    colouring_to_matrix,
    enumerate_char_z2,
    enumerate_colourings,
    is_characteristic,
    lift_mod2,
    pairs_equivalent,
)
from pogorelov.polytope import catalog, polygon

DODECA = catalog("dodecahedron")


def _hirzebruch(k: int) -> CharMatrix:
    return CharMatrix(n=2, rows=((1, 0, -1, k), (0, 1, 0, -1)))


def _random_unimodular(rng, n=3):
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            A[i][t] += c * A[j][t]
    return tuple(tuple(r) for r in A)


def _scramble(P, L, rng):
    """Relabel facets, act by a unimodular matrix, flip column signs."""
    perm = list(range(1, P.m + 1))
    rng.shuffle(perm)
    sigma = {i: perm[i - 1] for i in range(1, P.m + 1)}
    P2 = P.relabel(sigma)
    A = _random_unimodular(rng, L.n)
    cols = [None] * P.m
    for i in range(1, P.m + 1):
        col = L.column(i)
        img = tuple(sum(A[r][s] * col[s] for s in range(L.n)) for r in range(L.n))
        sign = rng.choice((1, -1))
        cols[sigma[i] - 1] = tuple(sign * a for a in img)
    L2 = CharMatrix(
        n=L.n, rows=tuple(tuple(cols[j][r] for j in range(P.m)) for r in range(L.n))
    )
    return P2, L2


def test_colouring_matrices_always_characteristic():
    for P in (catalog("simplex"), catalog("cube"), catalog("prism", 5), DODECA):
        for chi in enumerate_colourings(P)[:50]:
            ok, bad = is_characteristic(P, colouring_to_matrix(chi))
            assert ok and bad is None


def test_repeated_column_violation_reported():
    S = catalog("simplex")
    L = CharMatrix(n=3, rows=((1, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)))
    ok, bad = is_characteristic(S, L)
    assert not ok and bad is not None


def test_hirzebruch_characteristic_for_all_k():
    quad = polygon(4)
    for k in range(-3, 8):
        ok, _ = is_characteristic(quad, _hirzebruch(k))
        assert ok


def test_colouring_class_counts():
    assert colouring_classes(catalog("simplex")) == 1
    assert colouring_classes(catalog("barrel", 5)) == 1
    assert colouring_classes(catalog("barrel", 6)) == 4


def _colour_canonical_bruteforce(chi, autos):
    """The least image over every automorphism and all 24 colour permutations."""
    best = None
    for sigma in autos:
        moved = [0] * len(chi)
        for i, c in enumerate(chi, start=1):
            moved[sigma[i] - 1] = c
        for perm in itertools.permutations((1, 2, 3, 4)):
            cand = tuple(perm[c - 1] for c in moved)
            if best is None or cand < best:
                best = cand
    return best


def test_colour_canonical_matches_permutation_minimum():
    cases = [
        (P, enumerate_colourings(P)) for P in (catalog("barrel", 6), catalog("prism", 5))
    ]
    cases.append((DODECA, random.Random(3).sample(enumerate_colourings(DODECA), 20)))
    for P, colourings in cases:
        autos = list(P.isomorphisms_to(P))
        for chi in colourings:
            for sigma in autos:
                assert _colour_canonical(chi, [sigma]) == _colour_canonical_bruteforce(
                    chi, [sigma]
                )
            assert _colour_canonical(chi, autos) == _colour_canonical_bruteforce(chi, autos)


def test_dodecahedron_colouring_count():
    # 240 proper colourings = 24 colour permutations x 10, a classical count
    assert len(enumerate_colourings(DODECA)) == 240


def test_lift_mod2_roundtrip():
    for P in (catalog("simplex"), catalog("cube"), DODECA):
        chi = enumerate_colourings(P)[0]
        L = colouring_to_matrix(chi)
        L2 = L.reduce_mod2()
        lifted = lift_mod2(P, L2)
        assert lifted.ring == "Z"
        assert lifted.reduce_mod2() == L2
        ok, _ = is_characteristic(P, lifted)
        assert ok


def test_prop_210_block_matrix():
    from pogorelov.characteristic import _det

    assert _det([(1, 1, 0), (0, 1, 1), (1, 1, 1)]) in (1, -1)


def test_pairs_equivalent_scrambled_self():
    rng = random.Random(21)
    chi = enumerate_colourings(DODECA)[0]
    L = colouring_to_matrix(chi)
    for _ in range(5):
        P2, L2 = _scramble(DODECA, L, rng)
        w = pairs_equivalent(DODECA, L, P2, L2)
        assert w is not None
        assert w.check(L, L2)


def test_pairs_equivalent_reflexive_symmetric():
    chi = enumerate_colourings(catalog("barrel", 6))[0]
    L = colouring_to_matrix(chi)
    Q6 = catalog("barrel", 6)
    assert pairs_equivalent(Q6, L, Q6, L) is not None
    rng = random.Random(4)
    P2, L2 = _scramble(Q6, L, rng)
    assert pairs_equivalent(P2, L2, Q6, L) is not None


def test_pairs_equivalent_raises_when_witness_fails_its_check(monkeypatch):
    from pogorelov.characteristic import PairEquivalence
    from pogorelov.errors import InvariantViolation

    cube = catalog("cube")
    L = colouring_to_matrix(enumerate_colourings(cube)[0])
    monkeypatch.setattr(PairEquivalence, "check", lambda self, L, L2: False)
    with pytest.raises(InvariantViolation):
        pairs_equivalent(cube, L, cube, L)


def test_hirzebruch_k2_vs_k4_not_equivalent():
    quad = polygon(4)
    assert pairs_equivalent(quad, _hirzebruch(2), quad, _hirzebruch(4)) is None
    assert pairs_equivalent(quad, _hirzebruch(2), quad, _hirzebruch(2)) is not None


def test_barrel6_distinct_colouring_classes_not_equivalent():
    Q6 = catalog("barrel", 6)
    autos = list(Q6.isomorphisms_to(Q6))
    from pogorelov.characteristic import _colour_canonical

    chis = enumerate_colourings(Q6)
    reps = {}
    for chi in chis:
        reps.setdefault(_colour_canonical(chi, autos), chi)
    classes = list(reps.values())
    assert len(classes) == 4
    for c1, c2 in itertools.combinations(classes, 2):
        w = pairs_equivalent(
            Q6, colouring_to_matrix(c1), Q6, colouring_to_matrix(c2)
        )
        assert w is None


def test_equivalent_colourings_give_equivalent_pairs():
    Q5 = catalog("barrel", 5)
    chis = enumerate_colourings(Q5)
    rng = random.Random(8)
    chi = rng.choice(chis)
    perm = rng.sample((1, 2, 3, 4), 4)
    chi2 = tuple(perm[c - 1] for c in chi)
    assert chi2 in set(chis)
    w = pairs_equivalent(
        Q5, colouring_to_matrix(chi), Q5, colouring_to_matrix(chi2)
    )
    assert w is not None


def test_not_characteristic_input_rejected():
    S = catalog("simplex")
    L = CharMatrix(n=3, rows=((1, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)))
    with pytest.raises(NotCharacteristic):
        pairs_equivalent(S, L, S, L)


def test_enumerate_char_z2_simplex_bruteforce():
    # independent oracle: raw product scan over all 7^4 column choices
    S = catalog("simplex")
    verts = S.vertex_tuples
    total = 0
    for cols in itertools.product(range(1, 8), repeat=4):
        ok = True
        for (x, y, z) in verts:
            a, b, c = cols[x - 1], cols[y - 1], cols[z - 1]
            if a == b or c in (0, a, b, a ^ b):
                ok = False
                break
        if ok:
            total += 1
    count, classes = enumerate_char_z2(S)
    assert count == total == 168
    assert classes == 1


def test_enumerate_char_z2_cube_contains_colourings():
    cube = catalog("cube")
    count, classes = enumerate_char_z2(cube)
    assert count >= len(enumerate_colourings(cube))
    assert count == 4200 and classes == 5  # regression fixture


def test_enumerate_char_z2_barrel5_fixture():
    count, classes = enumerate_char_z2(catalog("barrel", 5))
    # regression fixture from the exhaustive enumeration
    assert (count, classes) == (363720, 25)


def test_enumerate_char_z2_guard():
    with pytest.raises(SizeGuard):
        enumerate_char_z2(catalog("barrel", 8))


def test_matrix_text_roundtrip():
    L = _hirzebruch(3)
    assert CharMatrix.from_text(L.to_text(), ring="Z") == L
    with pytest.raises(ValueError):
        CharMatrix.from_text("1 2 3\n4 5\n")


def test_matrix_text_names_the_bad_line():
    with pytest.raises(ValueError, match=r"line 2: .*'0 1 z'"):
        CharMatrix.from_text("1 0 1\n0 1 z\n")


@pytest.mark.parametrize("entry", [True, 1.0, 0.5, "1", None])
def test_matrix_entries_must_be_int(entry):
    with pytest.raises(TypeError):
        CharMatrix(n=2, rows=((1, 0, entry), (0, 1, 1)))
    with pytest.raises(TypeError):
        CharMatrix(n=2, rows=((1, 0, entry), (0, 1, 1)), ring="Z2")
