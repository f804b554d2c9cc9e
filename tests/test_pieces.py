"""The per-multidegree pieces and the differentials they are built from.

`_PieceZ` is checked on seeded random integer cochain complexes with known
cohomology, torsion included, and against the three-pass construction it
replaced, kept here as the reference: `kernel_basis` of d_out, an exact
solve in that kernel basis by its own Smith pass, and `ZQuotient`.
`_r_matrix` is checked against a per-entry reference built on
`_exterior_sign`, `unit_pivot_factors` against the dense Smith pass on every
differential, and `from_chain` against chains that are not cocycles or not
in the level's basis.  The numbers of each level (one untracked Smith
pass per differential) are checked against the pieces on every level, and
the checks that guard them are shown to run.
"""

import random

import pytest
from hypothesis import given, settings

from pogorelov import _intlinalg, macohomology
from pogorelov._intlinalg import ZQuotient, diagonalize, invariant_factors, kernel_basis
from pogorelov.complex import GradedHomology
from pogorelov.macohomology import (
    InternalMismatch,
    MultigradedCohomology,
    _PieceZ,
    _r_matrix,
    cohomology,
    cup_product,
    r_basis,
    r_differential,
)
from pogorelov.polytope import catalog, dual_complex
from test_complex import RP2, TORUS
from test_counting import truncations
from test_intlinalg import _record_fallback, sparse_columns
from test_macohomology import TWO_SEGMENTS

# -- random cochain complexes with known cohomology ---------------------------


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _unimodular(rng, n):
    """A random U in GL(n, Z) and its inverse, from row additions."""
    U, Uinv = _identity(n), _identity(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-2, -1, 1, 2])
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]  # U <- E U
        for row in Uinv:  # Uinv <- Uinv E^-1
            row[j] -= q * row[i]
    if rng.random() < 0.5:  # a sign change as well
        i = rng.randrange(n)
        U[i] = [-x for x in U[i]]
        for row in Uinv:
            row[i] = -row[i]
    assert _mat_mul(U, Uinv) == _identity(n)
    return U, Uinv


def _random_complex(rng, factors, free, out_rank):
    """Z^a -> Z^n -> Z^b with H = Z^free + sum of Z/f over the factors.

    Diagonal model: d_in puts the factors on the first coordinates, d_out
    sends the last out_rank coordinates injectively; both are then
    conjugated by random unimodular matrices, U on the middle term.
    Returns (d_in, d_out, U) with d_in and d_out as lists of rows.
    """
    k = len(factors)
    n = k + free + out_rank
    a = k + rng.randint(0, 2)
    b = out_rank + rng.randint(0, 2)
    d_in0 = [[factors[j] if i == j < k else 0 for j in range(a)] for i in range(n)]
    d_out0 = [[0] * n for _ in range(b)]
    for j in range(out_rank):
        d_out0[j][k + free + j] = rng.choice([1, -1, 2, 3])
    U, Uinv = _unimodular(rng, n)
    V, _ = _unimodular(rng, b) if b else ([], [])
    W, _ = _unimodular(rng, a) if a else ([], [])
    d_in = _mat_mul(_mat_mul(U, d_in0), W) if a else [[] for _ in range(n)]
    d_out = _mat_mul(_mat_mul(V, d_out0), Uinv) if b else []
    return d_in, d_out, U


def _columns(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _piece(d_in, d_out, n):
    d_in_cols = sparse_columns(d_in, len(d_in[0]) if d_in else 0)
    return _PieceZ(list(range(n)), d_in_cols, sparse_columns(d_out, n), len(d_out))


def _chain(vec):
    return {i: a for i, a in enumerate(vec) if a}


def _normal(torsion):
    """Invariant factors above 1 of a direct sum of cyclic groups."""
    diag = [[t if i == j else 0 for j in range(len(torsion))] for i, t in enumerate(torsion)]
    return [f for f in invariant_factors(diag) if f > 1]


class _ThreePassReference:
    """The construction `_PieceZ` replaced: kernel basis, solve, quotient."""

    def __init__(self, n, d_in_cols, d_out):
        if d_out and d_out[0]:
            ker = kernel_basis(d_out)
        else:
            ker = _identity(n)
        self.k = len(ker)
        A = [[ker[j][i] for j in range(self.k)] for i in range(n)]
        self.D, self.S, _, self.T = diagonalize(A, track_left=True, track_right=True)
        img = [self.solve(col) for col in d_in_cols if any(col)]
        self.quo = ZQuotient(self.k, img, lifts=True)
        self.rank, self.torsion = self.quo.rank, tuple(self.quo.torsion)
        self.reps = [
            [sum(c * ker[t][i] for t, c in enumerate(lift)) for i in range(n)]
            for lift in self.quo.free_reps
        ]

    def solve(self, z):
        y = [sum(a * b for a, b in zip(row, z)) for row in self.S]
        c = []
        for i, yi in enumerate(y):
            d = self.D[i][i] if i < self.k else 0
            if yi % d if d else yi:
                raise ValueError("not a cocycle")
            c.append(yi // d if d else 0)
        return [sum(a * b for a, b in zip(row, c[: self.k])) for row in self.T]

    def project(self, vec):
        return self.quo.coords(self.solve(vec))


def _det(M):
    D, _, _, _ = diagonalize(M)
    out = 1
    for i in range(len(M)):
        out *= D[i][i]
    return out


CASES = [
    ((2,), 1, 1),
    ((1, 2, 6), 2, 2),
    ((3, 3), 0, 1),
    ((2, 4, 8), 1, 0),
    ((1, 1), 3, 2),
    ((5,), 0, 0),
    ((), 2, 3),
    ((6, 10), 2, 1),
    ((1,), 0, 2),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("factors,free,out_rank", CASES)
def test_piece_z_on_random_complexes_with_torsion(seed, factors, free, out_rank):
    rng = random.Random(1000 * seed + 17 * len(factors) + 5 * free + out_rank)
    d_in, d_out, U = _random_complex(rng, list(factors), free, out_rank)
    n = len(U)
    piece = _piece(d_in, d_out, n)
    assert piece.rank == free
    assert _normal(piece.torsion) == _normal(factors)
    assert all(t > 1 for t in piece.torsion)
    nt = len(piece.torsion)
    assert len(piece.reps) == free
    for i, rep in enumerate(piece.reps):
        assert all(sum(a * b for a, b in zip(row, rep)) == 0 for row in d_out)
        assert piece.project(_chain(rep)) == ([int(t == i) for t in range(free)], [0] * nt)
    for col in _columns(d_in, len(d_in[0])):
        assert piece.project(_chain(col)) == ([0] * free, [0] * nt)
    # U e_i for a factor f > 1 is a cocycle of order f in cohomology
    for i, f in enumerate(factors):
        ui = [row[i] for row in U]
        free_c, tors = piece.project(_chain(ui))
        assert free_c == [0] * free and any(tors) == (f > 1)
        assert piece.project(_chain([f * x for x in ui]))[1] == [0] * nt
    # U e_j outside the kernel is not a cocycle, nor is a cocycle plus it
    for j in range(len(factors) + free, n):
        uj = [row[j] for row in U]
        for extra in [[0] * n] + piece.reps:
            with pytest.raises(ValueError, match="not a cocycle"):
                piece.project(_chain([x + y for x, y in zip(uj, extra)]))
    # the reference agrees up to a change of free basis
    ref = _ThreePassReference(n, _columns(d_in, len(d_in[0])), d_out)
    assert (ref.rank, _normal(ref.torsion)) == (piece.rank, _normal(piece.torsion))
    if free:
        assert abs(_det([ref.project(rep)[0] for rep in piece.reps])) == 1
        assert abs(_det([piece.project(_chain(rep))[0] for rep in ref.reps])) == 1


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("name,k", [("cube", None), ("prism", 5)])
def test_pieces_make_two_smith_passes_at_most_over_z_and_none_over_z2(monkeypatch, name, k, coeffs):
    calls = []
    real = _intlinalg.diagonalize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_intlinalg, "diagonalize", counting)
    monkeypatch.setattr(macohomology, "diagonalize", counting)
    K = dual_complex(catalog(name, k))
    cohom = MultigradedCohomology(K, coeffs)
    for jmask in range(1 << K.m):
        comp = cohom.component(jmask)
        for p in range(jmask.bit_count() + 1):
            calls.clear()
            comp.piece(p)
            assert len(calls) <= (2 if coeffs == "Z" else 0)


def test_rp2_torsion_summary_is_pinned():
    assert MultigradedCohomology(RP2, "Z").torsion_summary() == {9: [2]}
    assert MultigradedCohomology(RP2, "Z2").torsion_summary() == {}


# -- the differentials ------------------------------------------------------------


def _exterior_sign(jmask: int, j: int) -> int:
    """Sign (-1)^(r-1) for j at position r of the set jmask, increasing order."""
    below = jmask & ((1 << j) - 1)
    return -1 if below.bit_count() % 2 else 1


def _r_rows_reference(basis, jmask, p):
    """d: level p -> level p+1 entry by entry, rows = level p+1."""
    lo, hi = basis.get(p, []), basis.get(p + 1, [])
    rows = [[0] * len(lo) for _ in hi]
    for r, H in enumerate(hi):
        for c, L in enumerate(lo):
            extra = H & ~L
            if H & L == L and extra.bit_count() == 1:
                rows[r][c] = _exterior_sign(jmask & ~L, extra.bit_length() - 1)
    return rows


@pytest.mark.parametrize("name,k", [("cube", None), ("prism", 5), ("two-segments", None)])
def test_r_matrix_columns_match_the_entrywise_reference_and_square_to_zero(name, k):
    # two disjoint segments are no 2-sphere: an input off the polytope duals
    K = TWO_SEGMENTS if name == "two-segments" else dual_complex(catalog(name, k))
    for jmask in range(1 << K.m):
        basis = r_basis(K, jmask)
        cols = {p: _r_matrix(basis, jmask, p) for p in range(-1, jmask.bit_count() + 1)}
        for p in range(-1, jmask.bit_count() + 1):
            rows = _r_rows_reference(basis, jmask, p)
            height = len(basis.get(p + 1, []))
            assert len(cols[p]) == len(basis.get(p, []))
            # sparse columns: only the non-zero entries, at rows of level p+1
            assert all(set(col) <= set(range(height)) for col in cols[p])
            assert all(a in (1, -1) for col in cols[p] for a in col.values())
            assert [[col.get(r, 0) for col in cols[p]] for r in range(height)] == rows
            assert r_differential(K, jmask, p) == rows
            if p + 1 in cols:  # d_{p+1} d_p = 0, column by column
                for col in cols[p]:
                    image = {}
                    for r, a in col.items():
                        for s, b in cols[p + 1][r].items():
                            image[s] = image.get(s, 0) + a * b
                    assert not any(image.values())


@pytest.mark.parametrize(
    "K",
    [dual_complex(catalog("cube")), dual_complex(catalog("prism", 5)), RP2, TORUS, TWO_SEGMENTS],
    ids=["cube", "prism5", "RP2", "torus", "two-segments"],
)
def test_unit_pivot_factors_equal_the_dense_pass_on_every_differential(K):
    for jmask in range(1 << K.m):
        basis = r_basis(K, jmask)
        for p in range(-1, jmask.bit_count() + 1):
            rows = r_differential(K, jmask, p)
            want = invariant_factors(rows) if rows else []
            assert _intlinalg.unit_pivot_factors(_r_matrix(basis, jmask, p)) == want


def test_rp2_torsion_comes_from_the_dense_fallback(monkeypatch):
    seen = _record_fallback(monkeypatch)
    assert cohomology(RP2, "Z").torsion_summary() == {9: [2]}
    # the unit pivots run out on the differential with the 2-torsion
    assert any(invariant_factors(A)[-1] == 2 for A in seen)


# -- from_chain -----------------------------------------------------------------


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
def test_from_chain_rejects_non_cocycles_at_every_level(coeffs):
    K = dual_complex(catalog("cube"))
    cohom = MultigradedCohomology(K, coeffs)
    # level 0 of an edge has a zero kernel
    assert K.has_face((1, 3)) and cohom.component((1, 3)).rank(0) == 0
    with pytest.raises(ValueError, match="not a cocycle"):
        cohom.from_chain((1, 3), {(): 1})
    # level 1 of all six vertices has a non-zero kernel (the coboundaries)
    full = tuple(range(1, 7))
    assert cohom.component(full).piece(1).basis
    with pytest.raises(ValueError, match="not a cocycle"):
        cohom.from_chain(full, {(1,): 1})
    with pytest.raises(ValueError, match="not a cocycle"):
        cohom.from_chain((1, 2, 3), {(1,): 1, (2,): 1})


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
def test_from_chain_rejects_faces_outside_the_level_basis(coeffs):
    K = dual_complex(catalog("cube"))
    cohom = MultigradedCohomology(K, coeffs)
    assert not K.has_face((1, 2))
    with pytest.raises(ValueError, match=r"\(3,\) lies outside multidegree \(1, 2\)"):
        cohom.from_chain((1, 2), {(3,): 1})
    with pytest.raises(ValueError, match=r"\(3,\) lies outside"):
        cohom.from_chain((1, 2), {(2,): 1, (3,): 5})
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a face"):
        cohom.from_chain((1, 2), {(1, 2): 1})
    # the valid chain still gives the class of u1 v2
    assert cohom.from_chain((1, 2), {(2,): 1}) == cohom.h3_class(1, 2)
    assert not cohom.h3_class(1, 2).is_zero()


# -- the numbers of each level against its piece ---------------------------------


def test_piece_torsion_meets_its_level_in_divisibility_form(monkeypatch):
    # Z6 presented as diag(2, 3): the piece keeps the moduli of its coordinates
    piece = _PieceZ([1, 2], [{0: 2}, {1: 3}], [{}, {}], 0)
    assert (piece.rank, piece.torsion) == (0, (2, 3))
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert macohomology._normal(piece.torsion) == (6,)
    # a level built from that piece, checked against a route 2 that says Z6,
    # both before and after the level's numbers are known
    monkeypatch.setattr(macohomology.Component, "_build", lambda comp, p, lvl: piece)
    six = GradedHomology("Z", {}, {0: (6,)})
    monkeypatch.setattr(macohomology, "_subcomplex_cohomology", lambda K, jmask, coeffs: six)
    K = dual_complex(catalog("cube"))
    assert MultigradedCohomology(K, "Z").component((1, 2)).piece(1) is piece
    comp = MultigradedCohomology(K, "Z").component((1, 2))
    comp._levels[1] = (0, (6,))
    assert comp.piece(1) is piece
    comp._pieces.clear()
    comp._levels[1] = (0, (2, 3))
    with pytest.raises(InternalMismatch, match="piece gives"):
        comp.piece(1)


def _assert_numbers_equal_pieces(K, coeffs):
    """Every level's numbers, from compute_all, against a piece built on a
    fresh cohomology (which has no numbers of its own before it)."""
    numbers = cohomology(K, coeffs)
    fresh = MultigradedCohomology(K, coeffs)
    for jmask in range(1 << K.m):
        comp = fresh.component(jmask)
        for p in range(jmask.bit_count() + 1):
            piece = comp.piece(p)
            got = (piece.rank, macohomology._normal(piece.torsion)) if piece else (0, ())
            assert numbers.component(jmask).numbers(p) == got, (jmask, p)


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("K", [RP2, TORUS], ids=["RP2", "torus"])
def test_numbers_equal_pieces_off_2_spheres(K, coeffs):
    _assert_numbers_equal_pieces(K, coeffs)
    if K is RP2:  # a level with torsion is among those compared
        assert cohomology(K, coeffs).torsion_summary() == ({9: [2]} if coeffs == "Z" else {})


@settings(max_examples=10, deadline=None)
@given(truncations())
def test_numbers_equal_pieces_on_truncations(P):
    for coeffs in ("Z", "Z2"):
        _assert_numbers_equal_pieces(dual_complex(P), coeffs)


def _record_level_checks(monkeypatch):
    """(jmask, p) for every route-2 check and every d d = 0 check."""
    route2, squares = [], []
    real_check, real_square = macohomology.Component._check, macohomology.Component._check_square

    def recording_check(comp, p, got):
        route2.append((comp.jmask, p))
        return real_check(comp, p, got)

    def recording_square(comp, p):
        squares.append((comp.jmask, p))
        return real_square(comp, p)

    monkeypatch.setattr(macohomology.Component, "_check", recording_check)
    monkeypatch.setattr(macohomology.Component, "_check_square", recording_square)
    return route2, squares


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("K", [dual_complex(catalog("prism", 5)), RP2], ids=["prism5", "RP2"])
def test_compute_all_checks_every_level_by_route2_and_dd(monkeypatch, K, coeffs):
    route2, squares = _record_level_checks(monkeypatch)
    cohomology(K, coeffs)
    every_level = [(jm, p) for jm in range(1 << K.m) for p in range(jm.bit_count() + 1)]
    with_basis = [(jm, p) for jm, p in every_level if p in r_basis(K, jm)]
    assert sorted(route2) == every_level
    assert sorted(squares) == with_basis


@pytest.mark.parametrize("coeffs", ["Z", "Z2"])
@pytest.mark.parametrize("K", [dual_complex(catalog("cube")), RP2], ids=["cube", "RP2"])
def test_one_flipped_sign_of_the_differential_raises(monkeypatch, K, coeffs):
    real = macohomology._r_matrix
    target = (1 << K.m) - 1  # the full multidegree, d_1: vertices -> edges

    def one_sign_flipped(basis, jmask, p):
        cols = real(basis, jmask, p)
        if (jmask, p) == (target, 1):
            r = next(iter(cols[0]))  # the first stored entry, which is +-1
            cols[0][r] = -cols[0][r]
            flipped.append(r)
        return cols

    flipped = []
    monkeypatch.setattr(macohomology, "_r_matrix", one_sign_flipped)
    with pytest.raises(InternalMismatch, match=r"d_1 d_0 is not zero"):
        cohomology(K, coeffs)
    assert flipped
    # a Z piece built on demand meets the same flipped sign; over Z2 a sign
    # changes nothing the piece computes
    if coeffs == "Z":
        with pytest.raises(InternalMismatch, match="d_out d_in is not zero"):
            MultigradedCohomology(K, coeffs).component(target).piece(1)


def test_betti_and_torsion_build_no_piece_and_later_pieces_agree(monkeypatch):
    K = dual_complex(catalog("dodecahedron"))
    tracked, untracked, quotients, pieces = [], [], [], []
    real_diagonalize, real_quotient = _intlinalg.diagonalize, macohomology.ZQuotient
    real_piece = macohomology._PieceZ

    def counting_diagonalize(A, **track):
        (tracked if any(track.values()) else untracked).append(track)
        return real_diagonalize(A, **track)

    def counting_quotient(*args, **kwargs):
        quotients.append(1)
        return real_quotient(*args, **kwargs)

    def counting_piece(*args):
        pieces.append(1)
        return real_piece(*args)

    monkeypatch.setattr(_intlinalg, "diagonalize", counting_diagonalize)
    monkeypatch.setattr(macohomology, "diagonalize", counting_diagonalize)
    monkeypatch.setattr(macohomology, "ZQuotient", counting_quotient)
    monkeypatch.setattr(macohomology, "_PieceZ", counting_piece)
    H = cohomology(K, "Z")
    betti, torsion = H.betti(), H.torsion_summary()
    # every differential reduces to nothing by unit pivots: no dense Smith pass
    assert (tracked, untracked, quotients, pieces) == ([], [], [], [])
    assert sum(betti.values()) == 1872 and torsion == {}
    # coordinates asked for afterwards equal those of a fresh cohomology
    fresh = MultigradedCohomology(K, "Z")
    keys = [(0b11, 1), (0b1111, 2), (0b111111, 2), (0b111111000000, 3), (0b111111111111, 3)]
    classes = []
    for jmask, p in keys:
        for i in range(H.component(jmask).rank(p)):
            chain = fresh.class_element(jmask, p, i).chains()[(jmask, p)]
            assert H.from_chain(jmask, chain).terms == fresh.from_chain(jmask, chain).terms
            classes.append((jmask, p, i))
    assert classes
    for a in classes:
        for b in classes:
            if a[0] & b[0]:
                continue
            got = cup_product(H.class_element(*a), H.class_element(*b))
            want = cup_product(fresh.class_element(*a), fresh.class_element(*b))
            assert got.terms == want.terms
    assert pieces and quotients and tracked
