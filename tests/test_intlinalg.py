import itertools
import random

import pytest

from pogorelov import _intlinalg
from pogorelov._intlinalg import (
    GF2Echelon,
    ZQuotient,
    cyclic_functional,
    diagonalize,
    gf2_kernel,
    gf2_rank,
    gf2_vector,
    invariant_factors,
    unit_pivot_factors,
)
from pogorelov.characteristic import _det, _mat_inverse


def _span(rows):
    """All XOR combinations of rows (brute force over subsets)."""
    out = {0}
    for v in rows:
        out |= {s ^ v for s in out}
    return out


def _parity(v: int) -> int:
    return v.bit_count() & 1


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _rows_of(cols):
    n = len(cols)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_gf2_vector_packs_parities():
    assert gf2_vector([]) == 0
    assert gf2_vector([1, 0, -1, 2, 3, -4]) == 0b10101
    assert gf2_vector(iter([0, 0, 7])) == 0b100


def test_gf2_rank_matches_span_size():
    rng = random.Random(11)
    for _ in range(400):
        width = rng.randint(1, 7)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 7))]
        span = len(_span(rows))
        assert 1 << gf2_rank(rows) == span


def test_gf2_kernel_vectors_map_to_zero():
    rng = random.Random(12)
    for _ in range(300):
        height = rng.randint(1, 7)
        columns = [rng.getrandbits(height) for _ in range(rng.randint(0, 9))]
        kernel = gf2_kernel(columns)
        assert len(kernel) == len(columns) - gf2_rank(columns)
        assert gf2_rank(kernel) == len(kernel)
        for k in kernel:
            image = 0
            for j, col in enumerate(columns):
                if k >> j & 1:
                    image ^= col
            assert image == 0


def _load(equations):
    """Echelon of equations (v, rhs); False when some equation reduced to 0 = 1."""
    ech = GF2Echelon()
    for v, rhs in equations:
        v, rhs, _ = ech.reduce(v, rhs)
        if v:
            ech.add(v, rhs)
        elif rhs:
            return ech, False
    return ech, True


def test_gf2_solve_satisfies_consistent_systems():
    rng = random.Random(13)
    for _ in range(300):
        nvars = rng.randint(1, 10)
        x0 = rng.getrandbits(nvars)
        equations = []
        for _ in range(rng.randint(0, 12)):
            v = rng.getrandbits(nvars)
            equations.append((v, _parity(v & x0)))
        ech, consistent = _load(equations)
        assert consistent
        x = ech.solve()
        assert x < 1 << nvars
        for v, rhs in equations:
            assert _parity(v & x) == rhs


def test_gf2_solve_sets_free_variables_to_zero():
    # x0 + x2 = 1 with x1 free: pivot x2, so x = (0, 0, 1)
    ech, consistent = _load([(0b101, 1)])
    assert consistent
    assert ech.solve() == 0b100


def test_gf2_inconsistent_system_detected():
    rng = random.Random(14)
    for _ in range(200):
        nvars = rng.randint(1, 8)
        rows = [rng.getrandbits(nvars) | 1 for _ in range(rng.randint(1, 6))]
        equations = [(v, rng.getrandbits(1)) for v in rows]
        # the XOR of some equations, with its right-hand side flipped
        picked = [e for e in equations if rng.getrandbits(1)] or equations[:1]
        v = rhs = 0
        for pv, pr in picked:
            v ^= pv
            rhs ^= pr
        ech, consistent = _load(equations + [(v, rhs ^ 1)])
        assert not consistent


def test_mat_inverse_z2_on_all_3x3_binary_matrices():
    invertible = 0
    for entries in itertools.product((0, 1), repeat=9):
        cols = [entries[0:3], entries[3:6], entries[6:9]]
        inv = _mat_inverse(cols, "Z2")
        if _det(cols) % 2:
            invertible += 1
            prod = _mat_mul(_rows_of(cols), inv)
            assert [[a % 2 for a in row] for row in prod] == _identity(3)
            assert all(a in (0, 1) for row in inv for a in row)
        else:
            assert inv is None
    assert invertible == 168  # |GL(3, Z2)|


def _signed_permutation_times_shears(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    A = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    return A


def test_mat_inverse_z_exact_on_unimodular_matrices():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.choice((2, 3))
        rows = _signed_permutation_times_shears(rng, n)
        cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
        inv = _mat_inverse(cols, "Z")
        assert _mat_mul(rows, inv) == _identity(n)
        assert _mat_mul(inv, rows) == _identity(n)


def test_mat_inverse_z_rejects_non_unimodular():
    assert _mat_inverse([(2, 0, 0), (0, 1, 0), (0, 0, 1)], "Z") is None
    assert _mat_inverse([(1, 1), (1, -1)], "Z") is None
    # the same det-(-2) matrix is singular mod 2 as well
    assert _mat_inverse([(1, 1), (1, -1)], "Z2") is None


def _product(A, B):
    """Product of an r x k and a k x c matrix (lists of rows)."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def test_diagonalize_tracks_the_inverse_when_asked():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        A = [[rng.choice((0, 0, 1, -1, 2, 3, -4, 6)) for _ in range(ncols)] for _ in range(nrows)]
        D, S, Sinv, T = diagonalize(A, track_left=True, track_right=True, track_inverse=True)
        assert _product(_product(S, A), T) == D
        assert all(D[i][j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
        assert _product(S, Sinv) == _identity(nrows)
        assert _product(Sinv, S) == _identity(nrows)
        # the same elimination without S: Sinv alone is still the inverse
        _, no_s, Sinv2, _ = diagonalize(A, track_inverse=True)
        assert no_s is None and Sinv2 == Sinv
        _, S2, no_inv, _ = diagonalize(A, track_left=True)
        assert no_inv is None and S2 == S
        # free generator lifts map to unit coordinates of the quotient
        quo = ZQuotient(nrows, [list(col) for col in zip(*A)], lifts=True)
        for k, rep in enumerate(quo.free_reps):
            free, tors = quo.coords(rep)
            assert free == [int(t == k) for t in range(quo.rank)]
            assert not any(tors)
        assert ZQuotient(nrows, [list(col) for col in zip(*A)]).free_reps is None


# -- unit_pivot_factors against the dense Smith pass ----------------------------


def sparse_columns(rows, ncols):
    """The columns of a dense matrix of rows, each as {row: non-zero entry}."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def _record_fallback(monkeypatch):
    """The matrices the kernel hands to the dense ``invariant_factors``."""
    seen = []
    real = _intlinalg.invariant_factors

    def recording(A):
        seen.append(A)
        return real(A)

    monkeypatch.setattr(_intlinalg, "invariant_factors", recording)
    return seen


def test_unit_pivot_factors_equal_the_dense_pass_on_random_matrices():
    rng = random.Random(19)
    for _ in range(2000):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.random()
        A = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        want = invariant_factors(A) if nrows else []
        assert unit_pivot_factors(sparse_columns(A, ncols)) == want, A


def test_unit_pivot_factors_of_empty_zero_and_diagonal_matrices(monkeypatch):
    seen = _record_fallback(monkeypatch)
    assert unit_pivot_factors([]) == []
    assert unit_pivot_factors([{}, {}, {}]) == [] == invariant_factors([[0, 0, 0]] * 4)
    assert not seen  # nothing is left for the dense pass
    assert unit_pivot_factors([{0: 2}, {1: 3}]) == [1, 6] == invariant_factors([[2, 0], [0, 3]])
    assert unit_pivot_factors([{i: 2} for i in range(3)]) == [2, 2, 2]
    assert len(seen) == 2  # no +-1 entry at all: the whole matrix falls back


def test_unit_pivots_run_out_midway_on_a_conjugate_of_diag_1_2_6(monkeypatch):
    rng = random.Random(6)
    seen = _record_fallback(monkeypatch)
    for _ in range(20):
        U, V = (_random_unimodular(rng, 3) for _ in range(2))
        A = _product(_product(U, [[1, 0, 0], [0, 2, 0], [0, 0, 6]]), V)
        assert unit_pivot_factors(sparse_columns(A, 3)) == [1, 2, 6]
    # one invariant factor is 1, so at most one column is a pivot and 2 and 6
    # come from the dense pass; in several runs that pivot is found first
    assert len(seen) == 20
    widths = [len(A) for A in seen]
    assert min(widths) == 2 and widths.count(2) >= 5


def _random_unimodular(rng, n):
    U = _identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
    return U


# -- cyclic_functional against the free row of the dense quotient --------------


def _record_quotients(monkeypatch):
    """The sizes of the dense ``ZQuotient`` calls made inside ``_intlinalg``."""
    seen = []
    real = _intlinalg.ZQuotient

    def recording(n, columns, lifts=False):
        seen.append((n, len(columns)))
        return real(n, columns, lifts)

    monkeypatch.setattr(_intlinalg, "ZQuotient", recording)
    return seen


def test_cyclic_functional_is_the_free_row_of_the_dense_quotient(monkeypatch):
    seen = _record_quotients(monkeypatch)
    rng = random.Random(23)
    cases = {"units": 0, "fallback": 0, "torsion": 0, "rank 0": 0, "rank >= 2": 0}
    for _ in range(3000):
        n = rng.randint(1, 8)
        ncols = rng.randint(0, n + 2)
        density = rng.uniform(0.2, 0.6)
        A = [
            [rng.choice((1, -1, 1, -1, 2, -2, 3, 5)) if rng.random() < density else 0
             for _ in range(ncols)]
            for _ in range(n)
        ]
        quo = ZQuotient(n, [list(col) for col in zip(*A)])  # the whole matrix, dense
        before = len(seen)
        if quo.rank == 1 and not quo.torsion:
            phi = cyclic_functional(n, sparse_columns(A, ncols))
            free_row = quo.S[quo.free_idx[0]]
            assert phi in (free_row, [-a for a in free_row]), A
            cases["fallback" if len(seen) > before else "units"] += 1
            continue
        with pytest.raises(ValueError, match="not Z"):
            cyclic_functional(n, sparse_columns(A, ncols))
        if quo.rank == 1:
            cases["torsion"] += 1
        else:
            cases["rank 0" if quo.rank == 0 else "rank >= 2"] += 1
    assert min(cases.values()) >= 50, cases


def test_cyclic_functional_on_small_presentations(monkeypatch):
    seen = _record_quotients(monkeypatch)
    # a path of unit relations x_i = x_(i+1): every pivot is a unit
    assert cyclic_functional(4, [{i: 1, i + 1: -1} for i in range(3)]) in ([1] * 4, [-1] * 4)
    assert cyclic_functional(1, []) == [1]
    assert not seen
    # Z^2 / (2, 3) is Z, with no +-1 entry: the dense quotient supplies (3, -2)
    assert cyclic_functional(2, [{0: 2, 1: 3}]) in ([3, -2], [-3, 2])
    # a unit pivot, then a left-over column 2 x_1 + 3 x_2 on the unpivoted rows
    assert cyclic_functional(3, [{0: 1, 1: 1}, {1: 2, 2: 3}]) in ([-3, 3, -2], [3, -3, 2])
    assert seen == [(2, 1), (2, 1)]
    for n, columns in (
        (2, [{0: 2}]),  # Z + Z/2
        (2, [{0: 4, 1: 2}]),  # Z + Z/2 again, nothing to pivot on
        (1, [{0: 1}]),  # rank 0
        (2, [{0: 1, 1: 1}, {0: 1, 1: -1}]),  # rank 0 with torsion Z/2
        (3, [{0: 1}]),  # rank 2
        (2, []),  # rank 2, no relation
        (0, []),  # rank 0, no coordinate
    ):
        with pytest.raises(ValueError, match="not Z"):
            cyclic_functional(n, columns)
