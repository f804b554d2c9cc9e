"""Exact linear algebra over the integers and over GF(2).

Matrices are dense lists of rows of Python ints, except for the sparse
columns (mappings row -> non-zero entry) of ``unit_pivot_factors`` and
``cyclic_functional``: both eliminate the +-1 pivots with one loop
(``_unit_pivots``) and pass only what is left to a dense Smith pass.
Everything here is sized for desk-scale inputs (a few hundred
rows/columns); the integer routines prefer +-1 pivots to keep coefficient
growth down.

GF(2) vectors are Python ints, bit i = coordinate i.  ``gf2_vector`` packs a
row or column of integer entries into one; ``GF2Echelon`` is the one
elimination over GF(2): ``add`` stores a vector in echelon form, ``reduce``
reduces a vector against the stored ones while XORing a tracked combination,
and ``solve`` back-substitutes a consistent system.  ``gf2_rank`` and
``gf2_kernel`` are built on it.
"""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _pick_pivot(D, k, nrows, ncols):
    # smallest nonzero |entry| in the remaining block; +-1 wins immediately
    best = None
    for i in range(k, nrows):
        row = D[i]
        for j in range(k, ncols):
            a = row[j]
            if a:
                if a == 1 or a == -1:
                    return i, j
                if best is None or abs(a) < best[0]:
                    best = (abs(a), i, j)
    if best is None:
        return None
    return best[1], best[2]


def diagonalize(A, track_left=False, track_right=False, track_inverse=False):
    """Bring a copy of A to diagonal form D = S*A*T by row/column operations.

    Returns (D, S, Sinv, T) where the tracked factors are None unless
    requested: S with track_left, its inverse Sinv with track_inverse, T with
    track_right.  D is not put into divisibility-normalized Smith form; use
    invariant_factors for that.
    """
    D = [row[:] for row in A]
    nrows = len(D)
    ncols = len(D[0]) if nrows else 0
    S = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if track_left else None
    Sinv = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if track_inverse else None
    T = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if track_right else None

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        if track_left:
            S[i], S[j] = S[j], S[i]
        if track_inverse:
            for r in Sinv:
                r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row i += q * row j
        Di, Dj = D[i], D[j]
        for c in range(ncols):
            Di[c] += q * Dj[c]
        if track_left:
            Si, Sj = S[i], S[j]
            for c in range(nrows):
                Si[c] += q * Sj[c]
        if track_inverse:
            for r in Sinv:
                r[j] -= q * r[i]

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        if track_left:
            S[i] = [-x for x in S[i]]
        if track_inverse:
            for r in Sinv:
                r[i] = -r[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        if track_right:
            for r in T:
                r[i], r[j] = r[j], r[i]

    def col_add(i, j, q):
        # col i += q * col j
        for r in D:
            r[i] += q * r[j]
        if track_right:
            for r in T:
                r[i] += q * r[j]

    k = 0
    while True:
        piv = _pick_pivot(D, k, nrows, ncols)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            row_swap(pi, k)
        if pj != k:
            col_swap(pj, k)
        while True:
            # clear column k with row ops
            again = False
            for i in range(k + 1, nrows):
                a, b = D[k][k], D[i][k]
                if b == 0:
                    continue
                if b % a == 0:
                    row_add(i, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    # combine rows so entry (k,k) becomes g
                    rk, ri = D[k], D[i]
                    new_k = [x * rk[c] + y * ri[c] for c in range(ncols)]
                    new_i = [-(b // g) * rk[c] + (a // g) * ri[c] for c in range(ncols)]
                    D[k], D[i] = new_k, new_i
                    if track_left:
                        sk, si = S[k], S[i]
                        S[k] = [x * sk[c] + y * si[c] for c in range(nrows)]
                        S[i] = [-(b // g) * sk[c] + (a // g) * si[c] for c in range(nrows)]
                    if track_inverse:
                        # inverse of [[x, y], [-b/g, a/g]] is [[a/g, -y], [b/g, x]]
                        for r in Sinv:
                            rk_, ri_ = r[k], r[i]
                            r[k] = (a // g) * rk_ + (b // g) * ri_
                            r[i] = -y * rk_ + x * ri_
                    again = True
            # clear row k with column ops
            for j in range(k + 1, ncols):
                a, b = D[k][k], D[k][j]
                if b == 0:
                    continue
                if b % a == 0:
                    col_add(j, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    for r in D:
                        ck, cj = r[k], r[j]
                        r[k] = x * ck + y * cj
                        r[j] = -(b // g) * ck + (a // g) * cj
                    if track_right:
                        for r in T:
                            ck, cj = r[k], r[j]
                            r[k] = x * ck + y * cj
                            r[j] = -(b // g) * ck + (a // g) * cj
                    again = True
            if not any(D[i][k] for i in range(k + 1, nrows)) and not any(
                D[k][j] for j in range(k + 1, ncols)
            ):
                break
            if not again:
                break
        if D[k][k] < 0:
            row_neg(k)
        k += 1
        if k >= min(nrows, ncols):
            break
    return D, S, Sinv, T


def rank_z(A) -> int:
    if not A or not A[0]:
        return 0
    D, _, _, _ = diagonalize(A)
    return sum(1 for i in range(min(len(D), len(D[0]))) if D[i][i])


def invariant_factors(A) -> list[int]:
    """Nonzero diagonal of the Smith normal form, with d1 | d2 | ... ."""
    if not A or not A[0]:
        return []
    D, _, _, _ = diagonalize(A)
    return divisibility_form(D[i][i] for i in range(min(len(D), len(D[0]))))


def divisibility_form(diag) -> list[int]:
    """The invariant factors d1 | d2 | ... of a diagonal matrix, given its
    diagonal: diag(2, 3) gives [1, 6]."""
    diag = [abs(d) for d in diag if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g, _, _ = xgcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def _unit_pivots(columns):
    """(pivots, rest) of sparse columns: each +-1 pivot as (row, reduced
    column), oldest first, and the left-over columns.  Columns are taken in
    turn and reduced against the pivots so far, oldest first; a reduced
    column with a +-1 entry becomes a pivot there, and the left-over columns
    are taken again until a round finds no pivot.  So the pivot block is
    unitriangular, and the left-over columns have no +-1 entry and zeros in
    every pivot row."""
    pivot_of, order = {}, []  # row -> index of its pivot in order
    rest = [col for col in columns if col]
    while rest:
        found = len(order)
        left = []
        for col in rest:
            col = _reduce(col, pivot_of, order)
            for r, a in col.items():
                if a == 1 or a == -1:
                    pivot_of[r] = len(order)
                    order.append((r, col))
                    break
            else:
                if col:
                    left.append(col)
        rest = left
        if len(order) == found:
            break
    return order, rest


def unit_pivot_factors(columns) -> list[int]:
    """``invariant_factors`` of the matrix whose columns are given sparse,
    each a mapping row -> non-zero entry.  Row operations with the
    unitriangular block of ``_unit_pivots`` clear the rest of the pivot
    columns and touch no left-over column, so each pivot gives a factor of 1
    and only the left-over columns go to the dense ``invariant_factors``."""
    order, rest = _unit_pivots(columns)
    if not rest:
        return [1] * len(order)
    rows = sorted(set().union(*rest))
    return [1] * len(order) + invariant_factors([[col.get(r, 0) for r in rows] for col in rest])


def cyclic_functional(n: int, columns) -> list[int]:
    """The primitive functional phi on Z^n that vanishes on every sparse
    column, unique up to sign, when Z^n modulo the columns is Z; ValueError
    when the quotient has another rank or torsion.  Modulo the pivot columns
    of ``_unit_pivots``, Z^n is free on the unpivoted rows: phi is 1 on the
    only one when nothing is left over, else the free row of the dense
    ``ZQuotient`` of the left-over columns there.  It is back-substituted
    through the pivots, newest first, whose columns meet only rows set."""
    order, rest = _unit_pivots(columns)
    pivots = {r for r, _ in order}
    free = [r for r in range(n) if r not in pivots]
    phi = [0] * n
    if rest:
        quo = ZQuotient(len(free), [[col.get(r, 0) for r in free] for col in rest])
        cyclic = quo.rank == 1 and not quo.torsion
        if cyclic:
            for r, a in zip(free, quo.S[quo.free_idx[0]]):
                phi[r] = a
    else:
        cyclic = len(free) == 1
        if cyclic:
            phi[free[0]] = 1
    if not cyclic:
        raise ValueError("the quotient of Z^n by the columns is not Z")
    for r, col in reversed(order):
        phi[r] = -col[r] * sum(a * phi[s] for s, a in col.items() if s != r)
    return phi


def _reduce(col, pivot_of, order):
    """The sparse column col with the entry in every pivot row cleared,
    oldest pivot first: clearing with a pivot adds entries only in rows that
    are no pivot or a newer pivot's, so each pivot is used at most once.
    col itself is not changed; it is returned as it is when it has no entry
    in a pivot row."""
    pending = [pivot_of[r] for r in col if r in pivot_of]
    if pending:
        col = dict(col)
    while pending:
        row, pivot = order[min(pending)]
        q = col[row] * pivot[row]  # the pivot entry is +-1, its own inverse
        for r, a in pivot.items():
            v = col.get(r, 0) - q * a
            if v:
                col[r] = v
            else:
                del col[r]
        pending = [pivot_of[r] for r in col if r in pivot_of]
    return col


def kernel_basis(A) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0} as a list of column vectors.

    The basis spans the full (saturated) kernel lattice.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    D, _, _, T = diagonalize(A, track_right=True)
    r = min(nrows, ncols)
    kernel_cols = [j for j in range(ncols) if j >= r or D[j][j] == 0]
    return [[T[i][j] for i in range(ncols)] for j in kernel_cols]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


class ZQuotient:
    """Presentation of Z^n / col-span(R) with coordinates, and with lifts of
    the free generators (``free_reps``, else None) when ``lifts`` is set."""

    def __init__(self, n: int, relation_columns: list[list[int]], lifts: bool = False):
        self.n = n
        if relation_columns:
            A = [[col[i] for col in relation_columns] for i in range(n)]
        else:
            A = [[0] for _ in range(n)] if n else []
        D, S, Sinv, _ = diagonalize(A, track_left=True, track_inverse=lifts)
        self.S = S
        diag = []
        ncols = len(A[0]) if A else 0
        for i in range(n):
            d = D[i][i] if i < min(n, ncols) else 0
            diag.append(abs(d))
        self.diag = diag
        self.free_idx = [i for i in range(n) if diag[i] == 0]
        self.torsion_idx = [i for i in range(n) if diag[i] > 1]
        self.torsion = [diag[i] for i in self.torsion_idx]
        self.rank = len(self.free_idx)
        # lifts of the free generators back to Z^n: columns of S^-1
        self.free_reps = (
            [[Sinv[r][i] for r in range(n)] for i in self.free_idx] if lifts else None
        )

    def coords(self, x: list[int]) -> tuple[list[int], list[int]]:
        """Free and torsion coordinates of the class of x."""
        y = mat_vec(self.S, x)
        free = [y[i] for i in self.free_idx]
        tors = [y[i] % d for i, d in zip(self.torsion_idx, self.torsion)]
        return free, tors


# ---------------------------------------------------------------------------
# GF(2): vectors are ints, bit i = coordinate i.


def gf2_vector(entries) -> int:
    """Pack integer entries into a GF(2) vector: bit i = entries[i] mod 2."""
    bits = 0
    for i, a in enumerate(entries):
        if a % 2:
            bits |= 1 << i
    return bits


class GF2Echelon:
    """Incremental echelon form with combination tracking.

    Each stored vector sits under its highest set bit (its pivot) together
    with a combination: an int the caller XORs along, such as the indices of
    the input vectors that built it, or the right-hand side of an equation.
    """

    def __init__(self):
        self.pivot_of = {}  # pivot bit position -> (vector, combination)
        self.count = 0

    def reduce(self, v: int, comb: int = 0):
        """(v', comb', b): v reduced until its highest bit b is not a pivot,
        with the pivots' combinations XORed into comb; (0, comb', -1) when v
        lies in the span."""
        while v:
            b = v.bit_length() - 1
            if b in self.pivot_of:
                pv, pc = self.pivot_of[b]
                v ^= pv
                comb ^= pc
            else:
                return v, comb, b
        return 0, comb, -1

    def add(self, v: int, comb: int = 0) -> bool:
        v, comb, b = self.reduce(v, comb)
        if v == 0:
            return False
        self.pivot_of[b] = (v, comb)
        self.count += 1
        return True

    def solve(self) -> int:
        """A solution x (bit i = variable i) of the equations v . x = c added
        as (v, c) with c in {0, 1}; pivots are taken in ascending order and
        free variables set to 0.  The caller rejects a system in which an
        equation reduced to 0 = 1."""
        x = 0
        for b in sorted(self.pivot_of):
            v, rhs = self.pivot_of[b]
            # bits of v below b are earlier pivots (already set) or free (0)
            if rhs ^ ((v & x).bit_count() & 1):
                x |= 1 << b
        return x


def gf2_rank(rows: list[int]) -> int:
    ech = GF2Echelon()
    for v in rows:
        ech.add(v)
    return ech.count


def gf2_kernel(columns: list[int]) -> list[int]:
    """Kernel of the map with the given columns; kernel vectors are ints over
    column indices."""
    ech = GF2Echelon()
    kernel = []
    for j, col in enumerate(columns):
        v, comb, _ = ech.reduce(col, 1 << j)
        if v == 0:
            kernel.append(comb)
        else:
            ech.add(v, comb)
    return kernel
