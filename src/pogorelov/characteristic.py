"""Characteristic matrices over Z and Z_2, facet 4-colourings, mod-2
lifting, and equivalence of characteristic pairs.

A characteristic matrix for an n-polytope is an n x m matrix whose column
minors at every vertex are unimodular (odd, over Z_2).  Two pairs (P, L) and
(P', L') are equivalent when some combinatorial equivalence sigma of the
polytopes, a unimodular left factor A, and column signs B give
L'_sigma = A L B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complex import _ints, _numbered_lines
from .errors import InvariantViolation, SizeGuard


class NotCharacteristic(ValueError):
    pass


class LiftFailed(InvariantViolation):
    """Mod-2 lift produced a non-characteristic matrix (cannot happen for
    n = 3 by the 0/1-determinant argument; surfaced rather than ignored)."""


@dataclass(frozen=True)
class CharMatrix:
    """n x m matrix with a coefficient-ring tag 'Z' or 'Z2'."""

    n: int
    rows: tuple
    ring: str = "Z"

    def __post_init__(self):
        if self.ring not in ("Z", "Z2"):
            raise ValueError("ring must be 'Z' or 'Z2'")
        if len(self.rows) != self.n or len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged matrix")
        bad = [a for r in self.rows for a in r if type(a) is not int]
        if bad:
            raise TypeError(f"matrix entries must be int, got {bad[0]!r}")
        if self.ring == "Z2" and any(a % 2 != a for r in self.rows for a in r):
            raise ValueError("Z2 matrix entries must be 0 or 1")

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def column(self, i: int) -> tuple:
        return tuple(self.rows[r][i - 1] for r in range(self.n))

    def reduce_mod2(self) -> "CharMatrix":
        return CharMatrix(
            n=self.n,
            rows=tuple(tuple(a % 2 for a in r) for r in self.rows),
            ring="Z2",
        )

    def to_text(self) -> str:
        return "\n".join(" ".join(str(a) for a in r) for r in self.rows) + "\n"

    @classmethod
    def from_text(cls, text: str, ring: str = "Z") -> "CharMatrix":
        rows = [_ints(line, line[1]) for line in _numbered_lines(text)]
        if not rows:
            raise ValueError("empty matrix")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("rows have different lengths")
        return cls(n=len(rows), rows=tuple(rows), ring=ring)


def _det(cols) -> int:
    n = len(cols)
    if n == 2:
        return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    if n == 3:
        (a, d, g), (b, e, h), (c, f, i) = cols
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise ValueError("only n = 2, 3 supported")


def is_characteristic(P, L: CharMatrix):
    """Check the vertex-minor condition; returns (ok, first bad vertex)."""
    if L.n != P.n or L.m != P.m:
        raise ValueError("matrix dimensions do not match the polytope")
    for vert in P.vertex_tuples:
        d = _det([L.column(i) for i in vert])
        if L.ring == "Z":
            if d not in (1, -1):
                return False, vert
        else:
            if d % 2 != 1:
                return False, vert
    return True, None


# ---------------------------------------------------------------------------
# 4-colourings


def enumerate_colourings(P) -> list[tuple[int, ...]]:
    """All proper facet 4-colourings, as tuples (colour of facet i at i-1)."""
    m = P.m
    order = sorted(range(1, m + 1))
    neighbors = {i: [j for j in range(1, m + 1) if j != i and P.adjacent(i, j)] for i in order}
    colouring = [0] * (m + 1)
    out = []

    def place(idx: int):
        if idx == m:
            out.append(tuple(colouring[1:]))
            return
        i = order[idx]
        used = {colouring[j] for j in neighbors[i] if colouring[j]}
        for c in (1, 2, 3, 4):
            if c not in used:
                colouring[i] = c
                place(idx + 1)
        colouring[i] = 0

    place(0)
    return out


def _colour_canonical(chi, autos) -> tuple[int, ...]:
    """Least image of chi under the automorphisms and colour permutations.

    For a fixed automorphism the least recolouring renames colours in order
    of first occurrence, so each automorphism costs one pass.
    """
    best = None
    for sigma in autos:
        moved = [0] * len(chi)
        for i, c in enumerate(chi, start=1):
            moved[sigma[i] - 1] = c
        rename = {}
        cand = tuple(rename.setdefault(c, len(rename) + 1) for c in moved)
        if best is None or cand < best:
            best = cand
    return best


def colouring_classes(P) -> int:
    """Orbits of proper 4-colourings under colour permutations together with
    the combinatorial symmetries of P (reflections included)."""
    colourings = enumerate_colourings(P)
    autos = [{i: i for i in range(1, P.m + 1)}] if not colourings else list(
        P.isomorphisms_to(P)
    )
    return len({_colour_canonical(chi, autos) for chi in colourings})


def colouring_to_matrix(chi) -> CharMatrix:
    """Colours 1,2,3 map to e1,e2,e3 and colour 4 to e1+e2+e3."""
    cols = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (1, 1, 1)}
    vecs = [cols[c] for c in chi]
    return CharMatrix(n=3, rows=tuple(tuple(v[r] for v in vecs) for r in range(3)))


# ---------------------------------------------------------------------------
# Mod-2 lifting


def lift_mod2(P, L2: CharMatrix) -> CharMatrix:
    """Re-read a Z2-characteristic matrix as a 0/1 integer matrix.

    Every 0/1 3x3 block with odd determinant has determinant +-1, so the
    lift is automatically characteristic; verified anyway.
    """
    if L2.ring != "Z2":
        raise ValueError("expected a Z2 matrix")
    if L2.n != 3:
        raise ValueError("mod-2 lifting is implemented for n = 3")
    ok, vert = is_characteristic(P, L2)
    if not ok:
        raise NotCharacteristic(f"input is not Z2-characteristic at vertex {vert}")
    lifted = CharMatrix(n=3, rows=L2.rows, ring="Z")
    ok, vert = is_characteristic(P, lifted)
    if not ok:
        raise LiftFailed(f"lifted matrix fails at vertex {vert}")
    return lifted


# ---------------------------------------------------------------------------
# Pair equivalence


@dataclass(frozen=True)
class PairEquivalence:
    """Witness: facet bijection sigma, unimodular A, column signs B with
    L'_{sigma(i)} = B_i * A L_i for every facet i."""

    sigma: dict
    A: tuple
    B: tuple

    def check(self, L: CharMatrix, L2: CharMatrix) -> bool:
        for i in range(1, L.m + 1):
            col = L.column(i)
            img = tuple(
                sum(self.A[r][s] * col[s] for s in range(L.n)) for r in range(L.n)
            )
            want = L2.column(self.sigma[i])
            if L.ring == "Z2":
                if tuple(a % 2 for a in img) != want:
                    return False
            else:
                if tuple(self.B[i - 1] * a for a in img) != want:
                    return False
        return True


def _mat_inverse(cols, ring):
    """Inverse (as rows) of the n x n matrix (n = 2, 3) with the given columns
    over ring 'Z' or 'Z2', or None when it is not invertible there.

    Over Z the determinant must be +-1; over Z2 it must be odd, and then the
    adjugate reduced mod 2 is the inverse."""
    n = len(cols)
    d = _det(cols)
    if not (d % 2 if ring == "Z2" else d in (1, -1)):
        return None
    if n == 2:
        (a, c), (b, d2) = cols
        adj = ((d2, -b), (-c, a))
    else:
        M = [[cols[j][i] for j in range(3)] for i in range(3)]
        adj = tuple(
            tuple(
                M[(j + 1) % 3][(i + 1) % 3] * M[(j + 2) % 3][(i + 2) % 3]
                - M[(j + 1) % 3][(i + 2) % 3] * M[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            )
            for i in range(3)
        )
    if ring == "Z2":
        return tuple(tuple(a % 2 for a in row) for row in adj)
    return tuple(tuple(a * d for a in row) for row in adj)


def _solve_A(base_cols, target_cols, ring):
    """A with A * base = target, both bases unimodular/odd."""
    inv = _mat_inverse(base_cols, ring)
    if inv is None:
        return None
    n = len(base_cols)
    # A = target_matrix * inv where target matrix has target_cols as columns
    A = tuple(
        tuple(sum(target_cols[k][r] * inv[k][s] for k in range(n)) for s in range(n))
        for r in range(n)
    )
    if ring == "Z2":
        return tuple(tuple(a % 2 for a in row) for row in A)
    return A


def pairs_equivalent(P, L: CharMatrix, P2, L2: CharMatrix) -> PairEquivalence | None:
    """Search for an equivalence of characteristic pairs (P, L) ~ (P2, L2).

    Runs over all combinatorial equivalences sigma of the polytopes; for each
    one the base-vertex columns determine A up to the 2^n sign choices, and
    the remaining columns are checked directly.  Returns the first witness.
    """
    ok, vert = is_characteristic(P, L)
    if not ok:
        raise NotCharacteristic(f"first pair fails at vertex {vert}")
    ok, vert = is_characteristic(P2, L2)
    if not ok:
        raise NotCharacteristic(f"second pair fails at vertex {vert}")
    if L.ring != L2.ring:
        raise ValueError("pairs live over different coefficient rings")
    n, ring = L.n, L.ring
    base = min(P.vertex_tuples)
    base_cols = [L.column(i) for i in base]
    sign_patterns = [(1,) * n] if ring == "Z2" else list(itertools.product((1, -1), repeat=n))
    for sigma in P.isomorphisms_to(P2):
        image_cols = [L2.column(sigma[i]) for i in base]
        for signs in sign_patterns:
            target = [tuple(s * a for a in col) for s, col in zip(signs, image_cols)]
            A = _solve_A(base_cols, target, ring)
            if A is None:
                continue
            B = [1] * P.m
            good = True
            for i in range(1, P.m + 1):
                col = L.column(i)
                img = tuple(sum(A[r][s] * col[s] for s in range(n)) for r in range(n))
                want = L2.column(sigma[i])
                if ring == "Z2":
                    if tuple(a % 2 for a in img) != want:
                        good = False
                        break
                else:
                    if img == want:
                        B[i - 1] = 1
                    elif tuple(-a for a in img) == want:
                        B[i - 1] = -1
                    else:
                        good = False
                        break
            if good:
                witness = PairEquivalence(sigma=dict(sigma), A=A, B=tuple(B))
                if not witness.check(L, L2):
                    raise InvariantViolation("internal witness verification failed")
                return witness
    return None


# ---------------------------------------------------------------------------
# Exhaustive Z2 enumeration


def enumerate_char_z2(P, max_m: int = 14) -> tuple[int, int]:
    """(count of Z2-characteristic functions, count of equivalence classes).

    GL(3, Z2) acts freely on characteristic functions, so the search fixes
    the columns of the least vertex to the standard basis and multiplies the
    count by |GL(3, Z2)| = 168; classes are orbits of the normalized forms
    under the combinatorial symmetries of P.

    `max_m` bounds the number of facets, and SizeGuard is raised above it.
    The backtracking search places one column per facet, so its size grows
    exponentially with m: on a shared 2-vCPU machine with Python 3.11 the
    dodecahedron (m = 12) takes about 0.5 s and barrel(6) (m = 14, the
    default bound) about 1.4 s.  Pass a larger `max_m` to search further.
    """
    if P.n != 3:
        raise ValueError("Z2 enumeration is implemented for 3-polytopes")
    if P.m > max_m:
        raise SizeGuard(f"m = {P.m} exceeds the exhaustive-search guard {max_m}")
    m = P.m
    base = min(P.vertex_tuples)
    # base facets first, then breadth-first by adjacency for early pruning
    order = list(base)
    seen = set(order)
    queue = list(order)
    while queue:
        i = queue.pop(0)
        for j in range(1, m + 1):
            if j not in seen and P.adjacent(i, j):
                seen.add(j)
                order.append(j)
                queue.append(j)
    pos = {f: t for t, f in enumerate(order)}
    verts_by_last = {f: [] for f in order}
    for vert in P.vertex_tuples:
        last = max(vert, key=lambda f: pos[f])
        verts_by_last[last].append(vert)
    cols = [0] * (m + 1)
    autos = list(P.isomorphisms_to(P))
    count = 0
    classes = set()

    def dependent(a, b, c):
        return a == b or c in (0, a, b, a ^ b)

    def place(t: int):
        nonlocal count
        if t == m:
            # canonicalised as found: the functions themselves are never stored
            count += 1
            classes.add(_z2_canonical(cols[1:], autos, P))
            return
        i = order[t]
        choices = (STD[t],) if t < 3 else range(1, 8)
        for v in choices:
            cols[i] = v
            ok = True
            for vert in verts_by_last[i]:
                a, b, c = (cols[x] for x in vert)
                if dependent(a, b, c):
                    ok = False
                    break
            if ok:
                place(t + 1)
        cols[i] = 0

    STD = (1, 2, 4)
    place(0)
    return 168 * count, len(classes)


def _z2_canonical(lam, autos, P):
    """Canonical form of a Z2 characteristic function under GL(3,Z2) x Aut(P).

    For each symmetry the base-vertex columns are normalized to the standard
    basis, which fixes the GL(3,Z2) factor uniquely."""
    best = None
    base = min(P.vertex_tuples)
    for sigma in autos:
        moved = [0] * P.m
        for i in range(1, P.m + 1):
            moved[sigma[i] - 1] = lam[i - 1]
        a, b, c = (moved[i - 1] for i in base)
        # linear map sending a,b,c to e1,e2,e3, applied bitwise
        table = {0: 0, a: 1, b: 2, a ^ b: 3, c: 4, a ^ c: 5, b ^ c: 6, a ^ b ^ c: 7}
        cand = tuple(table[v] for v in moved)
        if best is None or cand < best:
            best = cand
    return best
