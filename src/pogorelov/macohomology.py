"""Cohomology rings of moment-angle complexes via the finite model R*(K).

R*(K) is the quotient of the Koszul algebra of the face ring by
v_i^2 = u_i v_i = 0; it has basis u_J v_I over pairs of disjoint subsets
with I a face.  The component of multidegree M splits off a finite cochain
complex whose cohomology in level p = |I| equals the reduced simplicial
cohomology of the full subcomplex K_M in degree p - 1 (Hochster).  That
complex is ``r_basis`` (the faces of each level) with the differential
``_r_matrix``, as sparse columns: one {row: +-1} per face, with a few
non-zero entries each.  Everything below is built from these two.

Each level has numbers (its rank and torsion) and, on demand, a piece (its
cocycle representatives and a projection onto its classes).  The numbers
come from one pass per differential, shared by the two levels it touches.
Over Z that pass eliminates the +-1 pivots of the sparse columns, each an
invariant factor of 1, and hands what is left, usually nothing, to a dense
Smith pass (``unit_pivot_factors``); over Z2 the columns are packed into
bit vectors for one GF(2) rank.  Betti numbers, torsion and the size guard
read only these.  A piece takes a tracked dense Smith pass and a quotient
pass of its own (GF(2) elimination over Z2), and is built only for a level
that a class is projected onto or read from: ``from_chain``, ``h3_class``,
``cup_product`` and ``RingElement.chains``.

Whenever a level's numbers are first known they are compared with a second
route, so a disagreement (which would mean a bug) raises InternalMismatch
instead of propagating; the two differentials around the level are checked
to compose to zero as well.  When K is a simplicial 2-sphere (the dual of a
simple 3-polytope) the second route is counting: components, edges and
triangles of K_M give its ranks and there is no torsion.  For any other K it
is the cohomology of K_M by Smith form (or GF(2) elimination).  A piece must
agree with its level's numbers; a piece built before them supplies them.
Products build only the levels they land in, and on a 2-sphere they skip a
target level whose counted rank is zero without building it.

Products are computed monomial-wise in R*(K) and re-expressed in the chosen
cohomology basis by reduction modulo coboundaries; no full multiplication
table is ever materialized, so memory stays proportional to the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType

from ._intlinalg import (
    GF2Echelon,
    ZQuotient,
    diagonalize,
    divisibility_form,
    gf2_kernel,
    gf2_rank,
    gf2_vector,
    rank_z,
    unit_pivot_factors,
)
from .complex import (
    GradedHomology,
    SimplicialComplex,
    _bits,
    _mask,
    _unmask,
    full_subcomplex,
    reduced_cohomology,
    sphere_subcomplex_ranks,
)
from .errors import InvariantViolation, SizeGuard
from .polytope import SimplePolytope, dual_complex


class InternalMismatch(InvariantViolation):
    """The two cohomology routes disagree; signals a bug, not a user error."""


_UNIT = frozenset((-1, 0, 1))

# guards of MultigradedCohomology.compute_all; its docstring says why
_MAX_VERTICES_FULL = 20
_MAX_TOTAL_DIM = 20000


@dataclass(frozen=True)
class KoszulMonomial:
    """u_J v_I with J, I disjoint subsets of [m] and I a face of K."""

    J: tuple[int, ...]
    I: tuple[int, ...]

    def __str__(self):
        parts = [f"u{j}" for j in self.J] + [f"v{i}" for i in self.I]
        return " ".join(parts) if parts else "1"

    @property
    def degree(self) -> int:
        return len(self.J) + 2 * len(self.I)


def _merge_sign(a: int, b: int) -> int:
    """Koszul sign reordering u_A u_B into u_{A|B}: count inversions."""
    inv = 0
    for y in _bits(b):
        inv += (a >> (y + 1)).bit_count()
    return -1 if inv % 2 else 1


def r_basis(K: SimplicialComplex, J) -> dict[int, list[int]]:
    """Basis of the multidegree-J component, keyed by level p = |I|.

    Level-p basis elements are faces L of K with L subset J, |L| = p; the
    monomial is u_{J\\L} v_L.  Faces are bitmasks sorted ascending.
    """
    jmask = _mask(J)
    by_size = K.faces_by_size()
    out = {}
    for p in range(jmask.bit_count() + 1):
        lvl = [f for f in by_size.get(p, []) if f & ~jmask == 0]
        if lvl:
            out[p] = lvl
    return out


def _r_matrix(basis: dict[int, list[int]], jmask: int, p: int) -> list[dict[int, int]]:
    """The differential d: level p -> level p+1 of multidegree J on a basis
    built by ``r_basis``, as sparse columns: one {row: +-1} per level-p face,
    rows indexing the level-(p+1) faces, built in time linear in |J| per
    column.

    d(u_{J'} v_I) = sum over j in J' with I+j a face of
    (-1)^(pos of j in J' - 1) u_{J'-j} v_{I+j}.
    """
    index = {f: i for i, f in enumerate(basis.get(p + 1, ()))}
    cols = []
    for L in basis.get(p, ()):
        col = {}
        jm = jmask & ~L
        sign = 1  # (-1)^(pos of j in J \ L - 1), walking j up through J \ L
        while jm:
            low = jm & -jm
            r = index.get(L | low)
            if r is not None:
                col[r] = sign
            sign = -sign
            jm ^= low
        cols.append(col)
    return cols


def _dense(cols: list[dict[int, int]], height: int) -> list[list[int]]:
    """Sparse columns as dense lists of the given height."""
    out = []
    for col in cols:
        vec = [0] * height
        for r, a in col.items():
            vec[r] = a
        out.append(vec)
    return out


def _gf2(cols: list[dict[int, int]]) -> list[int]:
    """Sparse columns packed into GF(2) vectors: bit r = entry r mod 2."""
    out = []
    for col in cols:
        v = 0
        for r, a in col.items():
            if a % 2:
                v |= 1 << r
        out.append(v)
    return out


def r_differential(K: SimplicialComplex, J, p: int) -> list[list[int]]:
    """``_r_matrix`` of multidegree J as a dense matrix of rows (rows =
    level p+1)."""
    jmask = _mask(J)
    basis = r_basis(K, jmask)
    cols = _r_matrix(basis, jmask, p)
    return [[col.get(r, 0) for col in cols] for r in range(len(basis.get(p + 1, ())))]


# ---------------------------------------------------------------------------
# Per-multidegree cohomology pieces


class _PieceZ:
    """Level p of one multidegree over Z, with coordinates: ker d_out / im d_in.

    Built only for a caller that projects a cocycle (``Component.piece``);
    the rank and torsion alone come from ``Component.numbers``.  One tracked
    Smith pass over d_out^T gives a unimodular S with S d_out^T T diagonal
    of rank r.  The coordinate map is z -> z S^-1: z equals its coordinates
    times the rows of S, and rows r.. of S span the saturated lattice
    ker d_out, so z is a cocycle iff its first r coordinates are 0, and then
    the rest are its coordinates in that kernel basis.  A second pass
    (``ZQuotient``) presents the kernel modulo the image of d_in.  Its
    ``torsion`` lists the moduli of the torsion coordinates of ``project``,
    which need not be in divisibility form: diag(2, 3) presents Z6.

    d_in and d_out come as sparse columns, and height is the size of level
    p+1.  Only d_out^T is made dense, for the tracked Smith pass.
    """

    __slots__ = ("basis", "rank", "torsion", "_r", "_sinv", "_quo", "reps")

    def __init__(self, basis, d_in, d_out, height):
        self.basis = basis  # list of face masks
        n = len(basis)
        if height:
            d_out_t = _dense(d_out, height)  # d_out's columns are the rows of d_out^T
            D, S, self._sinv, _ = diagonalize(d_out_t, track_left=True, track_inverse=True)
            self._r = sum(1 for i in range(min(n, height)) if D[i][i])
        else:  # nothing above level p: every chain is a cocycle, S = 1
            S = self._sinv = None
            self._r = 0
        img_coords = []
        for col in d_in:
            if any(col.values()):
                c = self._coords(col)
                if any(c[: self._r]):
                    raise InternalMismatch("d_out d_in is not zero")
                img_coords.append(c[self._r :])
        self._quo = ZQuotient(n - self._r, img_coords, lifts=True)
        self.rank = self._quo.rank
        self.torsion = tuple(self._quo.torsion)
        reps = []
        for lift in self._quo.free_reps:
            if S is None:
                reps.append(lift)
                continue
            vec = [0] * n
            for t, c in enumerate(lift, self._r):
                if c:
                    vec = [x + c * y for x, y in zip(vec, S[t])]
            reps.append(vec)
        self.reps = reps  # free representatives only

    def _coords(self, z: dict[int, int]) -> list[int]:
        """z S^-1 for z given as {basis position: coefficient}, summing only
        the rows of S^-1 at those positions."""
        c = [0] * len(self.basis)
        if self._sinv is None:
            for i, a in z.items():
                c[i] = a
            return c
        for i, a in z.items():
            if a:
                c = [x + a * y for x, y in zip(c, self._sinv[i])]
        return c

    def project(self, chain: dict) -> tuple[list[int], list[int]]:
        """Coordinates (free, torsion) of a cocycle given as {face mask: coeff};
        ValueError if the chain is not a cocycle."""
        c = self._coords({i: chain[L] for i, L in enumerate(self.basis) if L in chain})
        if any(c[: self._r]):
            raise ValueError("not a cocycle")
        return self._quo.coords(c[self._r :])


class _PieceZ2:
    __slots__ = ("basis", "rank", "torsion", "_kernel_ech", "_img_ech", "_free_pos", "reps")

    def __init__(self, basis, d_in_cols, d_out_cols):
        self.basis = basis
        self.torsion = ()
        kernel = gf2_kernel(d_out_cols)
        # echelon of the kernel itself, tracking kernel-basis coordinates
        self._kernel_ech = GF2Echelon()
        for t, kv in enumerate(kernel):
            self._kernel_ech.add(kv, 1 << t)
        img = GF2Echelon()
        for col in d_in_cols:
            if col:
                v, coords, _ = self._kernel_ech.reduce(col)
                if v:
                    raise InternalMismatch("d_out d_in is not zero")
                img.add(coords)
        self._img_ech = img
        pivots = set(img.pivot_of)
        self._free_pos = [t for t in range(len(kernel)) if t not in pivots]
        self.rank = len(self._free_pos)
        self.reps = [kernel[t] for t in self._free_pos]

    def _coords_of(self, vec: int) -> int:
        v, coords, _ = self._kernel_ech.reduce(vec)
        if v:
            raise ValueError("not a cocycle")
        return coords

    def project(self, chain: dict) -> tuple[list[int], list[int]]:
        coords = self._coords_of(gf2_vector(chain.get(L, 0) for L in self.basis))
        coords, _, _ = self._img_ech.reduce(coords)
        return [coords >> t & 1 for t in self._free_pos], []


def _subcomplex_cohomology(K: SimplicialComplex, jmask: int, coeffs: str) -> GradedHomology:
    """H~*(K_J), the second route: counted when K is a 2-sphere, otherwise
    computed from the full subcomplex."""
    if K.is_two_sphere():
        ranks = sphere_subcomplex_ranks(K, jmask)
        return GradedHomology(coeffs, {d: r for d, r in enumerate(ranks, -1) if r})
    return reduced_cohomology(full_subcomplex(K, _unmask(jmask)), coeffs)


class Component:
    """One multidegree J, level by level: the numbers of every level, and a
    piece for each level that a caller projects onto.

    The numbers of level p are rank H^p = n_p - rk d_p - rk d_{p-1} and the
    torsion of H^p, the invariant factors above 1 of d_{p-1}.  This is exact
    because ker d_p is saturated and contains im d_{p-1}.  Each differential
    d_p: level p -> p+1 is kept as sparse columns and gets one pass, shared
    by the two levels it touches: over Z its +-1 pivots are eliminated and
    only what is left takes a dense Smith pass (``unit_pivot_factors``);
    over Z2 its columns are packed into bit vectors for a GF(2) rank.  Before
    the numbers of level p are used, d_p d_{p-1} = 0 is checked on the
    sparse columns and the numbers are compared with H~^{p-1}(K_J), the
    reduced cohomology of the full subcomplex (Hochster).  On a 2-sphere K
    that cohomology is counted (free, ranks from components, edges and
    triangles); otherwise it is computed from K_J by a dense Smith pass.

    A piece (`_PieceZ`, `_PieceZ2`) holds cocycle representatives and
    coordinates, and is built only by ``piece``.  If its level's numbers are
    known, the piece must agree with them, torsion in divisibility form.
    Otherwise the piece's own numbers are checked against route 2 and become
    the level's, so a piece costs no pass beyond its own two.  The basis,
    the differentials and route 2 are dropped once every level is checked; a
    piece asked for after that works from a fresh basis.  A component holds
    no reference to its MultigradedCohomology, so dropping the cohomology
    frees its components without waiting for the cyclic GC.
    """

    __slots__ = (
        "K", "coeffs", "jmask", "_levels", "_pieces", "_basis", "_mats", "_diffs", "_hochster"
    )

    def __init__(self, K: SimplicialComplex, coeffs: str, jmask: int):
        self.K = K
        self.coeffs = coeffs
        self.jmask = jmask
        self._levels = {}  # level p -> (rank, torsion), checked against route 2
        self._pieces = {}  # level p -> piece, or None when the level has no basis
        self._basis = r_basis(K, jmask)
        self._mats = {}  # p -> differential level p -> level p+1, as columns
        self._diffs = {}  # p -> (rank, invariant factors above 1) of d_p
        self._hochster = None

    def numbers(self, p: int) -> tuple[int, tuple[int, ...]]:
        """(rank, torsion) of level p, computed and checked on first use."""
        got = self._levels.get(p)
        if got is not None:
            return got
        if p not in range(self.jmask.bit_count() + 1):
            return 0, ()
        n = len(self._basis.get(p, ()))
        if n:
            self._check_square(p)
        rank_out, _ = self._diff(p)
        rank_in, torsion = self._diff(p - 1)
        got = (n - rank_out - rank_in, torsion)
        self._settle(p, got)
        self._release()
        return got

    def piece(self, p: int):
        """The piece at level p, built on first use and checked against the
        level's numbers; None when the level has no basis."""
        if p in self._pieces:
            return self._pieces[p]
        if p not in range(self.jmask.bit_count() + 1):
            return None
        if self._basis is None:  # every level is checked: work from a fresh basis
            self._basis, self._mats = r_basis(self.K, self.jmask), {}
        lvl = self._basis.get(p)
        piece = None if lvl is None else self._build(p, lvl)
        got = (piece.rank, _normal(piece.torsion)) if piece else (0, ())
        want = self._levels.get(p)
        if want is None:
            self._settle(p, got)
        elif got != want:
            raise InternalMismatch(
                f"{self._where(p)}: piece gives {got}, the level's numbers are {want}"
            )
        self._pieces[p] = piece  # zero pieces kept: projections still need them
        self._release()
        return piece

    @property
    def pieces(self) -> dict:
        """Every level with a basis -> its piece, building those not built yet."""
        out = {}
        for p in range(self.jmask.bit_count() + 1):
            piece = self.piece(p)
            if piece is not None:
                out[p] = piece
        return out

    def rank(self, p: int) -> int:
        return self.numbers(p)[0]

    def torsion(self, p: int) -> tuple[int, ...]:
        return self.numbers(p)[1]

    def _settle(self, p: int, got) -> None:
        """Check level p's numbers against route 2 and keep them."""
        self._check(p, got)
        self._levels[p] = got

    def _release(self) -> None:
        """Drop the work data once every level is checked."""
        if len(self._levels) > self.jmask.bit_count():
            self._basis = self._mats = self._diffs = self._hochster = None

    def _mat(self, p: int) -> list[dict[int, int]]:
        """d_p as sparse columns, one per level-p face; with an empty level
        on either side d_p is zero and its columns are handed out empty."""
        mat = self._mats.get(p)
        if mat is None:
            if p in self._basis and p + 1 in self._basis:
                mat = _r_matrix(self._basis, self.jmask, p)
            else:
                mat = [{} for _ in self._basis.get(p, ())]
            self._mats[p] = mat
        return mat

    def _diff(self, p: int) -> tuple[int, tuple[int, ...]]:
        """Rank and invariant factors above 1 of d_p: level p -> p+1."""
        got = self._diffs.get(p)
        if got is None:
            if p not in self._basis or p + 1 not in self._basis:
                return 0, ()  # an empty source or target: nothing to build
            cols = self._mat(p)
            if self.coeffs == "Z":
                factors = unit_pivot_factors(cols)
                got = (len(factors), tuple(f for f in factors if f > 1))
            else:
                got = (gf2_rank(_gf2(cols)), ())
            self._diffs[p] = got
        return got

    def _check_square(self, p: int) -> None:
        """d_p d_{p-1} = 0, column by column of d_{p-1}, touching only the
        stored entries of the sparse columns.

        The entries are 0 and +-1 (checked), so an entry of the product is
        at most n_p in size.  With B bits per row, B above the bit length of
        n_p, a column of d_p packs exactly into one integer: the sum of its
        entries shifted by B * row.  d_p sends a column of d_{p-1} to zero
        iff the packed columns at its rows, times its entries there, sum to
        0."""
        if p - 1 not in self._basis or p + 1 not in self._basis:
            return  # an empty level on either side: the product is empty
        d_in, d_out = self._mat(p - 1), self._mat(p)
        entries = itertools.chain.from_iterable(col.values() for col in d_in + d_out)
        if not _UNIT.issuperset(entries):
            raise InternalMismatch(f"{self._where(p)}: an entry other than 0, 1, -1")
        shift = len(d_out).bit_length() + 1
        packed = []
        for col in d_out:
            v = 0
            for r, a in col.items():
                v += a << shift * r
            packed.append(v)
        for col in d_in:
            image = 0
            for r, a in col.items():
                image += a * packed[r]
            if image:
                raise InternalMismatch(f"{self._where(p)}: d_{p} d_{p - 1} is not zero")

    def _where(self, p: int) -> str:
        return f"multidegree {_unmask(self.jmask)} level {p}"

    def _build(self, p: int, lvl: list[int]):
        d_in, d_out = self._mat(p - 1), self._mat(p)
        if self.coeffs == "Z":
            return _PieceZ(lvl, d_in, d_out, len(self._basis.get(p + 1, ())))
        return _PieceZ2(lvl, _gf2(d_in), _gf2(d_out))

    def _check(self, p: int, got) -> None:
        if self._hochster is None:
            self._hochster = _subcomplex_cohomology(self.K, self.jmask, self.coeffs)
        want = (self._hochster.rank(p - 1), self._hochster.torsion_at(p - 1))
        if got != want:
            raise InternalMismatch(f"{self._where(p)}: model gives {got}, subcomplex gives {want}")


def _normal(torsion) -> tuple[int, ...]:
    """Torsion orders above 1 in divisibility form, 1s dropped: (2, 3) gives
    (6,).  One order is its own form."""
    if len(torsion) < 2:
        return tuple(torsion)
    return tuple(f for f in divisibility_form(torsion) if f > 1)


class MultigradedCohomology:
    """Lazy per-multidegree cohomology of Z_K with cocycle representatives.

    The rank and torsion of every level are computed from the R*(K) model
    (route 1) and verified against the shifted reduced simplicial cohomology
    of the full subcomplex (route 2, Hochster) when first needed.  Route 2 is
    counting when K is a 2-sphere and the cohomology of the full subcomplex
    otherwise.  Cocycle coordinates (pieces) are built only where a class is
    projected, and checked against those numbers.  On a 2-sphere, products
    skip every target level that counting shows is zero.
    """

    def __init__(self, K: SimplicialComplex, coeffs: str = "Z"):
        if coeffs not in ("Z", "Z2"):
            raise ValueError("coeffs must be 'Z' or 'Z2'")
        self.K = K
        self.coeffs = coeffs
        self._components: dict[int, Component] = {}
        self._nonzero = None  # non-zero levels, once compute_all has run

    # -- component computation ------------------------------------------------

    def _vertex_mask(self, vertices) -> int:
        """Bitmask of vertices of K (or a mask); ValueError naming a vertex
        outside 1..m."""
        if isinstance(vertices, int):
            mask = vertices
            if mask < 0:
                raise ValueError(f"multidegree mask {mask} is negative")
        else:
            for v in vertices:
                if v < 1:
                    raise ValueError(f"vertex {v} lies below 1; vertices are 1..{self.K.m}")
            mask = _mask(vertices)
        if mask >> self.K.m:
            raise ValueError(f"vertex {mask.bit_length()} lies above m = {self.K.m}")
        return mask

    def component(self, J) -> Component:
        jmask = self._vertex_mask(J)
        comp = self._components.get(jmask)
        if comp is None:
            comp = self._components[jmask] = Component(self.K, self.coeffs, jmask)
        return comp

    def compute_all(self) -> "MultigradedCohomology":
        """Compute and keep the numbers (rank and torsion of every level) of
        each of the 2^m multidegrees, checked as ``Component`` describes, and
        the list of non-zero levels that the global views read.  No piece is
        built: a later projection builds the pieces it needs.

        Two guards raise SizeGuard before the work outgrows its use:

        - `_MAX_VERTICES_FULL` (20) bounds m.  Every multidegree is visited
          and checked, so the cost doubles with each vertex: the
          dodecahedron (m = 12, 4,096 multidegrees) takes about 0.22 s
          over Z on a shared 2-vCPU machine with Python 3.11, and m = 20
          would take some 256 times as long.
        - `_MAX_TOTAL_DIM` (20,000) bounds the summed rank and torsion count,
          because the ring-wide callers (``basis_classes``,
          ``decomposability_report``, ``annihilator_dim``) build a piece
          and products for every class; the dodecahedron has 1,872.

        Work on single multidegrees (`component`, products,
        `h3_square_trivial`) visits few of them and is not guarded.
        """
        if self._nonzero is not None:
            return self
        m = self.K.m
        if m > _MAX_VERTICES_FULL:
            raise SizeGuard(f"full cohomology over {m} vertices exceeds the guard")
        total, nonzero = 0, []
        for jmask in range(1 << m):
            comp = self.component(jmask)
            for p in range(jmask.bit_count() + 1):
                rank, torsion = comp.numbers(p)
                if rank or torsion:
                    nonzero.append((jmask, p, rank, torsion))
                    total += rank + len(torsion)
            if total > _MAX_TOTAL_DIM:
                raise SizeGuard("total cohomology dimension exceeds the guard")
        self._nonzero = nonzero
        return self

    # -- global views ----------------------------------------------------------

    def _nonzero_levels(self) -> list:
        """(jmask, p, rank, torsion) for every level with a class, as kept by
        ``compute_all``: multidegrees ascending, and levels ascending within
        each."""
        return self.compute_all()._nonzero

    def betti(self) -> dict[int, int]:
        out = {}
        for jmask, p, rank, _ in self._nonzero_levels():
            if rank:
                ell = jmask.bit_count() + p
                out[ell] = out.get(ell, 0) + rank
        return dict(sorted(out.items()))

    def total_dim(self) -> int:
        """Total free rank (= dimension over the field for Z2, over Q for Z)."""
        return sum(rank for _, _, rank, _ in self._nonzero_levels())

    def basis_classes(self):
        """Iterate (jmask, p, index) over the free basis, deterministic order."""
        for jmask, p, rank, _ in self._nonzero_levels():
            for i in range(rank):
                yield (jmask, p, i)

    def torsion_summary(self) -> dict[int, list[int]]:
        out = {}
        for jmask, p, _, torsion in self._nonzero_levels():
            if torsion:
                out.setdefault(jmask.bit_count() + p, []).extend(torsion)
        return out

    # -- classes ---------------------------------------------------------------

    def class_element(self, J, p: int, index: int = 0) -> "RingElement":
        comp = self.component(J)
        if comp.rank(p) <= index:
            raise IndexError("no such basis class")
        return RingElement(self, {(comp.jmask, p, index): 1})

    def unit(self) -> "RingElement":
        return self.class_element(0, 0, 0)

    def from_chain(self, J, chain) -> "RingElement":
        """Class of a cocycle; chain maps face tuples (or masks) to coeffs.

        Raises ValueError for a face outside J or not of K, a chain that is
        not a cocycle, or one that represents a torsion class."""
        jmask = self._vertex_mask(J)
        norm = {}
        for key, c in chain.items():
            L = self._vertex_mask(key)
            if L & ~jmask:
                raise ValueError(f"{_unmask(L)} lies outside multidegree {_unmask(jmask)}")
            if not self.K.has_face(L):
                raise ValueError(f"{_unmask(L)} is not a face")
            norm[L] = norm.get(L, 0) + c
        p = None
        for L in norm:
            lp = L.bit_count()
            if p is None:
                p = lp
            elif p != lp:
                raise ValueError("chain mixes levels")
        piece = self.component(jmask).piece(p)
        if piece is None:
            raise ValueError("no such component level")
        free, tors = piece.project(norm)
        if any(tors):
            raise ValueError("chain represents a torsion class; not a basis combination")
        terms = {(jmask, p, i): c for i, c in enumerate(free) if c}
        return RingElement(self, terms)

    def h3_class(self, i: int, j: int) -> "RingElement":
        if i == j:
            raise ValueError(f"u{i}v{j} needs two distinct vertices")
        jmask = self._vertex_mask((i, j))
        if self.K.has_face(jmask):
            raise ValueError(f"facets {i},{j} are adjacent; u{i}v{j} is not a cocycle")
        return self.from_chain(jmask, {1 << (j - 1): 1})


class RingElement:
    """Element of H*(Z_K) in the chosen cohomology basis."""

    __slots__ = ("cohom", "_terms", "_chains")

    def __init__(self, cohom: MultigradedCohomology, terms):
        if cohom.coeffs == "Z2":
            terms = {k: c % 2 for k, c in terms.items()}
        self.cohom = cohom
        self._terms = MappingProxyType({k: c for k, c in terms.items() if c})
        self._chains = None

    @property
    def terms(self):
        """Read-only mapping (jmask, level, index) -> nonzero coefficient."""
        return self._terms

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {jm.bit_count() + p for (jm, p, _) in self.terms}

    def __add__(self, other):
        _same_cohomology(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return RingElement(self.cohom, out)

    def __neg__(self):
        return RingElement(self.cohom, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        return RingElement(self.cohom, {k: scalar * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.cohom is other.cohom
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def chains(self) -> dict[tuple[int, int], dict[int, int]]:
        """Representative cocycles, one chain per (multidegree, level).

        Computed once and cached: the same dict is returned on every call,
        so callers must not modify it."""
        if self._chains is not None:
            return self._chains
        out = {}
        for (jm, p, i), c in self.terms.items():
            piece = self.cohom.component(jm).piece(p)
            chain = out.setdefault((jm, p), {})
            rep = piece.reps[i]
            if self.cohom.coeffs == "Z":
                for pos, a in enumerate(rep):
                    if a:
                        L = piece.basis[pos]
                        chain[L] = chain.get(L, 0) + c * a
            else:
                for pos in _bits(rep):
                    L = piece.basis[pos]
                    chain[L] = (chain.get(L, 0) + c) % 2
        self._chains = out
        return out

    def monomials(self) -> list[tuple[int, KoszulMonomial]]:
        out = []
        for (jm, p), chain in self.chains().items():
            for L, c in sorted(chain.items()):
                if c:
                    out.append(
                        (c, KoszulMonomial(J=_unmask(jm & ~L), I=_unmask(L)))
                    )
        return out


def _same_cohomology(a: RingElement, b: RingElement) -> None:
    if a.cohom is not b.cohom:
        raise ValueError("elements live over different cohomologies")


def _zero_by_counting(K: SimplicialComplex, jmask: int, p: int) -> bool:
    """True when K is a 2-sphere and level p of multidegree J is zero, that
    is H~^{p-1}(K_J) = 0 by counting."""
    return K.is_two_sphere() and (p > 3 or not sphere_subcomplex_ranks(K, jmask)[p])


def cup_product(a: RingElement, b: RingElement) -> RingElement:
    """Product in H*(Z_K): monomial-wise in R*(K), then re-expressed in the
    cohomology basis; components with overlapping multidegrees vanish.

    On a 2-sphere K a target level whose counted rank is zero holds no class
    (Hochster), so it is dropped before its piece is built."""
    _same_cohomology(a, b)
    cohom = a.cohom
    K = cohom.K
    target_chains: dict[tuple[int, int], dict[int, int] | None] = {}
    for (jm1, p1), ch1 in a.chains().items():
        for (jm2, p2), ch2 in b.chains().items():
            if jm1 & jm2:
                continue
            key = (jm1 | jm2, p1 + p2)
            if key not in target_chains:
                target_chains[key] = None if _zero_by_counting(K, *key) else {}
            target = target_chains[key]
            if target is None:
                continue
            for L1, c1 in ch1.items():
                e1 = jm1 & ~L1
                for L2, c2 in ch2.items():
                    I = L1 | L2
                    if not K.has_face(I):
                        continue
                    e2 = jm2 & ~L2
                    s = _merge_sign(e1, e2)
                    # moving v_{L1} past u_{e2}: v's are even, no sign
                    target[I] = target.get(I, 0) + s * c1 * c2
    terms = {}
    for (jm, p), chain in target_chains.items():
        chain = {L: c for L, c in chain.items() if c} if chain else None
        if not chain:
            continue
        piece = cohom.component(jm).piece(p)
        if piece is None or (piece.rank == 0 and not piece.torsion):
            continue
        free, tors = piece.project(chain)
        if any(tors):
            raise InternalMismatch("product landed on a torsion class; unsupported basis")
        for i, c in enumerate(free):
            if c:
                terms[(jm, p, i)] = terms.get((jm, p, i), 0) + c
    return RingElement(cohom, terms)


def betti_numbers(K: SimplicialComplex, coeffs: str = "Z") -> dict[int, int]:
    return MultigradedCohomology(K, coeffs).betti()


def cohomology(K: SimplicialComplex, coeffs: str = "Z") -> MultigradedCohomology:
    """Full multigraded cohomology of Z_K (guarded; see MultigradedCohomology)."""
    return MultigradedCohomology(K, coeffs).compute_all()


def h3_basis(K: SimplicialComplex) -> list[tuple[int, int]]:
    """Pairs {i,j} not in K; the classes [u_i v_j] freely generate H^3(Z_K)."""
    adj = K.adjacency()
    out = []
    for i in range(1, K.m + 1):
        for j in range(i + 1, K.m + 1):
            if not adj[i] >> (j - 1) & 1:
                out.append((i, j))
    return out


def h3_square_trivial(P: SimplePolytope) -> bool:
    """True iff every product of two H^3 classes vanishes; by the 4-belt
    criterion this happens exactly when P has no 4-belt."""
    K = dual_complex(P)
    cohom = MultigradedCohomology(K, "Z")
    pairs = h3_basis(K)
    classes = {pr: cohom.h3_class(*pr) for pr in pairs}
    for pr1, pr2 in itertools.combinations(pairs, 2):
        if set(pr1) & set(pr2):
            continue  # overlapping multidegrees multiply to zero
        if not cup_product(classes[pr1], classes[pr2]).is_zero():
            return False
    return True


def _rank(columns, coeffs: str) -> int:
    """Rank of the matrix with these columns, each a mapping row -> integer
    entry (as ``RingElement.terms``): over Q when coeffs is "Z", over GF(2)
    when it is "Z2".

    Columns linked through shared rows form a block, and two blocks share no
    row, so the rank is the sum of the block ranks, each block ranked on its
    own rows."""
    parent = {}

    def find(r):
        parent.setdefault(r, r)
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    columns = [col for col in columns if col]
    for col in columns:
        rows = iter(col)
        root = find(next(rows))
        for r in rows:
            parent[find(r)] = root
    blocks = {}
    for col in columns:
        blocks.setdefault(find(next(iter(col))), []).append(col)
    total = 0
    for block in blocks.values():
        index = {}
        for col in block:
            for r in col:
                index.setdefault(r, len(index))
        # the block's columns, taken as rows: a transpose has the same rank
        vecs = []
        for col in block:
            vec = [0] * len(index)
            for r, c in col.items():
                vec[index[r]] = c
            vecs.append(vec)
        total += rank_z(vecs) if coeffs == "Z" else gf2_rank([gf2_vector(v) for v in vecs])
    return total


def decomposability_report(
    cohom: MultigradedCohomology, degrees=None, levels=None
) -> dict[int, int]:
    """For each total degree, the dimension of the cokernel of the product
    map from lower degrees.  Ranks are taken over Q when ``cohom.coeffs`` is
    "Z" and over GF(2) when it is "Z2"; every component of ``cohom`` is
    built (``compute_all``).

    degrees: optional iterable restricting the reported total degrees.
    levels: optional iterable of component levels p (p-1 = reduced degree of
    the full subcomplex); levels (2, 3) restrict the report to the H~1 and
    top parts, which is where full decomposability is expected for flag
    polytopes.
    """
    wanted = set(degrees) if degrees is not None else None
    level_set = set(levels) if levels is not None else None
    report: dict[int, int] = {}
    components = cohom._components  # every multidegree, once the walk has begun
    for jmask, p, rank, _ in cohom._nonzero_levels():
        if jmask == 0 or rank == 0:
            continue
        if level_set is not None and p not in level_set:
            continue
        ell = jmask.bit_count() + p
        if wanted is not None and ell not in wanted:
            continue
        # products of classes of (sub, p1) and (J \ sub, p - p1), both of
        # positive degree, land in (J, p) alone
        columns = []
        anchor = jmask & -jmask
        for sub in _submasks(jmask):
            if sub == 0 or sub == jmask or not sub & anchor:
                continue
            rest = jmask & ~sub
            for p1 in range(sub.bit_count() + 1):
                rank1, rank2 = components[sub].rank(p1), components[rest].rank(p - p1)
                if not (rank1 and rank2):
                    continue
                for i1 in range(rank1):
                    e1 = RingElement(cohom, {(sub, p1, i1): 1})
                    for i2 in range(rank2):
                        e2 = RingElement(cohom, {(rest, p - p1, i2): 1})
                        columns.append(cup_product(e1, e2).terms)
        coker = rank - _rank(columns, cohom.coeffs)
        if coker:
            report[ell] = report.get(ell, 0) + coker
    if wanted is not None:
        for ell in wanted:
            report.setdefault(ell, 0)
    return dict(sorted(report.items()))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def annihilator_dim(x: RingElement) -> int:
    """Dimension of {y : x*y = 0} in the total cohomology of x's ring
    ``x.cohom``: over Q when its coeffs are "Z", over GF(2) when they are
    "Z2".  Every component of that ring is built (``compute_all``).

    Multiplication by x maps the component of J into the components J | D
    for the multidegrees D of the terms of x, so ``_rank`` splits its
    matrix into small blocks.
    """
    cohom = x.cohom
    total = cohom.total_dim()
    if x.is_zero():
        return total
    columns = (
        cup_product(x, RingElement(cohom, {key: 1})).terms for key in cohom.basis_classes()
    )
    return total - _rank(columns, cohom.coeffs)
