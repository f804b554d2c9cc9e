"""Abstract simplicial complexes on {1..m}: full subcomplexes, flagness,
exact reduced simplicial cohomology, and chordless cycle enumeration.

For a simplicial 2-sphere K the reduced cohomology of every full subcomplex
K_J is free and is counted from components, edges and triangles inside J
(``sphere_subcomplex_ranks``), with no linear algebra.

Faces are stored via their maximal members; each face is internally a bitmask
(bit i-1 = vertex i).  All one-element subsets and the empty set are always
faces, including vertices that appear in no listed maximal face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ._intlinalg import gf2_rank, gf2_vector, invariant_factors


def _mask(vertices) -> int:
    """Bitmask of a vertex collection (bit i-1 = vertex i); an int is taken
    to be a mask already."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _bits(mask: int):
    """Positions of the set bits of mask, ascending (vertex = position + 1)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unmask(mask: int) -> tuple[int, ...]:
    """Vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class SimplicialComplex:
    """Immutable simplicial complex given by maximal faces."""

    __slots__ = (
        "m", "_maximal", "vertex_labels", "_faces_by_size", "_face_set", "_adj",
        "_low_triangles", "_sphere",
    )

    def __init__(self, m: int, maximal_faces, vertex_labels=None):
        masks = set()
        full = (1 << m) - 1
        for f in maximal_faces:
            fm = _mask(f)
            if fm & ~full:
                raise ValueError(f"vertex index out of range 1..{m}: {_unmask(fm & ~full)}")
            masks.add(fm)
        # singletons are always present
        covered = 0
        for fm in masks:
            covered |= fm
        for v in range(m):
            if not covered >> v & 1:
                masks.add(1 << v)
        masks.discard(0)
        # drop non-maximal entries
        maximal = [f for f in masks if not any(f != g and f & ~g == 0 for g in masks)]
        self.m = m
        self._maximal = tuple(sorted(maximal))
        self.vertex_labels = vertex_labels  # set by full_subcomplex
        self._faces_by_size = None
        self._face_set = None
        self._adj = None
        self._low_triangles = None
        self._sphere = None

    # -- basic queries ------------------------------------------------------

    def maximal_faces(self) -> list[tuple[int, ...]]:
        return [_unmask(f) for f in self._maximal]

    def has_face(self, vertices) -> bool:
        if self._face_set is None:
            self.faces_by_size()
        return _mask(vertices) in self._face_set

    def faces_by_size(self) -> dict[int, list[int]]:
        """All faces as bitmasks, keyed by cardinality; includes {} at key 0."""
        if self._faces_by_size is None:
            seen = {0}
            for fm in self._maximal:
                sub = fm
                while sub:  # every non-empty subset of fm
                    seen.add(sub)
                    sub = (sub - 1) & fm
            by_size = {}
            for f in seen:
                by_size.setdefault(f.bit_count(), []).append(f)
            for k in by_size:
                by_size[k].sort()
            self._faces_by_size = by_size
            self._face_set = seen  # the same faces, for has_face
        return self._faces_by_size

    def faces(self) -> list[tuple[int, ...]]:
        out = []
        by_size = self.faces_by_size()
        for k in sorted(by_size):
            out.extend(_unmask(f) for f in by_size[k])
        return out

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, f_1, ...): counts of faces of each dimension, empty face excluded."""
        by_size = self.faces_by_size()
        top = max(by_size)
        return tuple(len(by_size.get(k, [])) for k in range(1, top + 1))

    @property
    def dim(self) -> int:
        return max(self.faces_by_size()) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** (k - 1) * len(fs) for k, fs in self.faces_by_size().items() if k)

    def adjacency(self) -> list[int]:
        """Neighbor bitmask for each vertex (index 0 unused)."""
        if self._adj is None:
            adj = [0] * (self.m + 1)
            for e in self.faces_by_size().get(2, []):
                i, j = _unmask(e)
                adj[i] |= 1 << (j - 1)
                adj[j] |= 1 << (i - 1)
            self._adj = adj
        return self._adj

    def is_two_sphere(self) -> bool:
        """True iff K is a simplicial 2-sphere: pure of dimension 2 and, by
        Steinitz, the dual triangulation of a simple 3-polytope, which
        ``polytope.from_triangles`` accepts.  Decided once and cached."""
        if self._sphere is None:
            self._sphere = self._decide_two_sphere()
        return self._sphere

    def _decide_two_sphere(self) -> bool:
        from .polytope import PolytopeError, from_triangles  # polytope imports this module

        if any(f.bit_count() != 3 for f in self._maximal):
            return False
        try:
            from_triangles(self.m, map(_unmask, self._maximal))
        except PolytopeError:
            return False
        return True

    def _triangles_by_lowest_vertex(self) -> list[tuple[int, ...]]:
        """Triangle masks grouped by their smallest vertex (index 0 unused)."""
        if self._low_triangles is None:
            low = [[] for _ in range(self.m + 1)]
            for t in self.faces_by_size().get(3, []):
                low[(t & -t).bit_length()].append(t)
            self._low_triangles = [tuple(ts) for ts in low]
        return self._low_triangles

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.m == other.m
            and self._maximal == other._maximal
        )

    def __hash__(self):
        return hash((self.m, self._maximal))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, maximal={self.maximal_faces()})"

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"m={self.m}"]
        for f in self.maximal_faces():
            lines.append(" ".join(str(v) for v in f))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        lines = _numbered_lines(text)
        m = _read_m(lines, "complex")
        faces = [_ints(line, line[1]) for line in lines[1:]]
        return cls(m, faces)


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of text, stripped, with their 1-based line numbers."""
    return [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _read_m(lines: list[tuple[int, str]], kind: str) -> int:
    """m from the first line, which must read 'm=<int>'."""
    if not lines or not lines[0][1].startswith("m="):
        raise ValueError(f"{kind} file must start with 'm=<int>'")
    head = _ints(lines[0], lines[0][1][2:])
    if len(head) != 1:
        raise ValueError(f"line {lines[0][0]}: expected 'm=<int>', got {lines[0][1]!r}")
    return head[0]


def _ints(line: tuple[int, str], part: str) -> tuple[int, ...]:
    """The integers of part, a piece of the numbered line; a token that is not
    an integer raises ValueError naming the line."""
    try:
        return tuple(int(tok) for tok in part.split())
    except ValueError:
        raise ValueError(f"line {line[0]}: expected integers, got {line[1]!r}") from None


def new_complex(m: int, maximal_faces) -> SimplicialComplex:
    """Build a complex on {1..m} from its maximal faces (downward closure implied)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return SimplicialComplex(m, maximal_faces)


def full_subcomplex(K: SimplicialComplex, J) -> SimplicialComplex:
    """K_J = {I in K : I subset of J}, re-indexed to 1..|J| order-preservingly.

    The order-preserving map is recorded on the result as vertex_labels
    (new index i corresponds to original vertex vertex_labels[i-1]).
    """
    Jt = tuple(sorted(set(J)))
    if any(v < 1 or v > K.m for v in Jt):
        raise ValueError("J must be a subset of the vertex set")
    Jm = _mask(Jt)
    newindex = {v: i + 1 for i, v in enumerate(Jt)}
    inters = {fm & Jm for fm in K._maximal}
    inters.discard(0)
    sub_max = {_mask(newindex[v] for v in _unmask(inter)) for inter in inters}
    return SimplicialComplex(len(Jt), sub_max, vertex_labels=Jt)


def missing_faces(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """All inclusion-minimal non-faces."""
    out = []
    by_size = K.faces_by_size()
    top = max(by_size)
    # size-2 candidates: non-edges
    edges = set(by_size.get(2, []))
    for i, j in itertools.combinations(range(1, K.m + 1), 2):
        if _mask((i, j)) not in edges:
            out.append((i, j))
    # size >= 3: all proper subsets must be faces, so grow from (k-1)-faces
    for k in range(3, top + 2):
        smaller = set(by_size.get(k - 1, []))
        faces_k = set(by_size.get(k, []))
        candidates = set()
        for fm in smaller:
            verts = _unmask(fm)
            lo = verts[-1]
            for v in range(lo + 1, K.m + 1):
                candidates.add(fm | 1 << (v - 1))
        for cand in sorted(candidates):
            if cand in faces_k:
                continue
            verts = _unmask(cand)
            if all(_mask(s) in smaller for s in itertools.combinations(verts, k - 1)):
                out.append(verts)
    out.sort(key=lambda t: (len(t), t))
    return out


def is_flag(K: SimplicialComplex) -> bool:
    """True iff every missing face has exactly two vertices."""
    return all(len(f) == 2 for f in missing_faces(K))


# ---------------------------------------------------------------------------
# Reduced simplicial cohomology


@dataclass(frozen=True)
class GradedHomology:
    """Ranks and torsion of reduced cohomology, degree -1 .. dim."""

    coeffs: str  # "Z" or "Z2"
    ranks: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def torsion_at(self, d: int) -> tuple[int, ...]:
        return tuple(self.torsion.get(d, ()))

    def nonzero_degrees(self) -> list[int]:
        return sorted(
            set(d for d, r in self.ranks.items() if r)
            | set(d for d, t in self.torsion.items() if t)
        )


def _coboundary_matrix(faces_lo: list[int], faces_hi: list[int]) -> list[list[int]]:
    """Matrix of the augmented simplicial coboundary, rows = higher faces.

    Signs come from the position of the omitted vertex in increasing order.
    """
    index = {f: i for i, f in enumerate(faces_lo)}
    rows = []
    for f in faces_hi:
        row = [0] * len(faces_lo)
        verts = _unmask(f)
        for pos, v in enumerate(verts):
            sub = f & ~(1 << (v - 1))
            j = index.get(sub)
            if j is not None:
                row[j] += (-1) ** pos
        rows.append(row)
    return rows


def reduced_cohomology(K: SimplicialComplex, coeffs: str = "Z") -> GradedHomology:
    """Exact reduced cohomology of the augmented cochain complex of K."""
    if coeffs not in ("Z", "Z2"):
        raise ValueError("coeffs must be 'Z' or 'Z2'")
    by_size = K.faces_by_size()
    top = max(by_size)
    # chain groups: degree d has basis faces of size d+1, with degree -1 = {empty}
    bases = {d: by_size.get(d + 1, []) for d in range(-1, top)}
    bases[-1] = [0]
    mats = {}
    for d in range(-1, top - 1):
        mats[d] = _coboundary_matrix(bases[d], bases[d + 1])
    ranks, torsion = {}, {}
    rk = {}
    for d, A in mats.items():
        if not A or not A[0]:
            rk[d] = 0
        elif coeffs == "Z":
            # one Smith pass gives both the rank and the torsion of H^(d+1)
            factors = invariant_factors(A)
            rk[d] = len(factors)
            tors = tuple(f for f in factors if f > 1)
            if tors:
                torsion[d + 1] = tors
        else:
            rk[d] = gf2_rank([gf2_vector(row) for row in A])
    for d in range(-1, top):
        dim_c = len(bases[d])
        r = dim_c - rk.get(d, 0) - rk.get(d - 1, 0)
        if r:
            ranks[d] = r
    return GradedHomology(coeffs=coeffs, ranks=ranks, torsion=torsion)


def sphere_subcomplex_ranks(K: SimplicialComplex, J) -> tuple[int, int, int, int]:
    """Ranks of H~^d(K_J) for d = -1, 0, 1, 2 when K is a 2-sphere, by counting.

    With C components, E edges and T triangles inside J: h~^-1 = [J empty],
    h~^0 = C - 1, h~^2 = [J = all], and h~^1 = C - |J| + E - T + [J = all]
    from the reduced Euler characteristic.  Full subcomplexes of a 2-sphere
    have free cohomology, so these ranks hold over Z and Z2 with no torsion.
    """
    jmask = _mask(J)
    if not jmask:
        return (1, 0, 0, 0)
    adj = K.adjacency()
    low = K._triangles_by_lowest_vertex()
    comps = edges2 = tris = 0
    rest = jmask
    while rest:
        comps += 1
        front = seen = rest & -rest
        while front:
            bit = front & -front
            front ^= bit
            v = bit.bit_length()
            inside = adj[v] & jmask
            edges2 += inside.bit_count()
            for t in low[v]:
                if t & jmask == t:
                    tris += 1
            new = inside & ~seen
            seen |= new
            front |= new
        rest &= ~seen
    whole = int(jmask == (1 << K.m) - 1)
    h1 = comps - jmask.bit_count() + edges2 // 2 - tris + whole
    return (0, comps - 1, h1, whole)


# ---------------------------------------------------------------------------
# Chordless cycles


def chordless_cycles(K: SimplicialComplex, through=None, avoid=None, max_len=None):
    """Yield induced cycles of length >= 4 of the 1-skeleton, each exactly once
    up to rotation and reflection.

    through: optional pair of vertices every cycle must contain (the first is
    used as the anchor); avoid: vertices excluded entirely; max_len: upper
    bound on cycle length.
    """
    adj = K.adjacency()
    avoid_mask = _mask(avoid) if avoid else 0
    if through is not None:
        s, t = through
        anchors = [s]
        need = 1 << (t - 1)
        if (1 << (s - 1)) & avoid_mask or need & avoid_mask:
            return
    else:
        anchors = range(1, K.m + 1)
        need = 0

    for v0 in anchors:
        b0 = 1 << (v0 - 1)
        if b0 & avoid_mask:
            continue
        # outside `through` mode only cycles whose minimum is v0 are emitted
        lowbar = 0 if through is not None else b0 - 1
        stack = []
        for v1 in _unmask(adj[v0] & ~avoid_mask & ~lowbar):
            if v1 == v0:
                continue
            stack.append([v0, v1])
        out = []
        while stack:
            path = stack.pop()
            last = path[-1]
            used = _mask(path)
            inner = used & ~b0 & ~(1 << (last - 1))
            for w in _unmask(adj[last] & ~avoid_mask & ~used & ~lowbar):
                wb = 1 << (w - 1)
                if adj[w] & inner:
                    continue
                if adj[w] & b0:
                    if len(path) >= 3 and path[1] < w:
                        cyc = tuple(path) + (w,)
                        if not need or need & (_mask(cyc)):
                            out.append(cyc)
                else:
                    if max_len is None or len(path) + 1 < max_len:
                        stack.append(path + [w])
        out.sort(key=lambda c: (len(c), c))
        yield from out
