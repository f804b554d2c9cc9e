"""Combinatorial simple 3-polytopes as facet rotation systems.

A polytope is stored by the cyclic sequence of neighbors of every facet.
Validity is the combinatorial Steinitz criterion (facets bounded by simple
edge cycles, any two facets meeting in at most one edge, dual complex a
simplicial 2-sphere); no coordinates anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complex import SimplicialComplex, _ints, _mask, _numbered_lines, _read_m
from .errors import InvariantViolation


class PolytopeError(ValueError):
    """Rejection of a rotation system, naming the violated condition."""

    condition = "invalid"


class NonSimple(PolytopeError):
    condition = "non-simple"


class NotSphere(PolytopeError):
    condition = "not-a-sphere"


class BadIntersection(PolytopeError):
    condition = "bad-intersection"


class SimplePolytope:
    """Validated combinatorial simple 3-polytope; immutable after construction."""

    n = 3

    __slots__ = ("m", "rotations", "vertex_tuples", "_oriented", "_adj", "_canon")

    def __init__(self, rotations, _validated=False):
        if not _validated:
            raise TypeError("use from_rotation_system()")
        self.m = len(rotations)
        self.rotations = rotations  # tuple of tuples, 1-based, coherently oriented
        self._adj = None
        self._canon = None
        verts = set()
        oriented = {}
        for i in range(1, self.m + 1):
            rot = rotations[i - 1]
            k = len(rot)
            for p in range(k):
                j, l = rot[p], rot[(p + 1) % k]
                tri = frozenset((i, j, l))
                verts.add(tuple(sorted(tri)))
                if i < j and i < l:
                    oriented[tri] = (i, j, l)
        self.vertex_tuples = tuple(sorted(verts))
        self._oriented = oriented  # frozenset -> cyclic tuple, min-first

    # -- queries -------------------------------------------------------------

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.rotations[i - 1]

    def facet_size(self, i: int) -> int:
        return len(self.rotations[i - 1])

    def adjacency(self) -> list[int]:
        if self._adj is None:
            self._adj = [0] + [_mask(rot) for rot in self.rotations]
        return self._adj

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency()[i] >> (j - 1) & 1)

    def f_vector(self) -> tuple[int, int, int]:
        f1 = sum(len(r) for r in self.rotations) // 2
        return (len(self.vertex_tuples), f1, self.m)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(1, self.m + 1):
            for j in self.rotations[i - 1]:
                if i < j:
                    out.append((i, j))
        out.sort()
        return out

    def oriented_vertex(self, triple) -> tuple[int, int, int]:
        """The vertex as a cyclic tuple in positive boundary orientation."""
        return self._oriented[frozenset(triple)]

    def __eq__(self, other):
        return isinstance(other, SimplePolytope) and self.rotations == other.rotations

    def __hash__(self):
        return hash(self.rotations)

    def __repr__(self):
        return f"SimplePolytope(m={self.m}, f={self.f_vector()})"

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"m={self.m}"]
        for i in range(1, self.m + 1):
            lines.append(f"{i}: " + " ".join(str(j) for j in self.rotations[i - 1]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplePolytope":
        lines = _numbered_lines(text)
        m = _read_m(lines, "polytope")
        rot = {}
        for line in lines[1:]:
            head, _, tail = line[1].partition(":")
            facet = _ints(line, head)
            if len(facet) != 1:
                raise ValueError(
                    f"line {line[0]}: expected '<facet>: <neighbours>', got {line[1]!r}"
                )
            rot[facet[0]] = _ints(line, tail)
        if sorted(rot) != list(range(1, m + 1)):
            raise ValueError("facet lines must cover 1..m exactly")
        return from_rotation_system([rot[i] for i in range(1, m + 1)])

    # -- relabeling / isomorphism ---------------------------------------------

    def relabel(self, perm) -> "SimplePolytope":
        """Apply facet bijection old->new (dict or sequence with perm[old-1])."""
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        new_rot = [None] * self.m
        for i in range(1, self.m + 1):
            new_rot[perm[i] - 1] = tuple(perm[j] for j in self.rotations[i - 1])
        return from_rotation_system(new_rot)

    def _code_from(self, a: int, b: int, direction: int):
        rot = self.rotations
        label = {a: 1, b: 2}
        order = [a, b]
        parent = {a: b, b: a}
        code = []
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            r = rot[v - 1] if direction == 1 else tuple(reversed(rot[v - 1]))
            k = r.index(parent[v])
            seq = r[k:] + r[:k]
            for w in seq:
                if w not in label:
                    label[w] = len(order) + 1
                    order.append(w)
                    parent[w] = v
            code.append(tuple(label[w] for w in seq))
        return tuple(code), label

    def canonical_code(self) -> bytes:
        """Canonical form of the oriented map, reflections included."""
        if self._canon is None:
            best = None
            for a in range(1, self.m + 1):
                for b in self.rotations[a - 1]:
                    for direction in (1, -1):
                        code, _ = self._code_from(a, b, direction)
                        if best is None or code < best:
                            best = code
            flat = [self.m]
            for seq in best:
                flat.append(len(seq))
                flat.extend(seq)
            self._canon = bytes(b for x in flat for b in x.to_bytes(2, "big"))
        return self._canon

    def isomorphisms_to(self, other: "SimplePolytope"):
        """Yield every facet bijection self->other preserving the rotation
        structure up to global reflection, as a dict."""
        if not isinstance(other, SimplePolytope) or self.m != other.m:
            return
        if self.f_vector() != other.f_vector():
            return
        a0 = 1
        b0 = self.rotations[0][0]
        code0, label0 = self._code_from(a0, b0, 1)
        inv0 = {lab: v for v, lab in label0.items()}
        for a in range(1, other.m + 1):
            for b in other.rotations[a - 1]:
                for direction in (1, -1):
                    code, label = other._code_from(a, b, direction)
                    if code == code0:
                        inv = {lab: v for v, lab in label.items()}
                        yield {inv0[t]: inv[t] for t in inv0}


def from_rotation_system(rotations) -> SimplePolytope:
    """Validate a facet rotation system and build the polytope.

    rotations: sequence (or dict keyed 1..m) of cyclic neighbor sequences.
    Raises NonSimple / NotSphere / BadIntersection naming the violated
    Steinitz condition.
    """
    if isinstance(rotations, dict):
        m = len(rotations)
        if sorted(rotations) != list(range(1, m + 1)):
            raise ValueError("facet keys must be 1..m")
        rot = [list(rotations[i]) for i in range(1, m + 1)]
    else:
        rot = [list(r) for r in rotations]
        m = len(rot)
    if m < 4:
        raise NotSphere("a simple 3-polytope has at least 4 facets")
    for i in range(1, m + 1):
        r = rot[i - 1]
        if len(r) < 3:
            raise BadIntersection(f"facet {i} has fewer than 3 edges")
        for j in r:
            if not 1 <= j <= m:
                raise ValueError(f"facet index out of range: {j}")
            if j == i:
                raise BadIntersection(f"facet {i} adjacent to itself")
        if len(set(r)) != len(r):
            dup = next(j for j in r if r.count(j) > 1)
            raise BadIntersection(f"facets {i} and {dup} share two edges")
    for i in range(1, m + 1):
        for j in rot[i - 1]:
            if i not in rot[j - 1]:
                raise BadIntersection(f"adjacency of facets {i} and {j} is one-sided")
    # vertex triples: every consecutive pair must close up into a triple seen
    # exactly once from each of its three facets
    triples = {}
    for i in range(1, m + 1):
        r = rot[i - 1]
        k = len(r)
        for p in range(k):
            tri = frozenset((i, r[p], r[(p + 1) % k]))
            triples[tri] = triples.get(tri, 0) + 1
    for tri, cnt in triples.items():
        if cnt != 3:
            raise NonSimple(f"facets {tuple(sorted(tri))} do not close up into a vertex")
    f0, f1, f2 = len(triples), sum(len(r) for r in rot) // 2, m
    if 3 * f0 != 2 * f1:
        raise NonSimple("not every vertex lies in exactly 3 facets")
    # connectivity of the facet adjacency graph
    seen = {1}
    queue = [1]
    while queue:
        i = queue.pop()
        for j in rot[i - 1]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if len(seen) != m:
        raise NotSphere("facet adjacency graph is disconnected")
    if f0 - f1 + f2 != 2:
        raise NotSphere(f"Euler characteristic is {f0 - f1 + f2}, not 2")
    _orient(rot)
    return SimplePolytope(tuple(tuple(r) for r in rot), _validated=True)


def _orient(rot) -> None:
    """Flip rotation directions in place so all facets are coherently oriented.

    Along a shared edge the two facets must traverse it oppositely: if b
    follows j in facet i's rotation, then in facet j's rotation the
    predecessor of i must be b.
    """
    m = len(rot)
    seen = {1}
    queue = [1]
    while queue:
        i = queue.pop()
        r = rot[i - 1]
        k = len(r)
        for p in range(k):
            j = r[p]
            a, b = r[(p - 1) % k], r[(p + 1) % k]
            rj = rot[j - 1]
            q = rj.index(i)
            pred, succ = rj[(q - 1) % len(rj)], rj[(q + 1) % len(rj)]
            if j not in seen:
                if pred == b and succ == a:
                    pass
                elif pred == a and succ == b:
                    rot[j - 1] = rj[::-1]
                else:
                    raise NotSphere(f"incoherent link around facets {i},{j}")
                seen.add(j)
                queue.append(j)
            else:
                if not (pred == b and succ == a):
                    raise NotSphere("rotation system is not orientable")


def dual_complex(P: SimplePolytope) -> SimplicialComplex:
    """K_P: the simplicial 2-sphere on the facet set, triangles = vertices."""
    return SimplicialComplex(P.m, P.vertex_tuples)


@dataclass(frozen=True)
class PkVector:
    """Facet-size statistics with the Euler-derived consistency identities."""

    p: dict
    f_vector: tuple[int, int, int]

    def count(self, k: int) -> int:
        return self.p.get(k, 0)

    def __post_init__(self):
        f0, f1, f2 = self.f_vector
        lhs = 3 * self.count(3) + 2 * self.count(4) + self.count(5)
        rhs = 12 + sum((k - 6) * c for k, c in self.p.items() if k >= 7)
        if lhs != rhs:
            raise InvariantViolation(f"facet-count identity fails: {lhs} != {rhs}")
        if f0 - f1 + f2 != 2 or 3 * f0 != 2 * f1:
            raise InvariantViolation("f-vector identities fail")
        if sum(self.p.values()) != f2 or sum(k * c for k, c in self.p.items()) != 2 * f1:
            raise InvariantViolation("facet sizes inconsistent with f-vector")


def pk_vector(P: SimplePolytope) -> PkVector:
    counts = {}
    for i in range(1, P.m + 1):
        k = P.facet_size(i)
        counts[k] = counts.get(k, 0) + 1
    return PkVector(p=counts, f_vector=P.f_vector())


def canonical_code(P: SimplePolytope) -> bytes:
    return P.canonical_code()


def is_isomorphic(P: SimplePolytope, Q: SimplePolytope):
    """First facet bijection realizing a combinatorial equivalence, or None."""
    for sigma in P.isomorphisms_to(Q):
        return sigma
    return None


# ---------------------------------------------------------------------------
# Catalog


def _prism_rotations(k: int):
    # facet 1 = top k-gon, 2 = bottom, sides 3..k+2 in cyclic order
    side = [3 + i for i in range(k)]
    rot = {1: side, 2: list(reversed(side))}
    for i in range(k):
        s = side[i]
        rot[s] = [1, side[(i + 1) % k], 2, side[(i - 1) % k]]
    return rot


def _barrel_rotations(k: int):
    # facet 1 = top k-gon, 2 = bottom; 3..k+2 upper pentagons, k+3..2k+2 lower
    U = [3 + i for i in range(k)]
    L = [k + 3 + i for i in range(k)]
    rot = {1: list(U), 2: list(reversed(L))}
    for i in range(k):
        rot[U[i]] = [1, U[(i + 1) % k], L[(i + 1) % k], L[i], U[(i - 1) % k]]
        rot[L[i]] = [2, L[(i + 1) % k], U[i], U[(i - 1) % k], L[(i - 1) % k]]
    return rot


def catalog(name: str, k: int | None = None) -> SimplePolytope:
    """Named polytopes: simplex, cube, prism(k>=3), barrel(k>=5), dodecahedron.

    Barrel numbering: facet 1 top, 2 bottom, 3..k+2 upper pentagon belt,
    k+3..2k+2 lower pentagon belt.
    """
    name = name.lower()
    if name == "simplex":
        return from_rotation_system([(2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3)])
    if name == "cube":
        return from_rotation_system(_prism_rotations(4))
    if name == "prism":
        if k is None or k < 3:
            raise ValueError("prism requires k >= 3")
        return from_rotation_system(_prism_rotations(k))
    if name == "barrel":
        if k is None or k < 5:
            raise ValueError("barrel requires k >= 5")
        return from_rotation_system(_barrel_rotations(k))
    if name == "dodecahedron":
        return from_rotation_system(_barrel_rotations(5))
    raise ValueError(f"unknown catalog polytope: {name}")


class Polygon:
    """An m-gon as a simple 2-polytope: facets are the edges, in cyclic order.

    This is the degenerate base for 4-dimensional quasitoric manifolds
    (n = 2); it shares the vertex/adjacency interface of SimplePolytope.
    """

    n = 2

    __slots__ = ("m", "vertex_tuples")

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("polygon requires m >= 3")
        self.m = m
        self.vertex_tuples = tuple(
            sorted(tuple(sorted((i, i % m + 1))) for i in range(1, m + 1))
        )

    def adjacent(self, i: int, j: int) -> bool:
        return (i - j) % self.m in (1, self.m - 1)

    def facet_size(self, i: int) -> int:
        return 2

    def oriented_vertex(self, pair) -> tuple[int, int]:
        i, j = sorted(pair)
        if (i, j) == (1, self.m):
            return (self.m, 1)
        return (i, j)

    def isomorphisms_to(self, other):
        if not isinstance(other, Polygon) or self.m != other.m:
            return
        m = self.m
        for shift in range(m):
            yield {i: (i - 1 + shift) % m + 1 for i in range(1, m + 1)}
            yield {i: (shift - (i - 1)) % m + 1 for i in range(1, m + 1)}

    def __eq__(self, other):
        return isinstance(other, Polygon) and self.m == other.m

    def __hash__(self):
        return hash(("polygon", self.m))

    def __repr__(self):
        return f"Polygon(m={self.m})"


def polygon(m: int) -> Polygon:
    return Polygon(m)
