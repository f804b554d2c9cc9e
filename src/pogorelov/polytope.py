"""Combinatorial simple 3-polytopes as facet rotation systems.

A polytope is stored by the cyclic sequence of neighbors of every facet.
Validity is the combinatorial Steinitz criterion (facets bounded by simple
edge cycles, any two facets meeting in at most one edge, dual complex a
simplicial 2-sphere); no coordinates anywhere.  Only from_rotation_system
validates: relabel trusts the polytope it starts from and checks only that
the facet map is a bijection.

The dual triangulation K_P has a triangle for every vertex of P.
dual_complex goes there; from_triangles comes back, reading each facet's
rotation off its link in the triangulation, so every surgery can rewrite the
triangles and be validated by from_rotation_system on the way back.
"""

from __future__ import annotations

import functools
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
        verts = []
        oriented = {}
        for i, rot in enumerate(rotations, 1):
            for j, l in zip(rot, rot[1:] + rot[:1]):
                if i < j and i < l:  # each vertex once, from its least facet
                    verts.append((i, j, l) if j < l else (i, l, j))
                    oriented[frozenset((i, j, l))] = (i, j, l)
        self.vertex_tuples = tuple(sorted(verts))
        self._oriented = oriented  # frozenset -> cyclic tuple, min-first

    # -- queries -------------------------------------------------------------

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.rotations[i - 1]

    def facet_size(self, i: int) -> int:
        return len(self.rotations[i - 1])

    def adjacency(self) -> tuple[int, ...]:
        if self._adj is None:
            self._adj = (0, *map(_mask, self.rotations))
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
        """Apply facet bijection old->new (dict or sequence with perm[old-1]).

        The result is built directly, without the Steinitz re-validation of
        from_rotation_system: a bijection of facets carries a validated,
        coherently oriented rotation system to another one, with the same
        rotations from_rotation_system would return.  Only the bijection is
        checked; anything else raises ValueError.
        """
        m = self.m
        if isinstance(perm, dict):
            if sorted(perm) != list(range(1, m + 1)):
                raise ValueError(f"relabelling must have the keys 1..{m}, got {sorted(perm)}")
            perm = [perm[i] for i in range(1, m + 1)]
        perm = list(perm)
        if len(perm) != m:
            raise ValueError(f"relabelling has {len(perm)} entries for {m} facets")
        if sorted(perm) != list(range(1, m + 1)):
            repeated = sorted({p for p in perm if perm.count(p) > 1})
            raise ValueError(
                f"relabelling is not a bijection of 1..{m}: {perm}"
                + (f" repeats {repeated}" if repeated else "")
            )
        image = [0, *perm]
        new_rot = [None] * m
        for i, rot in enumerate(self.rotations, 1):
            new_rot[image[i] - 1] = tuple([image[j] for j in rot])
        return SimplePolytope(tuple(new_rot), _validated=True)

    def canonical_code(self) -> bytes:
        """Canonical form of the oriented map, reflections included.

        The minimum over all darts and both directions of the breadth-first
        code.  A dart's first row is (2, 3, ..., |F_a| + 1), so only darts
        on the smallest facets can win; a candidate is dropped at its first
        row greater than the best code's row."""
        if self._canon is None:
            best = None
            smallest = min(map(len, self.rotations))
            for rot in (self.rotations, _mirror(self.rotations)):
                for a in range(1, self.m + 1):
                    if len(rot[a - 1]) != smallest:
                        continue
                    for b in rot[a - 1]:
                        found = _bfs_code(rot, a, b, best)
                        if found is not None:
                            best = found[0]
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
        code0, order0 = _bfs_code(self.rotations, 1, self.rotations[0][0])
        rots = (other.rotations, _mirror(other.rotations))
        for a in range(1, other.m + 1):
            for b in other.rotations[a - 1]:
                for rot in rots:
                    found = _bfs_code(rot, a, b, code0, exact=True)
                    if found is not None:
                        order = found[1]
                        yield {order0[t]: order[t] for t in range(self.m)}


def _mirror(rotations):
    """The rotations of the reflected map."""
    return tuple(r[::-1] for r in rotations)


def _bfs_code(rot, a: int, b: int, ref=None, exact=False):
    """Breadth-first code of the map `rot` from the dart (a, b), with the
    facet visiting order (order[t] carries label t + 1).

    Every facet's row lists the labels of its neighbours in rotation order,
    starting at the neighbour it was reached from.  With a reference code
    `ref`, building stops and returns None at the first row greater than
    ref's row at that position, or, when `exact`, at the first row differing
    from it.  After a smaller row the rest is built without comparing.
    """
    label = [0] * (len(rot) + 1)
    parent = [0] * (len(rot) + 1)
    label[a], label[b] = 1, 2
    parent[a], parent[b] = b, a
    order = [a, b]
    code = []
    for v in order:  # grows while it is read
        r = rot[v - 1]
        k = r.index(parent[v])
        row = []
        for w in r[k:] + r[:k]:
            t = label[w]
            if not t:
                order.append(w)
                t = label[w] = len(order)
                parent[w] = v
            row.append(t)
        if ref is not None:
            bound = ref[len(code)]
            if row != bound:
                if exact or row > bound:
                    return None
                ref = None
        code.append(row)
    return code, order


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


def from_triangles(m: int, triangles) -> SimplePolytope:
    """The polytope whose dual triangulation has these triangles on the
    facets 1..m: the inverse of dual_complex.

    Facet v's rotation is its link, which must be one cycle, walked from its
    least neighbour towards the first link neighbour the triangles name;
    from_rotation_system then validates and orients the result.
    """
    links = {}  # facet -> {link vertex: its two neighbours in the link}
    for a, b, c in triangles:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            link = links.setdefault(v, {})
            link.setdefault(x, []).append(y)
            link.setdefault(y, []).append(x)
    outside = [v for v in links if v not in range(1, m + 1)]
    if outside:
        raise ValueError(f"facet index out of range 1..{m}: {sorted(outside)}")
    rotations = []
    for v in range(1, m + 1):
        link = links.get(v)
        if link is None:
            raise NotSphere(f"facet {v} lies in no triangle")
        if any(len(ends) != 2 for ends in link.values()):
            raise NotSphere(f"link of facet {v} is not a cycle")
        start = min(link)
        cycle, prev, cur = [start], start, link[start][0]
        while cur != start:
            cycle.append(cur)
            a, b = link[cur]
            prev, cur = cur, b if a == prev else a
        if len(cycle) != len(link):
            raise NotSphere(f"link of facet {v} is not one cycle")
        rotations.append(cycle)
    return from_rotation_system(rotations)


def dual_complex(P: SimplePolytope) -> SimplicialComplex:
    """K_P: the simplicial 2-sphere on the facet set, triangles = vertices.

    P passed from_rotation_system, so K_P is marked a 2-sphere without
    deciding it again."""
    K = SimplicialComplex(P.m, P.vertex_tuples)
    K._sphere = True
    return K


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


@functools.lru_cache(maxsize=None)
def catalog(name: str, k: int | None = None) -> SimplePolytope:
    """Named polytopes: simplex, cube, prism(k>=3), barrel(k>=5), dodecahedron.

    Barrel numbering: facet 1 top, 2 bottom, 3..k+2 upper pentagon belt,
    k+3..2k+2 lower pentagon belt.  Polytopes are immutable, so each result
    is built once per process and shared.
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
