"""Surgery on simple 3-polytopes: connected sums along belt-surrounded
facets, vertex/edge truncation, cutting runs of consecutive edges, and the
all-edges cut P_E.

Every operation rewrites the dual triangulation (one triangle per vertex of
the polytope) and reads the result back through polytope.from_triangles,
which validates it with from_rotation_system, so an invalid surgery cannot
produce a polytope.  The truncations are one rewrite, _cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .belts import facet_belt
from .polytope import SimplePolytope, from_triangles


class FacetNotBeltSurrounded(ValueError):
    """The chosen facet's neighbors do not form a belt (e.g. any facet of
    the simplex), so no connected sum is possible there."""


@dataclass(frozen=True)
class Alignment:
    """How the two k-gonal facets are matched in a connected sum: position j
    of the first facet's neighbor cycle is merged with position
    start + j (forward) or start - j (reverse) of the second's, 0-based."""

    start: int = 0
    reverse: bool = False

    def position(self, j: int, k: int) -> int:
        return (self.start - j) % k if self.reverse else (self.start + j) % k


def all_alignments(k: int):
    return [Alignment(start=s, reverse=r) for r in (False, True) for s in range(k)]


def connected_sum(
    P: SimplePolytope, f: int, Q: SimplePolytope, g: int, align: Alignment = Alignment()
) -> SimplePolytope:
    """Connected sum of P and Q at the k-gonal facets f and g.

    Both facets must be surrounded by k-belts.  Cutting each polytope's
    surface along the midline of its belt and regluing merges the two belts
    facet-by-facet as prescribed by align; the result has
    m_P + m_Q - k - 2 facets and contains the glued k-belt.  Facets of P
    keep their relative order (belt facets carry the merged ones), then the
    remaining facets of Q follow.
    """
    belt_p = facet_belt(P, f)
    belt_q = facet_belt(Q, g)
    if belt_p is None:
        raise FacetNotBeltSurrounded(f"facet {f} of the first summand")
    if belt_q is None:
        raise FacetNotBeltSurrounded(f"facet {g} of the second summand")
    nb_p = P.neighbors(f)
    nb_q = Q.neighbors(g)
    k = len(nb_p)
    if len(nb_q) != k:
        raise ValueError("facets must have the same number of edges")
    # new labels: P-facets except f, order preserved; then Q-facets except g
    # and the belt around g (those merge into the P belt)
    label_p = {}
    nxt = 1
    for i in range(1, P.m + 1):
        if i != f:
            label_p[i] = nxt
            nxt += 1
    label_q = {}
    for j in range(k):
        label_q[nb_q[align.position(j, k)]] = label_p[nb_p[j]]
    for i in range(1, Q.m + 1):
        if i != g and i not in label_q:
            label_q[i] = nxt
            nxt += 1
    m = nxt - 1
    triangles = set()
    for tri in P.vertex_tuples:
        if f not in tri:
            triangles.add(tuple(sorted(label_p[x] for x in tri)))
    for tri in Q.vertex_tuples:
        if g not in tri:
            triangles.add(tuple(sorted(label_q[x] for x in tri)))
    return from_triangles(m, triangles)


def _cut(P: SimplePolytope, f: int, prev: int, run: tuple[int, ...], nxt: int) -> SimplePolytope:
    """Cut the edges of facet f shared with the facets of run, which lie
    consecutively on f between prev and nxt; with no run, cut the vertex
    (f, prev, nxt).  The new facet m+1 is adjacent to f, prev, run and nxt.

    On the dual: the triangles (f, a, b) for a, b consecutive in
    (prev, *run, nxt) become (m+1, a, b), and (m+1, f, prev), (m+1, f, nxt)
    are added."""
    g = P.m + 1
    chain = (prev, *run, nxt)
    pairs = list(zip(chain, chain[1:]))
    cut = {tuple(sorted((f, a, b))) for a, b in pairs}
    triangles = [t for t in P.vertex_tuples if t not in cut]
    triangles += [(g, a, b) for a, b in pairs] + [(g, f, prev), (g, f, nxt)]
    return from_triangles(g, triangles)


def _cut_edge_run(P: SimplePolytope, f: int, run: tuple[int, ...]) -> SimplePolytope:
    """Cut the s >= 1 consecutive edges of facet f shared with the facets in
    run (consecutive in f's rotation, either way round)."""
    nbrs = P.neighbors(f)
    kf = len(nbrs)
    s = len(run)
    if len(set(run)) != s or any(x not in nbrs for x in run):
        raise ValueError("edge run must name distinct neighbors of the facet")
    t = nbrs.index(run[0])
    for step in (1, -1):
        if all(nbrs[(t + step * d) % kf] == x for d, x in enumerate(run)):
            break
    else:
        raise ValueError("edge run must be consecutive on the facet")
    if s > kf - 2:
        raise ValueError("cutting this many edges would destroy the facet")
    return _cut(P, f, nbrs[(t - step) % kf], run, nbrs[(t + step * s) % kf])


def vertex_truncate(P: SimplePolytope, v) -> SimplePolytope:
    """Truncate the vertex given by its three facets; the new triangular
    facet is labelled m+1."""
    tri = tuple(sorted(v))
    if tri not in P.vertex_tuples:
        raise ValueError(f"{tri} is not a vertex")
    return _cut(P, tri[0], tri[1], (), tri[2])


def edge_truncate(P: SimplePolytope, e) -> SimplePolytope:
    """Truncate the edge between two adjacent facets; the new quadrangular
    facet is labelled m+1."""
    a, b = e
    if not P.adjacent(a, b):
        raise ValueError(f"facets {a},{b} are not adjacent")
    return _cut_edge_run(P, a, (b,))


def sk_truncate(P: SimplePolytope, f: int, run) -> SimplePolytope:
    """Cut s >= 2 consecutive edges of the k-gonal facet f; the edges are
    named by the neighboring facets, consecutive in f's rotation.

    When P is Pogorelov and k >= s + 4 the result is again Pogorelov.
    """
    run = tuple(run)
    if len(run) < 2:
        raise ValueError("an edge run for (s,k)-truncation has s >= 2 edges")
    return _cut_edge_run(P, f, run)


def edge_cut_all(P: SimplePolytope) -> SimplePolytope:
    """P_E: cut all edges of P simultaneously.

    Old facets keep labels 1..m and become pairwise disjoint; the edge
    facets are hexagons labelled m+1.. in lexicographic edge order, adjacent
    to a facet iff the edge lies on it and to one another iff the edges are
    incident.  On the dual this is the edge subdivision of the triangulation.
    """
    edges = P.edges()
    label = {e: P.m + 1 + i for i, e in enumerate(edges)}
    triangles = set()
    for tri in P.vertex_tuples:
        a, b, c = tri
        eab = label[(min(a, b), max(a, b))]
        ebc = label[(min(b, c), max(b, c))]
        eac = label[(min(a, c), max(a, c))]
        triangles.add(tuple(sorted((a, eab, eac))))
        triangles.add(tuple(sorted((b, eab, ebc))))
        triangles.add(tuple(sorted((c, ebc, eac))))
        triangles.add(tuple(sorted((eab, ebc, eac))))
    return from_triangles(P.m + len(edges), triangles)
