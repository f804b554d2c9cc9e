"""Belts (prismatic circuits) in simple 3-polytopes.

A k-belt is a cyclic sequence of k >= 3 facets in which consecutive facets
are adjacent, all other pairs are disjoint, and no three share a vertex.
For k >= 4 these are exactly the chordless k-cycles of the dual 1-skeleton;
3-belts are the missing triangles of the dual complex whose three edges are
present.

`has_belt(P, 4)` does not enumerate cycles: a 4-belt (i, k, j, l) is a pair
of disjoint facets i, j with two disjoint facets k, l among their common
neighbours, found with O(m^2) adjacency-mask operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex import _mask, _unmask, chordless_cycles, full_subcomplex, reduced_cohomology
from .polytope import SimplePolytope, dual_complex


class BeltNotFound(LookupError):
    """No belt satisfying the requested constraints exists."""


def canonical_belt(seq) -> tuple[int, ...]:
    """Normalize a cyclic facet sequence: minimum first, smaller neighbor second."""
    seq = tuple(seq)
    k = len(seq)
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev)


def _three_belts(P: SimplePolytope):
    vertices = set(P.vertex_tuples)
    adj = P.adjacency()
    out = []
    for i in range(1, P.m + 1):
        for j in _unmask(adj[i] >> i << i):  # neighbors above i
            for l in _unmask((adj[i] & adj[j]) >> j << j):
                if (i, j, l) not in vertices:
                    out.append((i, j, l))
    return out


def _has_four_belt(P: SimplePolytope) -> bool:
    """Some disjoint F_i, F_j have two disjoint common neighbours F_k, F_l.

    Then i, k, j, l is a chordless 4-cycle of the dual 1-skeleton, and every
    such cycle arises this way."""
    adj = P.adjacency()
    full = (1 << P.m) - 1
    for i in range(1, P.m + 1):
        for j in _unmask(full >> i << i & ~adj[i]):  # disjoint from i, above it
            common = adj[i] & adj[j]
            for k in _unmask(common):
                if common & ~adj[k] & ~(1 << (k - 1)):
                    return True
    return False


def enumerate_belts(P: SimplePolytope, k: int | None = None) -> list[tuple[int, ...]]:
    """All k-belts (all lengths when k is None), each once up to rotation and
    reflection, as canonical tuples sorted by (length, sequence)."""
    out = []
    if k is None or k == 3:
        out.extend(_three_belts(P))
    if k != 3:
        K = dual_complex(P)
        for cyc in chordless_cycles(K, max_len=k):
            if k is None or len(cyc) == k:
                out.append(canonical_belt(cyc))
    out.sort(key=lambda b: (len(b), b))
    return out


def has_belt(P: SimplePolytope, k: int) -> bool:
    if k == 3:
        return bool(_three_belts(P))
    if k == 4:
        return _has_four_belt(P)
    K = dual_complex(P)
    for cyc in chordless_cycles(K, max_len=k):
        if len(cyc) == k:
            return True
    return False


def is_flag_polytope(P: SimplePolytope) -> bool:
    """Flag iff P is not the simplex and has no 3-belt.

    The simplex is the only simple 3-polytope with four facets, and no
    rotation system with fewer is accepted."""
    if P.m == 4:
        return False
    return not has_belt(P, 3)


def is_pogorelov(P: SimplePolytope) -> bool:
    """Pogorelov class: flag and no 4-belt."""
    return is_flag_polytope(P) and not has_belt(P, 4)


def facet_belt(P: SimplePolytope, i: int) -> tuple[int, ...] | None:
    """The belt surrounding facet i, when its neighbor cycle is a belt."""
    nbrs = P.neighbors(i)
    k = len(nbrs)
    if k == 3:
        # three pairwise adjacent facets; a belt requires no common vertex
        if dual_complex(P).has_face(nbrs):
            return None
        return canonical_belt(nbrs)
    for a in range(k):
        for b in range(a + 2, k):
            if (a, b) == (0, k - 1):
                continue
            if P.adjacent(nbrs[a], nbrs[b]):
                return None
    return canonical_belt(nbrs)


def pair_belt(P: SimplePolytope, i: int, j: int) -> tuple[int, ...] | None:
    """The belt surrounding the adjacent pair (F_i, F_j), if it is one.

    For a Pogorelov polytope this always exists and has length
    k_i + k_j - 4.
    """
    if not P.adjacent(i, j):
        raise ValueError("facets must be adjacent")
    ri = P.neighbors(i)
    rj = P.neighbors(j)
    pi = ri.index(j)
    pj = rj.index(i)
    # walk around the union: neighbors of i except j, then neighbors of j
    # except i, spliced at the two shared vertices
    seq = [ri[(pi + t) % len(ri)] for t in range(1, len(ri))] + [
        rj[(pj + t) % len(rj)] for t in range(1, len(rj))
    ]
    # the facets at the two ends of the shared edge appear twice consecutively
    cyc = []
    for f in seq:
        if cyc and cyc[-1] == f:
            continue
        cyc.append(f)
    if cyc and cyc[0] == cyc[-1]:
        cyc.pop()
    if len(set(cyc)) != len(cyc):
        return None
    k = len(cyc)
    for a in range(k):
        for b in range(a + 2, k):
            if (a, b) == (0, k - 1):
                continue
            if P.adjacent(cyc[a], cyc[b]):
                return None
    K = dual_complex(P)
    for a in range(k):
        if K.has_face((cyc[a], cyc[(a + 1) % k], cyc[(a + 2) % k])):
            return None
    return canonical_belt(cyc)


def _belts_through(P, i, i2, avoid):
    K = dual_complex(P)
    return chordless_cycles(K, through=(i, i2), avoid=avoid)


def find_separating_belt(P: SimplePolytope, i: int, i2: int, k: int) -> tuple[int, ...]:
    """A belt containing F_i and F_i2 and avoiding F_k (exists whenever P is
    flag); ties broken by shortest, then lexicographically least cycle."""
    if P.adjacent(i, i2) or i == i2:
        raise ValueError("F_i and F_i2 must be disjoint")
    if k in (i, i2):
        raise ValueError("i, i2, k must be distinct")
    best = None
    for cyc in _belts_through(P, i, i2, avoid=(k,)):
        cand = (len(cyc), canonical_belt(cyc))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise BeltNotFound(f"no belt through {i},{i2} avoiding {k}")
    return best[1]


def belt_arcs(belt, i: int, i2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two connected components of belt minus {F_i, F_i2}."""
    seq = list(belt)
    if i not in seq or i2 not in seq:
        raise ValueError("both facets must lie on the belt")
    a, b = seq.index(i), seq.index(i2)
    if a > b:
        a, b = b, a
    arc1 = tuple(seq[a + 1 : b])
    arc2 = tuple(seq[b + 1 :] + seq[:a])
    return arc1, arc2


def find_component_avoiding_belt(P: SimplePolytope, i: int, i2: int, k: int):
    """Belt B with F_i, F_i2 in B, F_k not in B, and F_k disjoint from one of
    the two components of B minus {F_i, F_i2}.

    Returns (belt, arc_index, arc) where arc_index in {0, 1} names the
    avoided component.  Guaranteed to exist for Pogorelov P.
    """
    if P.adjacent(i, i2) or i == i2:
        raise ValueError("F_i and F_i2 must be disjoint")
    if k in (i, i2):
        raise ValueError("i, i2, k must be distinct")
    adj_k = P.adjacency()[k]
    best = None
    for cyc in _belts_through(P, i, i2, avoid=(k,)):
        belt = canonical_belt(cyc)
        arcs = belt_arcs(belt, i, i2)
        for idx in (0, 1):
            if not adj_k & _mask(arcs[idx]):
                cand = (len(belt), belt, idx)
                if best is None or cand < best:
                    best = cand
                break
    if best is None:
        raise BeltNotFound(
            f"no belt through {i},{i2} avoiding {k} with a component clear of {k}"
        )
    belt = best[1]
    arcs = belt_arcs(belt, i, i2)
    return belt, best[2], arcs[best[2]]


# ---------------------------------------------------------------------------
# Surface pieces (unions of facets) and their relative homology ranks


@dataclass(frozen=True)
class SurfacePiece:
    """P_I = union of the facets in I, with its connected components and the
    number of boundary edge-cycles of each component."""

    facets: tuple[int, ...]
    components: tuple[tuple[tuple[int, ...], int], ...]  # (facet list, #cycles)

    @property
    def component_count(self) -> int:
        return len(self.components)


def surface_piece(P: SimplePolytope, I) -> SurfacePiece:
    I = tuple(sorted(set(I)))
    if any(i < 1 or i > P.m for i in I):
        raise ValueError("facet index out of range")
    iset = set(I)
    # components of the facet-adjacency graph restricted to I
    comp_of = {}
    comps = []
    for start in I:
        if start in comp_of:
            continue
        comp = [start]
        comp_of[start] = len(comps)
        stack = [start]
        while stack:
            f = stack.pop()
            for g in P.neighbors(f):
                if g in iset and g not in comp_of:
                    comp_of[g] = len(comps)
                    comp.append(g)
                    stack.append(g)
        comps.append(sorted(comp))
    # boundary edge-cycles: walk vertices of P incident to boundary edges.
    # each boundary vertex has exactly two incident boundary edges.
    boundary_edges = set()
    for i in I:
        for j in P.neighbors(i):
            if j not in iset:
                boundary_edges.add((min(i, j), max(i, j)))
    edge_vertices = {}
    for tri in P.vertex_tuples:
        for a in range(3):
            e = tuple(sorted((tri[a], tri[(a + 1) % 3])))
            if e in boundary_edges:
                edge_vertices.setdefault(e, []).append(tri)
    cycle_count = [0] * len(comps)
    unvisited = set(boundary_edges)
    while unvisited:
        e0 = min(unvisited)
        # the I-side facet of this boundary edge names the component
        iside = e0[0] if e0[0] in iset else e0[1]
        cycle_count[comp_of[iside]] += 1
        stack = [e0]
        unvisited.discard(e0)
        while stack:
            e = stack.pop()
            for v in edge_vertices[e]:
                for a in range(3):
                    e2 = tuple(sorted((v[a], v[(a + 1) % 3])))
                    if e2 in unvisited:
                        unvisited.discard(e2)
                        stack.append(e2)
    components = tuple(
        (tuple(comps[c]), cycle_count[c]) for c in range(len(comps))
    )
    return SurfacePiece(facets=I, components=components)


def surface_piece_homology(P: SimplePolytope, I) -> tuple[int, int, int]:
    """Ranks (r2, r1, r0) of the reduced relative homology of (P_I, dP_I).

    r2 counts components minus one (the class sum of all facets is factored
    out for every nonempty I); r1 sums (boundary cycles - 1) over components;
    r0 is 1 exactly for I = the whole facet set.  These equal the ranks of
    the reduced cohomology of the dual full subcomplex in degrees 0, 1, 2.
    """
    piece = surface_piece(P, I)
    if not piece.facets:
        return (0, 0, 0)
    whole = len(piece.facets) == P.m
    r2 = piece.component_count - 1
    r1 = sum(max(cycles - 1, 0) for _, cycles in piece.components)
    r0 = 1 if whole else 0
    return (r2, r1, r0)


def surface_matches_subcomplex(P: SimplePolytope, I) -> bool:
    """Cross-check of the surface-piece ranks against simplicial cohomology."""
    r2, r1, r0 = surface_piece_homology(P, I)
    h = reduced_cohomology(full_subcomplex(dual_complex(P), I))
    return (r2, r1, r0) == (h.rank(0), h.rank(1), h.rank(2))
