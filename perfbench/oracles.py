"""Independent checks of every op result.

Each check returns a list of problems (empty when the result is accepted), so
a wrong answer is counted as a failure without stopping the run.  The checks
use routes that do not go through the code they judge: Betti numbers by
counting surface pieces, the H^3 product verdict by belt search, ring
evaluation tables by determinants and the relations of the characteristic
matrix, ring isomorphisms by re-evaluating the witness.
"""

from __future__ import annotations

import itertools

from pogorelov import belts, manifolds


def counting_betti(P) -> dict[int, int]:
    """Betti numbers of Z_P summed over all multidegrees from the counting
    ranks of ``belts.surface_piece_homology`` (Hochster's formula: level p of
    multidegree J is H~^{p-1}(K_J), in total degree |J| + p)."""
    betti = {0: 1}
    for jmask in range(1, 1 << P.m):
        facets = [i + 1 for i in range(P.m) if jmask >> i & 1]
        for p, rank in enumerate(belts.surface_piece_homology(P, facets), start=1):
            if rank:
                degree = len(facets) + p
                betti[degree] = betti.get(degree, 0) + rank
    return dict(sorted(betti.items()))


def check_cohomology(m: int, betti: dict, torsion: dict, expected: dict, other=None) -> list[str]:
    """Poincare duality in dimension m + 3, no torsion, the counting Betti
    numbers, and agreement with the other coefficient ring's Betti numbers."""
    problems = []
    top = m + 3
    for degree, rank in betti.items():
        if betti.get(top - degree, 0) != rank:
            problems.append(f"Poincare duality fails: b_{degree} != b_{top - degree}")
            break
    if torsion:
        problems.append(f"unexpected torsion {torsion}")
    if betti != expected:
        problems.append(f"Betti numbers {betti} differ from counting {expected}")
    if other is not None and betti != other:
        problems.append("Betti numbers over Z and Z2 differ")
    return problems


def check_h3_verdict(verdict: bool, has_4belt: bool) -> list[str]:
    """The paper's criterion: H^3 products all vanish iff there is no 4-belt."""
    if verdict is not (not has_4belt):
        return [f"h3_square_trivial gave {verdict} but has_belt(P, 4) is {has_4belt}"]
    return []


def _det(cols) -> int:
    """Determinant of a small square integer matrix given by its columns."""
    if len(cols) == 1:
        return cols[0][0]
    return sum(
        (-1) ** c * cols[c][0] * _det([col[1:] for k, col in enumerate(cols) if k != c])
        for c in range(len(cols))
    )


def check_ring(ring, P, L) -> list[str]:
    """The evaluation table of ``qt_ring(P, L)`` (or of ``sc_ring`` when L is
    over Z2) recomputed from L, for a 3-polytope P.

    Every vertex evaluates to the determinant of its L columns in positive
    cyclic order, times that of the least vertex (1 mod 2); every other
    triple of distinct facets, and every v_i^2 v_j off an edge, to 0; and each
    row of L times each face-supported quadratic monomial to 0.  The top
    group has rank 1, so these values and relations fix the whole table.
    The expressions of the generators must satisfy the rows of L too."""
    mod = 2 if L.ring == "Z2" else None

    def differ(got, want) -> bool:
        return got % mod != want % mod if mod else got != want

    problems = []
    m = P.m
    vertices = {frozenset(v) for v in P.vertex_tuples}
    base = _det([L.column(i) for i in P.oriented_vertex(min(P.vertex_tuples))])
    for vert in P.vertex_tuples:
        want = base * _det([L.column(i) for i in P.oriented_vertex(vert)])
        if differ(ring.evaluate(*vert), want):
            problems.append(f"vertex {vert} evaluates to {ring.evaluate(*vert)}, determinant gives {want}")
    for triple in itertools.combinations(range(1, m + 1), 3):
        if frozenset(triple) not in vertices and ring.evaluate(*triple):
            problems.append(f"non-face {triple} evaluates to {ring.evaluate(*triple)}")
    quadratic = [(i, i) for i in range(1, m + 1)]
    for i, j in itertools.combinations(range(1, m + 1), 2):
        if P.adjacent(i, j):
            quadratic.append((i, j))
        elif ring.evaluate(i, i, j) or ring.evaluate(i, j, j):
            problems.append(f"v_{i} v_{j} is off an edge but evaluates to non-zero")
    for r, row in enumerate(L.rows):
        for T in quadratic:
            total = sum(row[k - 1] * ring.evaluate(*T, k) for k in range(1, m + 1) if row[k - 1])
            if differ(total, 0):
                problems.append(f"row {r} of L times v_{T[0]} v_{T[1]} evaluates to {total}")
        for t in range(len(ring.basis_facets)):
            total = sum(row[k - 1] * ring.expressions[k][t] for k in range(1, m + 1))
            if differ(total, 0):
                problems.append(f"generator expressions break row {r} of L")
    return problems[:5]


def generator_witness_holds(R1, R2, witness) -> bool:
    """v_i -> eps_i v'_sigma(i) matches every face-supported degree-3
    evaluation, up to the global top-class sign delta."""
    P, sigma, eps = R1.P, witness.sigma, witness.eps
    monomials = [(i, i, i) for i in range(1, P.m + 1)]
    for i, j in P.edges():
        monomials += [(i, i, j), (i, j, j)]
    monomials += list(P.vertex_tuples)
    for mono in monomials:
        sign = witness.delta
        for i in mono:
            sign *= eps[i - 1]
        if sign * R1.evaluate(*mono) != R2.evaluate(*(sigma[i] for i in mono)):
            return False
    return True


def check_decision(kind: str, decision, expected: bool, pogorelov: bool, ctx: dict) -> list[str]:
    """A decision must match the known truth of its pair (scrambled copy, or
    distinct colouring classes), carry a valid witness when positive, and
    flag its negative as sound exactly on Pogorelov bases."""
    problems = []
    if decision.isomorphic is not expected:
        problems.append(f"{kind} decided {decision.isomorphic}, expected {expected}")
        return problems
    if decision.sound_negative is not pogorelov:
        problems.append(f"{kind} sound_negative={decision.sound_negative} on pogorelov={pogorelov}")
    if not expected:
        return problems
    w = decision.witness
    if kind == "sc_isomorphic":
        if not w.check(ctx["L1_2"], ctx["L2_2"]):
            problems.append("sc witness fails PairEquivalence.check")
        return problems
    if kind == "ring_isomorphic.pair" and not w.check(ctx["L1"], ctx["L2"]):
        problems.append("pair witness fails PairEquivalence.check")
    if kind == "ring_isomorphic.gen" and not generator_witness_holds(ctx["R1"], ctx["R2"], w):
        problems.append("generator witness does not match the evaluations")
    if not manifolds.witness_preserves_p1(ctx["R1"], ctx["R2"], w):
        problems.append(f"{kind} witness does not preserve p1")
    return problems


def check_modes_agree(pair_decision, gen_decision, pogorelov: bool) -> list[str]:
    """Over a Pogorelov base every ring isomorphism is generator-restricted,
    so the two ring_isomorphic modes must agree."""
    if pogorelov and pair_decision.isomorphic is not gen_decision.isomorphic:
        return ["ring_isomorphic modes disagree on a Pogorelov base"]
    return []


def check_char_z2(count: int, classes: int) -> list[str]:
    """GL(3, Z2) (order 168) acts freely on Z2-characteristic functions."""
    problems = []
    if count <= 0 or count % 168:
        problems.append(f"characteristic function count {count} is not a positive multiple of 168")
    if not 1 <= classes <= count // 168:
        problems.append(f"class count {classes} outside [1, {count // 168}]")
    return problems


def check_colouring_classes(got: int, expected: int) -> list[str]:
    if got != expected:
        return [f"colouring_classes gave {got}, independent orbit count is {expected}"]
    return []
