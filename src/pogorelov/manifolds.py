"""Cohomology rings of quasitoric manifolds (n = 3, and n = 2 over polygons)
and small covers, plus the ring-isomorphism decisions.

A ring is presented by evaluation data: the value of every product of n
degree-two generator classes against the fundamental class, computed exactly
in the Davis-Januszkiewicz quotient Z[v_1..v_m]/(I_P + J_L).  The linear
relations are the rows of L normalised by the inverse of its base-vertex
minor (the same row span, with unit columns at the base vertex).  Their
products with the degree-(n-1) face-supported monomials are sparse, nearly
all with a +-1 pivot, and the top form is the primitive functional that
vanishes on them (``_TopForm``).  The orientation convention is that the
lexicographically least vertex (the base vertex) evaluates to +1.
Products with repeated generators are part of the data, so a match of two
presentations under a facet bijection and sign pattern is exactly a ring
isomorphism sending generators to signed generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ._intlinalg import GF2Echelon, cyclic_functional
from .belts import is_pogorelov
from .characteristic import (
    CharMatrix,
    NotCharacteristic,
    PairEquivalence,
    _det,
    _mat_inverse,
    is_characteristic,
    pairs_equivalent,
)
from .errors import InvariantViolation
from .polytope import SimplePolytope


class ModeUnsupported(ValueError):
    pass


def _face_supported_monomials(P, n):
    """Degree-n monomials (n = 2 or 3, as sorted index tuples) whose support
    is a face, sorted."""
    edges = [(i, j) for i, j in itertools.combinations(range(1, P.m + 1), 2) if P.adjacent(i, j)]
    out = [(i,) * n for i in range(1, P.m + 1)]
    if n == 2:
        return sorted(out + edges)
    out += [mo for i, j in edges for mo in ((i, i, j), (i, j, j))]
    return sorted(out + [tuple(sorted(vert)) for vert in P.vertex_tuples])


class _TopForm:
    """The functional H^(2n) = Z (or Z2): value of each degree-n monomial.

    ``rows`` are the rows of L normalised by the base vertex (see
    ``_normalised_rows``).  The relations, built once as sparse {monomial
    position: coefficient} maps, are the products of each row's linear form
    with the degree-(n-1) face-supported monomials: they span the same
    lattice as those of L, and the unit base-vertex columns give almost all
    of them a +-1 pivot.  Over Z the top form is the primitive functional
    that vanishes on them (``cyclic_functional``), signed so the base vertex
    evaluates to 1; over Z2 a monomial evaluates to 1 when it lies outside
    their span.  ``value`` holds every face-supported monomial, in the order
    of ``_face_supported_monomials``."""

    def __init__(self, P, rows, ring: str):
        monos = _face_supported_monomials(P, P.n)
        lower = {}  # degree-(n-1) monomial T -> {facet i: position of T v_i}
        for pos, mo in enumerate(monos):
            for k, i in enumerate(mo):
                lower.setdefault(mo[:k] + mo[k + 1:], {})[i] = pos
        relations = []
        for row in rows:
            for targets in lower.values():
                rel = {pos: row[i - 1] for i, pos in targets.items() if row[i - 1]}
                if rel:
                    relations.append(rel)
        base = monos.index(tuple(sorted(min(P.vertex_tuples))))
        if ring == "Z":
            try:
                phi = cyclic_functional(len(monos), relations)
            except ValueError:
                raise NotCharacteristic(
                    "top cohomology is not infinite cyclic; matrix is not characteristic"
                ) from None
            unit = phi[base]
            if unit not in (1, -1):
                raise InvariantViolation("base vertex does not generate the top group")
            self.value = {mo: unit * phi[pos] for pos, mo in enumerate(monos)}
        else:
            ech = GF2Echelon()
            for rel in relations:
                ech.add(sum(1 << pos for pos, c in rel.items() if c % 2))
            if len(monos) - ech.count != 1:
                raise NotCharacteristic("Z2 top cohomology does not have dimension 1")
            # with a one-dimensional quotient a monomial is 0 or the generator
            self.value = {
                mo: 1 if ech.reduce(1 << pos)[0] else 0 for pos, mo in enumerate(monos)
            }
            if self.value[monos[base]] != 1:
                raise InvariantViolation("base vertex vanishes in Z2 top cohomology")
        for vert in P.vertex_tuples:
            val = self.value[tuple(sorted(vert))]
            if not (val in (1, -1) if ring == "Z" else val == 1):
                raise InvariantViolation(f"vertex {vert} does not evaluate to a unit")

    def __call__(self, mono) -> int:
        return self.value.get(tuple(sorted(mono)), 0)


def _oriented_det_sign(P, L: CharMatrix, vert) -> int:
    """det of the columns in the positive cyclic order of the vertex."""
    return _det([L.column(i) for i in P.oriented_vertex(vert)])


@dataclass
class QTRingPresentation:
    """Evaluation-table presentation of H*(M(P, L)); see the module docstring."""

    P: object
    L: CharMatrix
    base_vertex: tuple
    basis_facets: tuple
    expressions: dict  # facet -> vector over basis_facets
    top: _TopForm = field(repr=False)

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def m(self) -> int:
        return self.P.m

    @property
    def ring(self) -> str:
        return self.L.ring

    def evaluate(self, *facets) -> int:
        """<v_{i_1} ... v_{i_n}, [M]> for any multiset of n facet indices."""
        if len(facets) != self.n:
            raise ValueError(f"expected {self.n} factors")
        return self.top(tuple(sorted(facets)))

    def evaluation_table(self) -> dict:
        """Total table: every degree-n monomial (a sorted multiset of facet
        indices from 1..m) mapped to its evaluation; a monomial whose
        support is not a face evaluates to 0."""
        return {
            mo: self.top(mo)
            for mo in itertools.combinations_with_replacement(range(1, self.m + 1), self.n)
        }

    def p1_pairing(self):
        """n = 3: the functional a -> <p_1 v_a, [M]>; n = 2: <p_1, [M]>."""
        if self.n == 2:
            return sum(self.top((i, i)) for i in range(1, self.m + 1))
        return {
            a: sum(self.top(tuple(sorted((i, i, a)))) for i in range(1, self.m + 1))
            for a in range(1, self.m + 1)
        }

    def w2_vector(self) -> tuple:
        """Sum of all v_i expressed over the basis facets, mod 2."""
        total = [0] * len(self.basis_facets)
        for i in range(1, self.m + 1):
            for t, c in enumerate(self.expressions[i]):
                total[t] = (total[t] + c) % 2
        return tuple(total)


class SmallCoverRing(QTRingPresentation):
    """Z2-coefficient presentation of H*(N(P, L)); same combinatorial data as
    the quasitoric ring with the grading halved (deg v_i = 1)."""


def _normalised_rows(P, L: CharMatrix):
    """(base vertex, rows of inv * L), inv the inverse over L.ring of the
    base-vertex columns of L (sorted facet order).

    The rows span the same lattice as the rows of L, so they present the same
    ring, and a unimodular change of L's rows cancels out; the base-vertex
    columns become the unit vectors."""
    base = tuple(sorted(min(P.vertex_tuples)))
    inv = _mat_inverse([L.column(i) for i in base], L.ring)
    if inv is None:
        raise NotCharacteristic(f"base vertex minor is not invertible over {L.ring}")
    rows = tuple(
        tuple(sum(a * b for a, b in zip(inv_row, L.column(i))) for i in range(1, P.m + 1))
        for inv_row in inv
    )
    if L.ring == "Z2":
        rows = tuple(tuple(a % 2 for a in row) for row in rows)
    return base, rows


def _expressions(P, base, rows, ring: str):
    """Each facet class over the basis facets (those off the base vertex).

    Row s of the normalised matrix reads v_base[s] + sum_i rows[s][i] v_i = 0,
    so v_base[s] = -sum over the basis facets of rows[s][i] v_i."""
    basis = tuple(i for i in range(1, P.m + 1) if i not in base)
    exprs = {}
    for t, i in enumerate(basis):
        vec = [0] * len(basis)
        vec[t] = 1
        exprs[i] = tuple(vec)
    for s, b in enumerate(base):
        vec = [-rows[s][i - 1] for i in basis]
        exprs[b] = tuple(a % 2 for a in vec) if ring == "Z2" else tuple(vec)
    return basis, exprs


def _presentation(cls, P, L: CharMatrix):
    """The evaluation data of (P, L) as a ``cls`` instance."""
    ok, vert = is_characteristic(P, L)
    if not ok:
        raise NotCharacteristic(f"matrix fails the vertex condition at {vert}")
    base, rows = _normalised_rows(P, L)
    basis, exprs = _expressions(P, base, rows, L.ring)
    return cls(
        P=P, L=L, base_vertex=base, basis_facets=basis, expressions=exprs,
        top=_TopForm(P, rows, L.ring),
    )


def qt_ring(P, L: CharMatrix) -> QTRingPresentation:
    """Cohomology ring of the quasitoric manifold M(P, L) as evaluation data."""
    if L.ring != "Z":
        raise ValueError("qt_ring expects an integer matrix; use sc_ring for Z2")
    ring = _presentation(QTRingPresentation, P, L)
    _check_evaluations(ring)
    return ring


def sc_ring(P, L2: CharMatrix) -> SmallCoverRing:
    """Z2 cohomology ring of the small cover N(P, L2)."""
    if L2.ring != "Z2":
        raise ValueError("sc_ring expects a Z2 matrix")
    return _presentation(SmallCoverRing, P, L2)


def _check_evaluations(ring: QTRingPresentation) -> None:
    """Distinct n-tuples evaluate to 0 off vertices and to the oriented
    determinant sign at vertices (relative to the base normalization).  The
    signs come from the caller's L, not the normalised rows the top form was
    built from, so the check stays independent of that construction."""
    P, L = ring.P, ring.L
    c0 = _oriented_det_sign(P, L, ring.base_vertex)
    for vert in P.vertex_tuples:
        want = _oriented_det_sign(P, L, vert) * c0
        got = ring.evaluate(*vert)
        if got != want:
            raise InvariantViolation(
                f"evaluation at {vert} is {got}, oriented determinant gives {want}"
            )


@dataclass(frozen=True)
class GeneratorWitness:
    """Ring isomorphism v_i -> eps_i v'_sigma(i) with top classes matched by
    the global sign delta."""

    sigma: dict
    eps: tuple
    delta: int


@dataclass(frozen=True)
class IsoDecision:
    isomorphic: bool
    mode: str
    witness: object = None
    sound_negative: bool = True
    note: str = ""


def _eval_match_witness(R1: QTRingPresentation, R2: QTRingPresentation, sigma):
    """Signs eps and delta matching the full evaluation data under sigma, or
    None.  Linear system over GF(2) on the sign bits."""
    m = R1.m
    # unknowns: bit i-1 is set when eps_i = -1 and bit m when delta = -1; each
    # equation's right-hand side is the combination tracked by the echelon
    ech = GF2Echelon()
    for mo, v1 in R1.top.value.items():  # every face-supported monomial, sorted
        target = tuple(sorted(sigma[i] for i in mo))
        v2 = R2.top(target)
        if abs(v1) != abs(v2):
            return None
        if v1 == 0:
            continue
        bits = 1 << m
        for i in mo:
            bits ^= 1 << (i - 1)
        v, rhs, _ = ech.reduce(bits, 0 if v1 == v2 else 1)
        if v:
            ech.add(v, rhs)
        elif rhs:  # 0 = 1: inconsistent
            return None
    x = ech.solve()
    eps = tuple(-1 if x >> (i - 1) & 1 else 1 for i in range(1, m + 1))
    delta = -1 if x >> m & 1 else 1
    # defensive re-check of every monomial
    for mo, v1 in R1.top.value.items():
        target = tuple(sorted(sigma[i] for i in mo))
        sign = delta
        for i in mo:
            sign *= eps[i - 1]
        if sign * v1 != R2.top(target):
            return None
    return GeneratorWitness(sigma=dict(sigma), eps=eps, delta=delta)


def ring_isomorphic(
    R1: QTRingPresentation, R2: QTRingPresentation, mode: str = "generator-restricted"
) -> IsoDecision:
    """Decide cohomology-ring isomorphism of two quasitoric manifolds.

    pair-equivalence mode decides equivalence of the characteristic pairs
    (Theorem 5.2 direction); generator-restricted mode searches for ring maps
    v_i -> eps_i v'_sigma(i) matching all n-fold evaluations.  A negative
    verdict decides ring isomorphism only over a Pogorelov base, where every
    ring isomorphism is generator-restricted; the sound_negative flag records
    this boundary.  Z2 rings (``sc_ring``) raise ModeUnsupported: they are
    decided by ``sc_isomorphic``.
    """
    if R1.n != R2.n:
        raise ModeUnsupported("mixed dimensions")
    if R1.ring == "Z2" or R2.ring == "Z2":
        raise ModeUnsupported("ring_isomorphic decides integer rings; use sc_isomorphic for Z2")
    sound = R1.n == 3 and isinstance(R1.P, SimplePolytope) and is_pogorelov(R1.P)
    if mode == "pair-equivalence":
        w = pairs_equivalent(R1.P, R1.L, R2.P, R2.L)
        return IsoDecision(
            isomorphic=w is not None,
            mode=mode,
            witness=w,
            sound_negative=sound,
            note="equivalence of characteristic pairs",
        )
    if mode != "generator-restricted":
        raise ModeUnsupported(f"unknown mode: {mode}")
    if R1.m == R2.m:
        for sigma in R1.P.isomorphisms_to(R2.P):
            w = _eval_match_witness(R1, R2, sigma)
            if w is not None:
                return IsoDecision(
                    isomorphic=True, mode=mode, witness=w, sound_negative=sound,
                    note="generator-restricted isomorphism found",
                )
    return IsoDecision(
        isomorphic=False, mode=mode, witness=None, sound_negative=sound,
        note="no generator-restricted isomorphism",
    )


def sc_isomorphic(N1: SmallCoverRing, N2: SmallCoverRing) -> IsoDecision:
    """Decide Z2-cohomology ring isomorphism of two small covers.

    This is equivalence of the Z2-characteristic pairs: the Z2 ring is the
    quasitoric ring with halved grading, and a generator map
    v_i -> v'_sigma(i) is a ring isomorphism exactly when some A in GL(3,Z2)
    matches the matrices.
    """
    if N1.ring != "Z2" or N2.ring != "Z2":
        raise ModeUnsupported("sc_isomorphic decides Z2 rings; use ring_isomorphic for qt_ring")
    if N1.n != N2.n:
        raise ModeUnsupported("mixed dimensions")
    sound = N1.n == 3 and isinstance(N1.P, SimplePolytope) and is_pogorelov(N1.P)
    w = pairs_equivalent(N1.P, N1.L, N2.P, N2.L)
    return IsoDecision(
        isomorphic=w is not None,
        mode="pair-equivalence",
        witness=w,
        sound_negative=sound,
        note="Z2 characteristic pair equivalence",
    )


def pontryagin_w(ring: QTRingPresentation):
    """(first Pontryagin data, w_2 data): p_1 = sum v_i^2 via the evaluation
    rule (n = 2: its integer value; n = 3: the degree-2 pairing functional),
    and w_2 = sum v_i mod 2 over the basis facets."""
    return ring.p1_pairing(), ring.w2_vector()


def witness_preserves_p1(R1: QTRingPresentation, R2: QTRingPresentation, witness) -> bool:
    """Check that an isomorphism witness carries sum v_i^2 to sum v_j'^2."""
    if isinstance(witness, PairEquivalence):
        sigma = witness.sigma
        eps = witness.B
    elif isinstance(witness, GeneratorWitness):
        sigma = witness.sigma
        eps = witness.eps
    else:
        raise TypeError("unknown witness type")
    if R1.n == 2:
        return R1.p1_pairing() == R2.p1_pairing()
    # recover the top-class sign of the induced map from the base vertex
    base = R1.base_vertex
    sign = 1
    for i in base:
        sign *= eps[i - 1]
    v2 = R2.evaluate(*(sigma[i] for i in base))
    if v2 == 0:
        return False
    delta = sign * v2  # delta * phi1(base) = eps-product * phi2(sigma base)
    p1 = R1.p1_pairing()
    p2 = R2.p1_pairing()
    return all(
        delta * p1[a] == eps[a - 1] * p2[sigma[a]] for a in range(1, R1.m + 1)
    )
