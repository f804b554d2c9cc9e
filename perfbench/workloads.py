"""The three seeded workloads.

Each workload turns a seed into a corpus with ``catalog``, ``constructions``
and ``relabel`` (set-up), lists the ops one closed-loop caller runs over that
corpus, checks each result with an oracle from ``oracles``, and, in the traced
run, makes labelled shadow calls that split the work hidden inside one public
call by module.

The corpus of every workload has a fixed composition (how many inputs of
which combinatorial family and size); the seed picks the truncated vertices
and edges, the glued facets, the colourings, the scrambles and every
relabelling.  A fixed composition keeps the cost of one pass comparable
between seeds, so the end-to-end numbers of different seeds can be compared.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from pogorelov import _intlinalg, belts, characteristic, constructions, macohomology, manifolds
from pogorelov import complex as simplicial
from pogorelov.polytope import catalog, dual_complex

import oracles


@dataclass
class Op:
    """One call of the closed loop.  ``call(tracer, env)`` returns the result,
    which the runner stores as ``env[name]`` for later ops of the same pass;
    ``check(result, env)`` is the oracle and runs off the clock."""

    name: str
    kind: str
    call: Callable
    check: Callable


@dataclass
class Counters:
    """Counts gathered by the shadow calls of a traced run."""

    values: dict = field(default_factory=dict)

    def add(self, key: str, amount=1) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.values[key] = max(self.values.get(key, 0), value)


def _relabel(tr, P, rng):
    perm = list(range(1, P.m + 1))
    rng.shuffle(perm)
    with tr.span("polytope.relabel"):
        return P.relabel(perm)


def _catalog(tr, name, k=None):
    with tr.span("polytope.catalog"):
        return catalog(name, k)


def _fingerprint_rows(P) -> str:
    return ";".join(" ".join(map(str, rot)) for rot in P.rotations)


class Workload:
    name = ""

    def build(self, seed: int, tr):
        rng = random.Random(f"{self.name}:{seed}")
        return self._build(rng, tr)

    def polytopes(self, corpus) -> list:
        return corpus

    def input_rows(self, corpus) -> list[str]:
        return [_fingerprint_rows(P) for P in self.polytopes(corpus)]

    def fingerprint(self, corpus) -> dict:
        """m-histogram, hash of the sorted canonical codes (relabelling
        invariant) and hash of the exact labelled inputs."""
        polys = self.polytopes(corpus)
        hist: dict[int, int] = {}
        for P in polys:
            hist[P.m] = hist.get(P.m, 0) + 1
        canon = hashlib.sha256(b"".join(sorted(P.canonical_code() for P in polys)))
        exact = hashlib.sha256("\n".join(self.input_rows(corpus)).encode())
        return {
            "inputs": len(polys),
            "m_histogram": dict(sorted(hist.items())),
            "canonical_sha256": canon.hexdigest()[:16],
            "input_sha256": exact.hexdigest()[:16],
        }


# ---------------------------------------------------------------------------
# Shadow calls on one multidegree, shared by cohomology and products


def shadow_multidegree(tr, counters: Counters, K, coeffs: str, jmask: int) -> None:
    """The module work inside ``MultigradedCohomology.component(J)``, redone
    through the public functions of each module: the R*(K) basis and
    differentials, the integer or GF(2) linear algebra on those matrices, and
    the Hochster cross-check on the full subcomplex."""
    with tr.span("shadow.macohomology.r_differential"):
        basis = macohomology.r_basis(K, jmask)
        mats = [macohomology.r_differential(K, jmask, p) for p in basis]
    counters.peak("macohomology.max_piece_dim", max(len(lvl) for lvl in basis.values()))
    for mat in mats:
        if not mat or not mat[0]:
            continue
        cells = len(mat) * len(mat[0])
        counters.add("intlinalg.matrices")
        counters.add("intlinalg.cells_total", cells)
        counters.peak("intlinalg.max_cells", cells)
        if coeffs == "Z":
            with tr.span("shadow.intlinalg.kernel_basis"):
                _intlinalg.kernel_basis(mat)
            with tr.span("shadow.intlinalg.rank"):
                _intlinalg.rank_z(mat)
        else:
            rows = [sum(1 << c for c, a in enumerate(row) if a % 2) for row in mat]
            with tr.span("shadow.intlinalg.rank"):
                _intlinalg.gf2_rank(rows)
    vertices = [i + 1 for i in range(K.m) if jmask >> i & 1]
    with tr.span("shadow.complex.reduced_cohomology"):
        sub = simplicial.full_subcomplex(K, vertices)
        simplicial.reduced_cohomology(sub, coeffs)
    counters.add("complex.full_subcomplexes")


def shadow_component(tr, counters: Counters, cohom, jmask: int):
    with tr.span("shadow.macohomology.component"):
        comp = cohom.component(jmask)
    counters.add("macohomology.multidegrees")
    counters.add("macohomology.pieces", len(comp.pieces))
    shadow_multidegree(tr, counters, cohom.K, cohom.coeffs, jmask)
    return comp


# ---------------------------------------------------------------------------
# cohomology: full H*(Z_P) over Z and Z2


def _truncate_to(tr, P, m: int, rng):
    while P.m < m:
        if rng.random() < 0.5:
            v = rng.choice(P.vertex_tuples)
            with tr.span("constructions.vertex_truncate"):
                P = constructions.vertex_truncate(P, v)
        else:
            e = rng.choice(P.edges())
            with tr.span("constructions.edge_truncate"):
                P = constructions.edge_truncate(P, e)
    return P


class Cohomology(Workload):
    name = "cohomology"
    # (facet count m, inputs): 100 ops per pass, so the p90 of the per-op
    # best latencies has ten ops beyond it
    SLOTS = ((6, 14), (7, 20), (8, 14), (9, 2))
    # (facet count, catalog name, k); each input truncates a base with fewer
    # facets than its target, cycling through them
    BASES = ((4, "simplex", None), (5, "prism", 3), (6, "cube", None), (7, "prism", 5))
    COEFFS = ("Z", "Z2")

    def __init__(self):
        self._expected: dict[int, dict] = {}

    def _build(self, rng, tr):
        corpus = []
        for m, count in self.SLOTS:
            bases = [b[1:] for b in self.BASES if b[0] < m]
            for k in range(count):
                base = _catalog(tr, *bases[k % len(bases)])
                corpus.append(_relabel(tr, _truncate_to(tr, base, m, rng), rng))
        return corpus

    def _counting(self, idx, P):
        if idx not in self._expected:
            self._expected[idx] = oracles.counting_betti(P)
        return self._expected[idx]

    def ops(self, corpus) -> list[Op]:
        ops = []
        for idx, P in enumerate(corpus):
            for c in self.COEFFS:
                ops.append(Op(f"{idx}.{c}", f"cohomology.{c}", self._call(P, c), self._check(idx, P, c)))
        return ops

    @staticmethod
    def _call(P, c):
        def call(tr, env):
            with tr.span("polytope.dual_complex"):
                K = dual_complex(P)
            with tr.span("macohomology.cohomology"):
                H = macohomology.cohomology(K, c)
            with tr.span("macohomology.betti"):
                betti = H.betti()
            with tr.span("macohomology.torsion_summary"):
                torsion = H.torsion_summary()
            return betti, torsion

        return call

    def _check(self, idx, P, c):
        other = f"{idx}.Z" if c == "Z2" else None

        def check(result, env):
            betti, torsion = result
            other_betti = env[other][0] if other in env else None
            return oracles.check_cohomology(P.m, betti, torsion, self._counting(idx, P), other_betti)

        return check

    def shadow(self, corpus, tr) -> dict:
        counters = Counters()
        for P in corpus:
            K = dual_complex(P)
            for c in self.COEFFS:
                cohom = macohomology.MultigradedCohomology(K, c)
                for jmask in range(1 << P.m):
                    shadow_component(tr, counters, cohom, jmask)
        return counters.values


# ---------------------------------------------------------------------------
# products: the H^3 x H^3 test for 4-belts on flag polytopes


def _dodecahedron_sum(tr, rng):
    D = _catalog(tr, "dodecahedron")
    f, g = rng.randrange(1, 13), rng.randrange(1, 13)
    align = rng.choice(constructions.all_alignments(5))
    with tr.span("constructions.connected_sum"):
        return constructions.connected_sum(D, f, D, g, align)


def _sk_truncate(tr, P, rng):
    """(2, k)-truncation of a k >= 6 facet, which keeps P Pogorelov."""
    f = rng.choice([i for i in range(1, P.m + 1) if P.facet_size(i) >= 6])
    nbrs = P.neighbors(f)
    s = rng.randrange(len(nbrs))
    with tr.span("constructions.sk_truncate"):
        return constructions.sk_truncate(P, f, (nbrs[s], nbrs[(s + 1) % len(nbrs)]))


def _edge_truncate(tr, P, rng):
    e = rng.choice(P.edges())
    with tr.span("constructions.edge_truncate"):
        return constructions.edge_truncate(P, e)


def _pogorelov_family(tr, family, rng):
    if family == "dodecahedron":
        return _catalog(tr, "dodecahedron")
    if family.startswith("barrel"):
        return _catalog(tr, "barrel", int(family[6:]))
    if family == "dd":
        return _dodecahedron_sum(tr, rng)
    if family == "sk_barrel6":
        return _sk_truncate(tr, _catalog(tr, "barrel", 6), rng)
    if family == "sk_dd":
        return _sk_truncate(tr, _dodecahedron_sum(tr, rng), rng)
    raise ValueError(family)


def _validate(tr, P, pogorelov: bool) -> None:
    """Set-up check of the intended class: Pogorelov, or flag with a 4-belt."""
    with tr.span("belts.is_pogorelov"):
        is_pog = belts.is_pogorelov(P)
    if pogorelov:
        ok = is_pog
    else:
        with tr.span("belts.is_flag_polytope"):
            ok = belts.is_flag_polytope(P) and belts.has_belt(P, 4)
    if not ok:
        raise RuntimeError(f"generated input (m={P.m}) is not of its intended class")


class Products(Workload):
    name = "products"
    # Pogorelov inputs: every disjoint pair of H^3 classes is multiplied.
    # 100 ops per pass, so the p90 has ten ops beyond it.  The dodecahedra
    # hold the median and the barrel(6) copies the p90 of the latency order,
    # whatever the seed does to the 4-belted inputs.
    POGORELOV = (
        ("dodecahedron", 34), ("barrel6", 10), ("barrel7", 1), ("sk_barrel6", 2),
        ("dd", 1), ("sk_dd", 1), ("barrel8", 1),
    )
    # flag inputs with a 4-belt (an edge-truncated Pogorelov polytope): all
    # |J| = 2 classes are built, then the test stops at the first non-zero
    # product
    BELTED = (("dodecahedron", 42), ("barrel6", 8))

    def __init__(self):
        self._has_4belt: dict[int, bool] = {}

    def _build(self, rng, tr):
        corpus = []
        for family, count in self.POGORELOV:
            for _ in range(count):
                P = _relabel(tr, _pogorelov_family(tr, family, rng), rng)
                _validate(tr, P, pogorelov=True)
                corpus.append(P)
        for family, count in self.BELTED:
            for _ in range(count):
                P = _edge_truncate(tr, _pogorelov_family(tr, family, rng), rng)
                P = _relabel(tr, P, rng)
                _validate(tr, P, pogorelov=False)
                corpus.append(P)
        return corpus

    def ops(self, corpus) -> list[Op]:
        return [
            Op(str(idx), "h3_square_trivial", self._call(P), self._check(idx, P))
            for idx, P in enumerate(corpus)
        ]

    @staticmethod
    def _call(P):
        def call(tr, env):
            with tr.span("macohomology.h3_square_trivial"):
                return macohomology.h3_square_trivial(P)

        return call

    def _check(self, idx, P):
        def check(verdict, env):
            if idx not in self._has_4belt:
                self._has_4belt[idx] = belts.has_belt(P, 4)
            return oracles.check_h3_verdict(verdict, self._has_4belt[idx])

        return check

    def shadow(self, corpus, tr) -> dict:
        """The loop of ``h3_square_trivial`` redone call by call: the |J| = 2
        components first (so class times exclude their builds), then the
        classes, then products until the first non-zero one.  A product
        builds its target component inside ``cup_product`` only when the
        chain-level product is non-zero, so that cost stays in
        ``cup_product``."""
        counters = Counters()
        targets = set()
        for idx, P in enumerate(corpus):
            K = dual_complex(P)
            cohom = macohomology.MultigradedCohomology(K, "Z")
            pairs = macohomology.h3_basis(K)
            classes = {}
            for i, j in pairs:
                shadow_component(tr, counters, cohom, 1 << (i - 1) | 1 << (j - 1))
                with tr.span("shadow.macohomology.h3_class"):
                    classes[(i, j)] = cohom.h3_class(i, j)
            for pr1, pr2 in itertools.combinations(pairs, 2):
                if set(pr1) & set(pr2):
                    continue
                with tr.span("shadow.macohomology.cup_product"):
                    product = macohomology.cup_product(classes[pr1], classes[pr2])
                counters.add("macohomology.products")
                targets.add((idx, tuple(sorted(pr1 + pr2))))
                if not product.is_zero():
                    counters.add("macohomology.products_nonzero")
                    break
        counters.add("macohomology.product_targets", len(targets))
        return counters.values


# ---------------------------------------------------------------------------
# classify: characteristic enumeration and ring-isomorphism decisions


def _random_unimodular(rng, hard: bool, n=3):
    """A random signed permutation matrix followed by two +-1 shears, or
    (``hard``) by three +-1/+-2 shears, redrawn until the largest entry is 3
    to 5.

    Products of six +-1/+-2 shears (as the package tests use) can give
    entries above 10, and on one such matrix ``qt_ring`` ran for minutes.
    Entries up to 5 keep the integer Smith form inside ``qt_ring`` busy with
    non-trivial coefficients while each op stays well under a second."""
    while True:
        perm = rng.sample(range(n), n)
        A = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 if hard else 2):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2) if hard else (-1, 1))
            for t in range(n):
                A[i][t] += c * A[j][t]
        if not hard or 3 <= max(abs(a) for row in A for a in row) <= 5:
            return A


def _scramble(tr, P, L, rng, hard=False):
    """Relabel facets, act by a unimodular matrix and flip column signs."""
    perm = list(range(1, P.m + 1))
    rng.shuffle(perm)
    sigma = {i: perm[i - 1] for i in range(1, P.m + 1)}
    with tr.span("polytope.relabel"):
        P2 = P.relabel(sigma)
    A = _random_unimodular(rng, hard, L.n)
    cols = [None] * P.m
    for i in range(1, P.m + 1):
        col = L.column(i)
        sign = rng.choice((1, -1))
        cols[sigma[i] - 1] = tuple(sign * sum(A[r][s] * col[s] for s in range(L.n)) for r in range(L.n))
    L2 = characteristic.CharMatrix(n=L.n, rows=tuple(tuple(c[r] for c in cols) for r in range(L.n)))
    return P2, L2


def colouring_orbits(P, colourings) -> dict:
    """Orbit representatives of proper colourings under colour renaming and
    the symmetries of P, by first-occurrence renaming (independent of
    ``characteristic.colouring_classes``)."""
    autos = list(P.isomorphisms_to(P))
    reps = {}
    for chi in colourings:
        best = None
        for sigma in autos:
            moved = [0] * P.m
            for i, c in enumerate(chi, start=1):
                moved[sigma[i] - 1] = c
            names: dict[int, int] = {}
            cand = tuple(names.setdefault(c, len(names) + 1) for c in moved)
            if best is None or cand < best:
                best = cand
        reps.setdefault(best, []).append(chi)
    return reps


@dataclass
class Base:
    P: object
    pogorelov: bool
    classes: list  # one list of colourings per colouring class
    enumerate: bool  # run enumerate_char_z2 on this base


@dataclass
class Pair:
    base: int
    P2: object
    L1: object
    L2: object
    expected: bool


class Classify(Workload):
    name = "classify"
    # (family, Pogorelov?, positive pairs, hard positive pairs, negative
    # pairs, enumerate_char_z2?); a hard pair is scrambled with entries up
    # to 5 (see _random_unimodular)
    BASES = (
        ("dodecahedron", True, 5, 1, 0, True),
        ("barrel6", True, 4, 1, 4, False),
        ("edge-truncated dodecahedron", False, 2, 1, 6, True),
        ("prism6", False, 2, 1, 5, True),
    )

    def _build(self, rng, tr):
        bases, pairs = [], []
        for family, pog, n_pos, n_hard, n_neg, enum in self.BASES:
            if family == "dodecahedron":
                P = _catalog(tr, "dodecahedron")
            elif family == "barrel6":
                P = _catalog(tr, "barrel", 6)
            elif family == "prism6":
                P = _catalog(tr, "prism", 6)
            else:
                P = _edge_truncate(tr, _catalog(tr, "dodecahedron"), rng)
            P = _relabel(tr, P, rng)
            _validate(tr, P, pogorelov=pog)
            with tr.span("characteristic.enumerate_colourings"):
                colourings = characteristic.enumerate_colourings(P)
            classes = list(colouring_orbits(P, colourings).values())
            b = len(bases)
            bases.append(Base(P, pog, classes, enum))
            for expected, hard, count in ((True, False, n_pos), (True, True, n_hard), (False, False, n_neg)):
                for _ in range(count):
                    if expected:
                        chis = rng.choice(classes)
                        chi1 = chi2 = rng.choice(chis)
                    else:
                        c1, c2 = rng.sample(range(len(classes)), 2)
                        chi1, chi2 = rng.choice(classes[c1]), rng.choice(classes[c2])
                    L1 = characteristic.colouring_to_matrix(chi1)
                    P2, L2 = _scramble(tr, P, characteristic.colouring_to_matrix(chi2), rng, hard)
                    pairs.append(Pair(b, P2, L1, L2, expected))
        return bases, pairs

    def polytopes(self, corpus):
        bases, pairs = corpus
        return [b.P for b in bases] + [p.P2 for p in pairs]

    def input_rows(self, corpus):
        bases, pairs = corpus
        rows = [_fingerprint_rows(b.P) for b in bases]
        for p in pairs:
            rows.append(f"{p.base}|{p.L1.rows}|{_fingerprint_rows(p.P2)}|{p.L2.rows}|{p.expected}")
        return rows

    def ops(self, corpus) -> list[Op]:
        bases, pairs = corpus
        ops = []
        for b, base in enumerate(bases):
            P = base.P
            if base.enumerate:
                ops.append(Op(f"b{b}.z2", "enumerate_char_z2", _traced(
                    "characteristic.enumerate_char_z2", characteristic.enumerate_char_z2, P),
                    lambda r, env: oracles.check_char_z2(*r)))
            expected = len(base.classes)
            ops.append(Op(f"b{b}.cc", "colouring_classes", _traced(
                "characteristic.colouring_classes", characteristic.colouring_classes, P),
                lambda r, env, e=expected: oracles.check_colouring_classes(r, e)))
        for k, pair in enumerate(pairs):
            ops.extend(self._pair_ops(k, pair, bases[pair.base]))
        return ops

    def _pair_ops(self, k, pair: Pair, base: Base) -> list[Op]:
        """Two ``rings`` ops (qt_ring and sc_ring of one side) and one
        ``decide`` op (ring_isomorphic in both modes, then sc_isomorphic)."""
        P, P2, pog = base.P, pair.P2, base.pogorelov
        L1_2, L2_2 = pair.L1.reduce_mod2(), pair.L2.reduce_mod2()
        n = f"p{k}"

        def rings(Q, L, L_2):
            def call(tr, env):
                with tr.span("manifolds.qt_ring"):
                    R = manifolds.qt_ring(Q, L)
                with tr.span("manifolds.sc_ring"):
                    N = manifolds.sc_ring(Q, L_2)
                return R, N

            return call

        def rings_check(Q, L, L_2):
            def check(result, env):
                R, N = result
                return oracles.check_ring(R, Q, L) + oracles.check_ring(N, Q, L_2)

            return check

        def decide(tr, env):
            (R1, N1), (R2, N2) = env[f"{n}.side1"], env[f"{n}.side2"]
            with tr.span("manifolds.ring_isomorphic"):
                by_pair = manifolds.ring_isomorphic(R1, R2, "pair-equivalence")
            with tr.span("manifolds.ring_isomorphic"):
                by_gen = manifolds.ring_isomorphic(R1, R2, "generator-restricted")
            with tr.span("manifolds.sc_isomorphic"):
                by_sc = manifolds.sc_isomorphic(N1, N2)
            return by_pair, by_gen, by_sc

        def check(decisions, env):
            (R1, _), (R2, _) = env[f"{n}.side1"], env[f"{n}.side2"]
            ctx = {"L1": pair.L1, "L2": pair.L2, "L1_2": L1_2, "L2_2": L2_2, "R1": R1, "R2": R2}
            problems = oracles.check_modes_agree(decisions[0], decisions[1], pog)
            for kind, d in zip(("ring_isomorphic.pair", "ring_isomorphic.gen", "sc_isomorphic"), decisions):
                problems += oracles.check_decision(kind, d, pair.expected, pog, ctx)
            return problems

        return [
            Op(f"{n}.side1", "rings", rings(P, pair.L1, L1_2), rings_check(P, pair.L1, L1_2)),
            Op(f"{n}.side2", "rings", rings(P2, pair.L2, L2_2), rings_check(P2, pair.L2, L2_2)),
            Op(f"{n}.decide", "decide", decide, check),
        ]

    def shadow(self, corpus, tr) -> dict:
        counters = Counters()
        bases, pairs = corpus
        for pair in pairs:
            P = bases[pair.base].P
            with tr.span("shadow.polytope.isomorphisms_to"):
                found = sum(1 for _ in P.isomorphisms_to(pair.P2))
            counters.add("polytope.isomorphisms_yielded", found)
            with tr.span("shadow.belts.is_pogorelov"):
                belts.is_pogorelov(P)
            with tr.span("shadow.characteristic.pairs_equivalent"):
                characteristic.pairs_equivalent(P, pair.L1, pair.P2, pair.L2)
        return counters.values


def _traced(span: str, fn, *args):
    def call(tr, env):
        with tr.span(span):
            return fn(*args)

    return call


WORKLOADS = {w.name: w for w in (Cohomology, Products, Classify)}
