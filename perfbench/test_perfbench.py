"""Tests of the benchmark itself: seeded corpora, oracles that reject wrong
answers, and metric names that match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import dataclasses
import itertools
import json
import re

import pytest

import run

workloads = run.load_workloads()
import oracles  # noqa: E402  (needs the package path set by load_workloads)

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TinyCohomology(workloads.Cohomology):
    SLOTS = ((7, 2),)


class TinyProducts(workloads.Products):
    POGORELOV = (("dodecahedron", 1),)
    BELTED = (("dodecahedron", 1),)


class TinyClassify(workloads.Classify):
    BASES = (("prism6", False, 1, 1, 1, True),)


TINY = (TinyCohomology, TinyProducts, TinyClassify)


def _ops_and_results(wl, seed=3):
    corpus = wl.build(seed, run.NullTracer())
    ops = wl.ops(corpus)
    _, problems, env = run.run_pass(ops, run.NullTracer(), 0)
    assert problems == []
    return corpus, ops, env


@pytest.mark.parametrize("cls", [workloads.Cohomology, workloads.Products, workloads.Classify])
def test_corpus_is_deterministic_per_seed(cls):
    wl = cls()
    first = wl.fingerprint(wl.build(5, run.NullTracer()))
    assert first == wl.fingerprint(wl.build(5, run.NullTracer()))
    other = wl.fingerprint(wl.build(6, run.NullTracer()))
    assert other["input_sha256"] != first["input_sha256"]
    assert other["m_histogram"] == first["m_histogram"]


@pytest.mark.parametrize("cls", [workloads.Cohomology, workloads.Products, workloads.Classify])
def test_every_pass_has_100_ops(cls):
    wl = cls()
    assert len(wl.ops(wl.build(1, run.NullTracer()))) >= 100


def test_setup_processes_build_the_same_corpus():
    times, prints = run.setup_seconds("products", 4, 2)
    wl = workloads.Products()
    assert prints == {run.fingerprint_line(wl, wl.build(4, run.NullTracer()))}
    assert len(times) == 2 and min(times) > 0


def test_cohomology_oracle_rejects_perturbed_betti():
    wl = TinyCohomology()
    corpus, ops, env = _ops_and_results(wl)
    op = ops[0]
    betti, torsion = env[op.name]
    assert op.check((betti, torsion), env) == []
    wrong = dict(betti)
    wrong[3] += 1
    assert op.check((wrong, torsion), env)
    assert op.check((betti, {4: [2]}), env)
    # the Z2 op compares against the Z op's Betti numbers of the same pass
    z2 = ops[1]
    env[op.name] = (wrong, torsion)
    assert z2.check(env[z2.name], env)


def test_counting_betti_satisfies_poincare_duality():
    wl = TinyCohomology()
    for P in wl.build(1, run.NullTracer()):
        betti = oracles.counting_betti(P)
        assert oracles.check_cohomology(P.m, betti, {}, betti) == []


def test_products_oracle_rejects_flipped_verdict():
    wl = TinyProducts()
    corpus, ops, env = _ops_and_results(wl)
    verdicts = [env[op.name] for op in ops]
    assert verdicts == [True, False]  # Pogorelov first, then the 4-belted input
    for op in ops:
        assert op.check(not env[op.name], env)


def test_classify_oracles_reject_flipped_witness_sign():
    wl = TinyClassify()
    corpus, ops, env = _ops_and_results(wl)
    decide = [op for op in ops if op.kind == "decide" and env[op.name][0].isomorphic]
    assert decide
    for op in decide:
        by_pair, by_gen, by_sc = env[op.name]
        assert op.check((by_pair, by_gen, by_sc), env) == []
        B = (-by_pair.witness.B[0],) + by_pair.witness.B[1:]
        bad = dataclasses.replace(by_pair, witness=dataclasses.replace(by_pair.witness, B=B))
        assert op.check((bad, by_gen, by_sc), env)
        eps = (-by_gen.witness.eps[0],) + by_gen.witness.eps[1:]
        bad = dataclasses.replace(by_gen, witness=dataclasses.replace(by_gen.witness, eps=eps))
        assert op.check((by_pair, bad, by_sc), env)
        assert op.check((by_pair, by_gen, dataclasses.replace(by_sc, isomorphic=False)), env)
        flipped = dataclasses.replace(by_pair, sound_negative=not by_pair.sound_negative)
        assert op.check((flipped, by_gen, by_sc), env)


def _perturbed(ring, mono, delta=1):
    """A copy of ``ring`` whose evaluation of ``mono`` is off by ``delta``."""
    top = copy.copy(ring.top)
    top.value = dict(ring.top.value)
    top.value[mono] = top.value.get(mono, 0) + delta
    return dataclasses.replace(ring, top=top)


def test_ring_oracle_rejects_perturbed_evaluation():
    wl = TinyClassify()
    corpus, ops, env = _ops_and_results(wl)
    rings = [op for op in ops if op.kind == "rings"]
    assert rings
    for op in rings:
        R, N = env[op.name]
        assert op.check((R, N), env) == []
        P = R.P
        i, j = P.edges()[0]
        vertex = tuple(sorted(P.vertex_tuples[-1]))
        vertices = {tuple(sorted(v)) for v in P.vertex_tuples}
        non_face = next(t for t in itertools.combinations(range(1, P.m + 1), 3) if t not in vertices)
        for mono in (vertex, non_face, (i, i, j), (i, i, i)):
            assert op.check((_perturbed(R, mono), N), env), mono
            assert op.check((R, _perturbed(N, mono)), env), mono


def test_classify_oracles_reject_wrong_counts_and_verdicts():
    wl = TinyClassify()
    corpus, ops, env = _ops_and_results(wl)
    for op in ops:
        result = env[op.name]
        if op.kind == "enumerate_char_z2":
            count, classes = result
            assert op.check((count + 1, classes), env)
            assert op.check((count, count), env)
        elif op.kind == "colouring_classes":
            assert op.check(result + 1, env)
        elif op.kind == "decide" and not result[0].isomorphic:
            for i in range(3):
                wrong = list(result)
                wrong[i] = dataclasses.replace(result[i], isomorphic=True)
                assert op.check(tuple(wrong), env)


def test_modes_must_agree_on_pogorelov_bases():
    from pogorelov.manifolds import IsoDecision

    yes = IsoDecision(isomorphic=True, mode="pair-equivalence")
    no = IsoDecision(isomorphic=False, mode="generator-restricted")
    assert oracles.check_modes_agree(yes, no, pogorelov=True)
    assert oracles.check_modes_agree(yes, no, pogorelov=False) == []
    assert oracles.check_modes_agree(yes, yes, pogorelov=True) == []


@pytest.mark.parametrize("cls", TINY)
def test_emitted_metrics_are_declared(cls, tmp_path, monkeypatch):
    names = {
        0: [m["name"] for m in DECLARED["end_to_end"]],
        1: [m["name"] for m in DECLARED["per_layer"]],
    }
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    # set-up processes would build the full corpus of the workload's name
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed, repeats: ([0.5] * repeats, set()))
    e2e = run.end_to_end(cls(), seed=2, seconds=0)
    tr = run.traced(cls(), seed=2, seconds=0, out_dir=tmp_path)
    for trace, result in ((0, e2e), (1, tr)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(names[trace])
        for name, m in result["metrics"].items():
            assert NAME.match(name)
            assert m["unit"] == units[name]
            assert isinstance(m["value"], (int, float))
    for m in e2e["metrics"].values():
        assert m["value"] > 0
    # with no time budget the loop still runs its minimum number of passes
    assert e2e["attempted"] == run.MIN_PASSES * len(cls().ops(cls().build(2, run.NullTracer())))
    trace_doc = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    assert trace_doc["machine"]["nproc"] >= 1 and trace_doc["spans"]


def test_declared_names_are_unique_and_valid():
    entries = DECLARED["workloads"] + DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
