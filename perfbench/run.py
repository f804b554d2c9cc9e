"""Seeded closed-loop benchmark of the ``pogorelov`` package.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 30 --trace 0

One process, one caller: each op starts when the previous one returns.  The
corpus comes from the seed (see ``workloads.py``) and has at least 100 ops.
The ops run in whole passes over it until the next pass would overrun
``--seconds`` of op time, and at least three times.  Latencies are each op's
best over the passes, so the p90 has ten ops beyond it.  Every result is
checked by an oracle off the clock; a rejected or raising op counts as failed
and the run goes on.

Lines starting with ``#`` report the corpus fingerprint and sample counts.
The last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-module
metrics with ``--trace 1``.  A traced run also writes its spans, self times
and tracing overhead to ``perfbench/out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from START)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BATCH = 3
MIN_PASSES = 3

# per-module metric -> (shadow span to total, "op:" span to total per traced
# pass, or "#" counter from the shadow calls), unit
PER_MODULE = {
    "macohomology.component_ms": ("shadow.macohomology.component", "ms"),
    "macohomology.multidegrees": ("#macohomology.multidegrees", "count"),
    "macohomology.pieces": ("#macohomology.pieces", "count"),
    "macohomology.max_piece_dim": ("#macohomology.max_piece_dim", "count"),
    "macohomology.r_differential_ms": ("shadow.macohomology.r_differential", "ms"),
    "macohomology.h3_class_ms": ("shadow.macohomology.h3_class", "ms"),
    "macohomology.cup_product_ms": ("shadow.macohomology.cup_product", "ms"),
    "macohomology.products": ("#macohomology.products", "count"),
    "macohomology.products_nonzero": ("#macohomology.products_nonzero", "count"),
    "complex.reduced_cohomology_ms": ("shadow.complex.reduced_cohomology", "ms"),
    "complex.full_subcomplexes": ("#complex.full_subcomplexes", "count"),
    "intlinalg.kernel_basis_ms": ("shadow.intlinalg.kernel_basis", "ms"),
    "intlinalg.rank_ms": ("shadow.intlinalg.rank", "ms"),
    "intlinalg.matrices": ("#intlinalg.matrices", "count"),
    "intlinalg.max_cells": ("#intlinalg.max_cells", "count"),
    "intlinalg.cells_total": ("#intlinalg.cells_total", "count"),
    "polytope.isomorphisms_ms": ("shadow.polytope.isomorphisms_to", "ms"),
    "polytope.isomorphisms_yielded": ("#polytope.isomorphisms_yielded", "count"),
    "belts.is_pogorelov_ms": ("shadow.belts.is_pogorelov", "ms"),
    "characteristic.enumerate_char_z2_ms": ("op:characteristic.enumerate_char_z2", "ms"),
    "characteristic.colouring_classes_ms": ("op:characteristic.colouring_classes", "ms"),
    "characteristic.pairs_equivalent_ms": ("shadow.characteristic.pairs_equivalent", "ms"),
    "manifolds.qt_ring_ms": ("op:manifolds.qt_ring", "ms"),
    "manifolds.sc_ring_ms": ("op:manifolds.sc_ring", "ms"),
    "manifolds.ring_isomorphic_ms": ("op:manifolds.ring_isomorphic", "ms"),
}
# set-up calls that produce a polytope, for constructions.build_ms
BUILD_SPANS = ("constructions.", "polytope.catalog", "polytope.relabel")


def load_workloads():
    """Import the package from this checkout's ``src`` only."""
    src = ROOT / "src"
    if not (src / "pogorelov").is_dir():
        raise SystemExit("perfbench: no src/pogorelov next to the benchmark; nothing to measure")
    sys.path.insert(0, str(src))
    import workloads
    from pogorelov import polytope

    if not Path(polytope.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: pogorelov imported from {polytope.__file__}, not from {src}")
    return workloads


def run_pass(ops, tracer, first_op_id: int):
    """One pass over ``ops`` by one caller.  Returns each op's latency, the
    oracle's rejections and the results of the pass."""
    env: dict = {}
    latencies, problems = [], []
    for k, op in enumerate(ops):
        tracer.begin_op(first_op_id + k)
        t0 = time.perf_counter()
        try:
            with tracer.span("op." + op.kind):
                result = op.call(tracer, env)
        except Exception as exc:  # a failing op is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            bad = [f"raised {type(exc).__name__}: {exc}"]
        else:
            latencies.append(time.perf_counter() - t0)
            env[op.name] = result
            try:
                bad = op.check(result, env)
            except Exception as exc:  # an oracle that cannot judge rejects
                bad = [f"oracle raised {type(exc).__name__}: {exc}"]
        tracer.begin_op(None)
        if bad:
            problems.append((op.name, bad))
    return latencies, problems, env


def best_latencies(passes) -> list[float]:
    """Each op's best latency across the passes.  Every op is deterministic,
    so a slower repeat only adds load from outside the process; the best of
    several passes spread over the run filters that load out."""
    return [min(samples) for samples in zip(*passes)]


def fingerprint_line(wl, corpus) -> str:
    return json.dumps(wl.fingerprint(corpus), sort_keys=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_problems(problems) -> None:
    for name, bad in problems[:20]:
        print(f"# FAILED op {name}: {'; '.join(bad)}")


def setup_seconds(workload: str, seed: int, repeats: int) -> tuple[list[float], set]:
    """Set-up times of ``repeats`` fresh processes, each timing itself from
    the start of this script through the imports to a built and validated
    corpus; with the set of corpus fingerprints they printed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times, prints = [], set()
    for _ in range(repeats):
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        elapsed, fingerprint = child.stdout.strip().split(" ", 1)
        times.append(float(elapsed))
        prints.add(fingerprint)
    return times, prints


def end_to_end(wl, seed: int, seconds: float) -> dict:
    """Closed-loop passes without tracing.  A batch of fresh set-up
    processes runs before each pass and after the last; ``setup_s`` is the
    median of the batches' best times, so that, like the op latencies, it
    samples the whole run and filters out bursts of load from outside."""
    batch_best, prints = [], set()

    def set_up() -> None:
        times, fingerprints = setup_seconds(wl.name, seed, SETUP_BATCH)
        batch_best.append(min(times))
        prints.update(fingerprints)

    corpus = wl.build(seed, NullTracer())
    ops = wl.ops(corpus)
    passes, problems = [], []
    while True:
        set_up()
        latencies, bad, _ = run_pass(ops, NullTracer(), len(passes) * len(ops))
        passes.append(latencies)
        problems += bad
        if sum(map(sum, passes)) + sum(latencies) > seconds and len(passes) >= MIN_PASSES:
            break
    set_up()
    prints.add(fingerprint_line(wl, corpus))
    consistent = len(prints) == 1
    print(f"# corpus {prints.pop()}" if consistent else f"# corpus differs between set-ups: {prints}")
    report_problems(problems)
    lat = best_latencies(passes)
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = sum(1 for x in lat if x > p90)
    print(f"# ops_per_pass={len(ops)} passes={len(passes)} beyond_p90={beyond}")
    return {
        "correct": not problems and consistent,
        "attempted": len(ops) * len(passes),
        "failed": len(problems),
        "metrics": {
            "wall_s": metric(sum(lat), "s"),
            "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": metric(p90 * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(batch_best), "s"),
        },
    }


def traced(wl, seed: int, seconds: float, out_dir: Path) -> dict:
    build_tracer = Tracer()
    corpus = wl.build(seed, build_tracer)
    fingerprint = wl.fingerprint(corpus)
    print(f"# corpus {json.dumps(fingerprint, sort_keys=True)}")
    ops = wl.ops(corpus)
    # untraced and traced passes alternate, so that drifting load from
    # outside the process falls on both sides of the overhead estimate
    tracer = Tracer()
    plain_passes, passes, problems = [], [], []
    while True:
        for tr, sink in ((NullTracer(), plain_passes), (tracer, passes)):
            latencies, bad, env = run_pass(ops, tr, len(plain_passes + passes) * len(ops))
            sink.append(latencies)
            problems += bad
        last_pair = sum(plain_passes[-1]) + sum(passes[-1])
        if sum(map(sum, plain_passes + passes)) + last_pair > seconds:
            break
    report_problems(problems)
    op_spans = list(tracer.spans)
    counters = wl.shadow(corpus, tracer)
    shadow_spans = tracer.spans[len(op_spans):]

    def total_ms(source: str) -> float:
        if source.startswith("op:"):
            return 1e3 * sum(s.duration for s in op_spans if s.name == source[3:]) / len(passes)
        return 1e3 * sum(s.duration for s in shadow_spans if s.name == source)

    values = {}
    for name, (source, unit) in PER_MODULE.items():
        if source.startswith("#"):
            values[name] = metric(counters.get(source[1:], 0), unit)
        else:
            values[name] = metric(total_ms(source), unit)
    targets = counters.get("macohomology.product_targets", 0)
    values["macohomology.products_per_target"] = metric(
        counters["macohomology.products"] / targets if targets else 0.0, "ratio")
    kinds = {op.name: op.kind for op in ops}
    z2 = [env[n][0] for n, k in kinds.items() if k == "enumerate_char_z2" and n in env]
    values["characteristic.char_functions"] = metric(sum(z2), "count")
    verdicts = [d.isomorphic for n, k in kinds.items() if k == "decide" and n in env for d in env[n]]
    values["manifolds.positive_ratio"] = metric(
        sum(verdicts) / len(verdicts) if verdicts else 0.0, "ratio")
    build_spans = [s for s in build_tracer.spans if s.name.startswith(BUILD_SPANS)]
    values["constructions.build_ms"] = metric(1e3 * sum(s.duration for s in build_spans), "ms")
    values["constructions.polytopes"] = metric(len(build_spans), "count")
    plain = sum(best_latencies(plain_passes))
    values["trace.overhead_pct"] = metric(100 * (sum(best_latencies(passes)) - plain) / plain, "%")
    attempted = len(ops) * (len(passes) + len(plain_passes))
    values["failed_ratio"] = metric(len(problems) / attempted, "ratio")
    path = write_trace(out_dir, wl.name, seed, tracer, fingerprint, values, plain_passes, passes)
    print(f"# trace written to {path}; overhead {values['trace.overhead_pct']['value']:.2f}% "
          f"(nproc={os.cpu_count()}, python {platform.python_version()})")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": values,
    }


def write_trace(out_dir: Path, workload: str, seed: int, tracer, fingerprint, values,
                plain_passes, passes) -> Path:
    """Spans (compact rows: name index, start, end, parent, op), self times
    per span name, the metrics, the overhead and the machine facts."""
    out_dir.mkdir(exist_ok=True)
    names = sorted({s.name for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": workload,
        "seed": seed,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "corpus": fingerprint,
        "overhead": {"untraced_pass_s": [sum(p) for p in plain_passes],
                     "traced_pass_s": [sum(p) for p in passes],
                     "overhead_pct": values["trace.overhead_pct"]["value"]},
        "self_times_ms": {
            name: {"count": row["count"], "total": 1e3 * row["total_s"], "self": 1e3 * row["self_s"]}
            for name, row in tracer.self_times().items()
        },
        "metrics": values,
        "span_names": names,
        "spans": [[index[s.name], s.start, s.end, s.parent, s.op] for s in tracer.spans],
    }
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        corpus = wl.build(args.seed, NullTracer())
        elapsed = time.perf_counter() - START
        print(elapsed, fingerprint_line(wl, corpus))
        return 0
    if args.trace:
        result = traced(wl, args.seed, args.seconds, HERE / "out")
    else:
        result = end_to_end(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
