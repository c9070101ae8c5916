#!/usr/bin/env python3
"""Benchmark for szegedtools: end-to-end and per-module costs.

Run from the repository root:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --out BENCH_baseline.json

One process, one thread, ``workers=1``.  A run builds its inputs from
``--seed``, then repeats a fixed pass of operations until ``--seconds``
would be exceeded (at least two passes) and checks every output.  With
``--trace 0`` it prints the end-to-end metrics named in ``BENCHMARK.json``,
timing each op at a fixed reference speed (see ``pace.py``);
with ``--trace 1`` it alternates untraced passes with passes in which the
library's public functions are wrapped in spans (see ``spans.py``), and
prints the per-module metrics and the tracing overhead.  ``--workload all`` runs
every workload in fresh processes, untraced and traced, one report each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (seed, core count, Python version, why the workload was
chosen, and the detail behind each metric).  Exit status: 0 when every
output is correct, 1 when one is wrong, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exhaustive", "index_large", "audit_stream")
MIN_PASSES = 2
SHORT_OP_S = 0.01
MAX_REPEATS = 20
SETUP_PROBES = 11
# op_tail_ms is the highest whole percentile with at least this many ops
# above it; it is left out where that percentile would not pass the median.
TAIL_BEYOND = 10


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_library():
    if not (SRC / "szegedtools" / "__init__.py").is_file():
        _die(f"no szegedtools sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import szegedtools

    if Path(szegedtools.__file__).resolve().parent != SRC / "szegedtools":
        _die(f"imported szegedtools from {szegedtools.__file__}, not from {SRC}")
    import workloads

    return workloads


def _build(workloads, name: str, seed: int):
    rng = random.Random(seed)
    frozen = workloads.load_frozen()
    tally = workloads.AuditTally()
    if name == "exhaustive":
        ops = workloads.exhaustive_ops(rng, frozen)
    elif name == "index_large":
        ops = workloads.index_ops(rng, frozen)
    else:
        ops = workloads.audit_ops(rng, frozen, tally)
    return ops, tally, frozen


def _run_pass(ops, workloads, tracer=None, pacer=None) -> dict:
    """One pass over ``ops``.  With a pacer (untraced passes), an op shorter
    than ``SHORT_OP_S`` runs again, each time from a fresh ``prepare``,
    until it has used that long or run ``MAX_REPEATS`` times, so that the
    ops around the median get enough samples; ``times`` keeps each op's
    first raw time and ``scaled`` all its samples at reference speed.  An
    op counts as one attempt however often it ran, and as failed if any of
    its runs failed, so that the fail ratio does not depend on speed."""
    gc.collect()
    times, scaled, failed, wrong = [], [], 0, []
    for op in ops:
        first, samples, ok = None, [], True
        while True:
            arg = op.prepare()
            mark = pacer.start() if pacer else 0
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call(arg)
                else:
                    with tracer.span(f"op.{op.kind}"):
                        out = op.call(arg)
            except Exception as exc:  # an op's failure is a result, not a crash
                out = exc
            raw = time.perf_counter() - start
            if pacer:
                samples.append(pacer.scale(raw, mark, len(pacer.probes)))
            if first is None:
                first = raw
            try:
                status = op.check(out)
            except Exception:  # an output too malformed to check is wrong
                status = workloads.WRONG
            ok = ok and status == workloads.OK
            if status == workloads.WRONG:
                wrong.append(f"{op.kind}: {out!r}"[:200])
            if not pacer or len(samples) >= MAX_REPEATS or sum(samples) >= SHORT_OP_S:
                break
        times.append(first)
        scaled.append(samples)
        failed += not ok
    return {"times": times, "scaled": scaled, "wall": sum(times), "failed": failed,
            "wrong": wrong}


def _measure(one_pass, seconds: float, min_passes: int) -> list[dict]:
    passes, durations = [], []
    while True:
        start = time.perf_counter()
        passes.append(one_pass())
        durations.append(time.perf_counter() - start)
        if len(passes) >= min_passes and sum(durations) + statistics.median(durations) > seconds:
            return passes


def _setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import the library and build the
    inputs, up to the first timed op: raw, and at reference speed by the
    probes each interpreter ran while it worked."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        raw.append(time.perf_counter() - start)
        probes = json.loads(proc.stdout)
        scaled.append((raw[-1] - probes["total_s"]) * pace.REFERENCE_S / probes["mean_s"])
    return raw, scaled


def _setup_only(args) -> int:
    with pace.Pacer() as pacer:
        pacer.start()
        workloads = _load_library()
        ops, _, _ = _build(workloads, args.workload, args.seed)
        ops[0].prepare()
    print(json.dumps({"total_s": sum(pacer.probes),
                      "mean_s": statistics.fmean(pacer.probes)}))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _end_to_end(name, seed, ops, passes, pacer, record) -> dict:
    setup_raw, setup = _setup_seconds(name, seed)
    typical = [statistics.median(x for samples in per_op for x in samples)
               for per_op in zip(*(p["scaled"] for p in passes))]
    wall = sum(typical)
    record.update(
        setup_samples_s=setup,
        setup_raw_samples_s=setup_raw,
        pass_walls_s=[p["wall"] for p in passes],
        scaled_pass_walls_s=[sum(samples[0] for samples in p["scaled"]) for p in passes],
        probes=len(pacer.probes),
        probe_quartiles_s=statistics.quantiles(pacer.probes, n=4),
    )
    tail_p = int(100 * (1 - TAIL_BEYOND / len(typical)))
    if tail_p > 50:
        tail = statistics.quantiles(typical, n=100, method="inclusive")[tail_p - 1]
        record.update(op_tail_ms=1e3 * tail, tail_percentile=tail_p,
                      tail_beyond=sum(t > tail for t in typical))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced_pass(ops, workloads, tracer) -> dict:
    tracer.install()
    try:
        return _run_pass(ops, workloads, tracer)
    finally:
        tracer.uninstall()


def _fastest(passes) -> list[float]:
    """Each op's fastest raw time over the passes.

    Every pass repeats the same work on the same inputs, so an op's slower
    repeats differ from its fastest only by load from other processes on
    the machine; tracing overhead is the difference of these minima.
    """
    return [min(times) for times in zip(*(p["times"] for p in passes))]


def _per_layer(name, ops, tally, frozen, workloads, untraced, traced, tracer, record) -> dict:
    import spans

    npass = len(traced)
    rows = tracer.summary()
    values = {}
    for mod, names in list(spans.TRACED.items()) + list(spans.COUNTED.items()):
        for fn in names:
            row = rows.get(f"{mod}.{fn}", {"calls": 0, "self_s": 0.0, "fail": 0})
            for stat in ("calls", "self_s", "fail"):
                values[f"{mod}.{fn}.{stat}"] = row[stat] / npass
    graphs = sum(op.graphs for op in ops)
    for key in ("graphs.cactus_profile", "formats.emit_graph6"):
        values[f"{key}.calls_per_graph"] = values[f"{key}.calls"] / graphs if graphs else 0.0
    values["enumeration.labeled_per_class"] = (
        workloads.labeled_per_class(frozen) if name == "exhaustive" else 0.0
    )
    for claim, audits in tally.audits.items():
        applicable = tally.applicable[claim]
        values[f"verify.{claim}.applicable_ratio"] = applicable / audits if audits else 0.0
        values[f"verify.{claim}.in_domain_ratio"] = (
            tally.in_domain[claim] / applicable if applicable else 0.0
        )
    op_self = sum(r["self_s"] for k, r in rows.items() if k.startswith("op."))
    module_self = sum(r["self_s"] for k, r in rows.items() if not k.startswith("op."))
    # Means, like the self times, so that module_self_s + unattributed_s
    # adds up to wall_s.
    traced_wall = statistics.fmean(p["wall"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = sum(_fastest(traced)) - sum(_fastest(untraced))
    values["trace.module_self_s"] = module_self / npass
    values["trace.unattributed_s"] = op_self / npass
    record.update(
        untraced_walls_s=[p["wall"] for p in untraced],
        traced_walls_s=[p["wall"] for p in traced],
        graphs_per_pass=graphs,
        audit_tally={
            "audits": tally.audits,
            "applicable": tally.applicable,
            "in_domain": tally.in_domain,
        },
    )
    return values


def run_one(args) -> int:
    if args.setup_only:
        return _setup_only(args)
    workloads = _load_library()
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ops, tally, frozen = _build(workloads, args.workload, args.seed)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ops_per_pass": len(ops),
    }
    if args.trace:
        import spans

        # Untraced and traced passes alternate, so that drift in the
        # machine's speed does not show up as tracing overhead.
        tracer = spans.Tracer()

        def pair():
            untraced = _run_pass(ops, workloads)
            traced = _traced_pass(ops, workloads, tracer)
            return {"wall": untraced["wall"] + traced["wall"], "pair": (untraced, traced)}

        pairs = [p["pair"] for p in _measure(pair, args.seconds, 2)]
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        passes = untraced + traced
        values = _per_layer(args.workload, ops, tally, frozen, workloads,
                            untraced, traced, tracer, record)
    else:
        with pace.Pacer() as pacer:
            passes = _measure(lambda: _run_pass(ops, workloads, pacer=pacer),
                              args.seconds, MIN_PASSES)
        values = _end_to_end(args.workload, args.seed, ops, passes, pacer, record)
    attempted = len(ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    missing = sorted(set(declared) - set(values))
    if missing:
        _die(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    record.update(passes=len(passes), attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, wrong=wrong[:20], metrics=metrics)
    _print_human(record)
    print("record: " + json.dumps(record, sort_keys=True))
    if args.out:
        saved = dict(record, spans=tracer.spans) if args.trace else record
        Path(args.out).write_text(json.dumps(saved, sort_keys=True) + "\n")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not wrong else 1


def _print_human(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"nproc {record['nproc']}  python {record['python']}  passes {record['passes']}  "
        f"ops/pass {record['ops_per_pass']}"
    )
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, at reference speed",
        "wall_s": "sum over ops of each op's median sample, at reference speed",
        "op_p50_ms": "median over ops of each op's median sample, at reference speed",
    }
    for key, metric in record["metrics"].items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:42s} {metric['value']:14.6g} {metric['unit']}{note}")
    if "op_tail_ms" in record:
        print(f"  {'op_tail_ms':42s} {record['op_tail_ms']:14.6g} ms  "
              f"(p{record['tail_percentile']} of {record['ops_per_pass']} ops, "
              f"{record['tail_beyond']} above it)")
    print(f"  {'fail_ratio':42s} {record['fail_ratio']:14.6g}  "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for line in record["wrong"]:
        print(f"  WRONG {line}")


def run_all(args) -> int:
    """Every workload in fresh processes, untraced then traced; echoes each
    run's report and writes all run records to ``--out``."""
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
            status = max(status, proc.returncode)
            records = [line for line in lines if line.startswith("record: ")]
            if proc.returncode not in (0, 1) or not records:
                print(f"bench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return max(status, 2)
            results[f"{name}/trace{trace}"] = json.loads(records[-1][len("record: "):])
    if args.out:
        Path(args.out).write_text(json.dumps(results, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="also write the run record, and with --trace 1 every span, to this file"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
