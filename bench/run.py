#!/usr/bin/env python3
"""Benchmark for the gradalg engine: one workload per process.

    python3 bench/run.py --workload corpus-l3 --seed 20250809 --seconds 20 --trace 0

The engine is imported from the `src/` of the checkout this file sits in.
The load is a closed loop with one client: each operation is issued after
the previous one returns.  Outputs are checked after the timed loop.
Standard output carries a table of the metrics, then, as its last line, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` times the workload for `--seconds` and reports the end-to-end
metrics.  `--trace 1` runs a fixed slice of the workload twice, untraced and
then traced, reports the per-layer metrics and writes every span and counter
to `bench/out/trace-<workload>-<seed>.json`.

The stratum shares in `bench/mix.json` and the default-seed output digests
in `bench/reference/` are fixed data; `bench/README.md` says how they were
measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
MIX = os.path.join(BENCH, "mix.json")

DEFAULT_SEED = 20250809     # the corpus seed of the ROADMAP

# operations in the traced slice: a block of 16 covers each sixteenth of the
# mix once; a pass of 128 on certify includes the three fixture jobs
TRACE_SLICE = {"corpus-l3": 16, "certify": 128, "decide-wide": 256}


def _load_engine() -> float:
    """Import gradalg from this checkout; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "gradalg", "__init__.py")):
        sys.exit(f"bench: no gradalg package under {SRC}")
    sys.path.insert(0, SRC)
    # the engine runs at its default assignment budget
    os.environ.pop("GRADALG_BUDGET", None)
    t0 = time.perf_counter()
    import gradalg
    import workloads  # noqa: F401  (imports the engine modules it drives)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(gradalg.__file__)) != \
            os.path.join(SRC, "gradalg"):
        sys.exit(f"bench: gradalg was imported from {gradalg.__file__}")
    return elapsed


def _declared(kind) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _shares(name) -> dict:
    with open(MIX, encoding="utf-8") as fh:
        return json.load(fh)[name]["shares"]


class Inputs:
    """A workload's schedule of (mix position, operation), rebuilt on fresh
    inputs when the workload caches on them and a pass is used up."""

    def __init__(self, wl, seed, workdir, pool):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.shares = _shares(wl.name)
        self.schedule = wl.schedule(pool, self.shares)

    def refresh(self):
        pool = self.wl.setup(self.seed, self.workdir)
        self.schedule = self.wl.schedule(pool, self.shares)


class Outcome(NamedTuple):
    op: object
    op_id: str
    t0: float           # perf_counter at issue and at return
    t1: float
    raw: object         # what the operation returned, None if it raised
    error: str | None
    position: float     # the operation's place in the mix, in [0, 1)


def run_ops(wl, inputs, *, seconds=None, count=None, tracer=None):
    """Closed loop until `count` operations ran or `seconds` passed."""
    run = tracer.span("bench.op", wl.run) if tracer else wl.run
    results = []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while True:
        i = len(results)
        if i and i % len(inputs.schedule) == 0 and wl.fresh_inputs_per_pass:
            inputs.refresh()
        position, op = inputs.schedule[i % len(inputs.schedule)]
        op_id = wl.op_id(op)
        if tracer:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            raw, error = run(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        results.append(Outcome(op, op_id, t0, time.perf_counter(), raw, error,
                               position))
        if count is not None and len(results) >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return results


def check_results(wl, results, reference):
    """Check every output after the timed loop.

    Returns the (op_id, output, info) of each result, the (index, op_id,
    reason) of each failure, and the first output digest of each op_id.
    An operation repeated with the same output inherits its first verdict.
    """
    from workloads import digest
    first = {}
    checked, failures = [], []
    for index, r in enumerate(results):
        if r.error is not None:
            checked.append((r.op_id, None, None))
            failures.append((index, r.op_id, r.error))
            continue
        output, info = wl.finish(r.op, r.raw)
        checked.append((r.op_id, output, info))
        d = digest(output)
        if r.op_id in first:
            first_digest, errors = first[r.op_id]
            if first_digest != d:
                errors = ["output differs from an earlier run"]
        else:
            errors = wl.check(r.op, output, info)
            if r.op_id in reference and reference[r.op_id] != d:
                errors.append("output digest differs from the reference")
            first[r.op_id] = (d, errors)
        failures += [(index, r.op_id, e) for e in errors]
    return checked, failures, {k: v[0] for k, v in first.items()}


def _reference(name, seed) -> dict:
    path = os.path.join(BENCH, "reference", f"{name}.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["digests"] if ref["seed"] == seed else {}


def _setup_seeds(seed, pools) -> list[int]:
    """The seeds of the pools set up before the run's own, drawn from it."""
    return [(seed * 1_000_003 + k) % 2**31 for k in range(1, pools)]


def _setup(wl, seed, workdir, speed):
    """Set up the pools of `_setup_seeds`, then the run's own; returns the
    run's pool and the mean set-up time, rescaled by `speed`.

    Set-up cost depends on the pool: generate_corpus decides its rigged
    instances, and a few slow decisions make up most of it, so one seed's
    set-up time can be twice another's.  The mean over `wl.setup_pools`
    pools damps that."""
    times = []
    pool = None
    for s in _setup_seeds(seed, wl.setup_pools) + [seed]:
        pool = None
        shutil.rmtree(workdir)
        os.makedirs(workdir)
        gc.collect()
        t0 = time.perf_counter()
        pool = wl.setup(s, workdir)
        times.append(speed.engine_time(t0, time.perf_counter()))
    return pool, statistics.fmean(times)


def end_to_end(wl, args, import_s, workdir):
    import workloads
    from speed import Speedometer
    with Speedometer() as speed:
        pool, setup_s = _setup(wl, args.seed, workdir, speed)
    inputs = Inputs(wl, args.seed, workdir, pool)
    del pool
    with speed:
        results = run_ops(wl, inputs, seconds=args.seconds)
    checked, failures, _ = check_results(wl, results,
                                         _reference(wl.name, args.seed))
    weights = workloads.mix_weights([r.position for r in results])
    latency = [speed.engine_time(r.t0, r.t1) for r in results]
    wall = [r.t1 - r.t0 for r in results]
    values = {
        "throughput_per_s": 1.0 / sum(w * t for w, t in zip(weights, latency)),
        "setup_s": import_s + setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics = {name: (values[name], unit)
               for name, unit in _declared("end_to_end").items()}
    ms = [t * 1000.0 for t in latency]
    extra = [
        ("latency_ms.p50", statistics.median(ms), "ms"),
        ("latency_ms.p90",
         statistics.quantiles(ms, n=10, method="inclusive")[8]
         if len(ms) > 1 else ms[0], "ms"),
        ("samples", len(results), "count"),
        ("failed_share", len({f[0] for f in failures}) / len(results),
         "ratio"),
        ("wall.throughput_per_s",
         1.0 / sum(w * t for w, t in zip(weights, wall)), "1/s"),
        ("machine_speed", speed.mean_speed(), "ratio"),
    ]
    if wl.name == "corpus-l3":
        extra.append(("separators_inconclusive",
                      sum(1 for _, _, info in checked
                          if info and info["inconclusive"]), "count"))
    return results, failures, metrics, extra


def traced(wl, args, workdir):
    """The first `n` operations, untraced and then traced on fresh inputs;
    tracing overhead is the ratio of their rescaled times."""
    from speed import Speedometer
    from tracer import Tracer
    n = TRACE_SLICE[wl.name]
    inputs = Inputs(wl, args.seed, workdir, wl.setup(args.seed, workdir))
    with Speedometer() as speed:
        plain = run_ops(wl, inputs, count=n)
    del inputs
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        pool = tracer.span("bench.setup", wl.setup)(args.seed, workdir)
    finally:
        tracer.uninstall()
    inputs = Inputs(wl, args.seed, workdir, pool)
    del pool
    tracer.install()
    try:
        with speed:
            traced_results = run_ops(wl, inputs, count=n, tracer=tracer)
    finally:
        tracer.uninstall()

    def engine_s(results):
        return sum(speed.engine_time(r.t0, r.t1) for r in results)

    results = plain + traced_results
    checked, failures, digests = check_results(
        wl, results, _reference(wl.name, args.seed))
    values = tracer.metrics()
    values["cli.report_bytes"] = sum(
        len(out) for _, out, _ in checked[len(plain):] if out is not None
    ) if wl.name == "certify" else 0
    values["trace.overhead_ratio"] = engine_s(traced_results) / engine_s(plain)
    metrics = {name: (values[name], unit)
               for name, unit in _declared("per_layer").items()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "ops": n,
                   "metrics": values, "digests": digests,
                   **tracer.dump()}, fh)
    print(f"bench: spans and counters written to {os.path.relpath(path)}",
          file=sys.stderr)
    return results, failures, metrics, [("samples", n, "count")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus-l3", "certify", "decide-wide"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = _load_engine()
    import workloads
    wl = workloads.make(args.workload, ROOT)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            results, failures, metrics, extra = traced(wl, args, workdir)
        else:
            results, failures, metrics, extra = end_to_end(wl, args, import_s,
                                                           workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for _, op_id, reason in failures[:20]:
        print(f"bench: {args.workload} {op_id} failed: {reason}",
              file=sys.stderr)
    failed = len({f[0] for f in failures})
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit in ([(k, v, u) for k, (v, u) in metrics.items()]
                              + extra):
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
