"""Self-checks of the benchmark: schedule, tracer bindings, layer coverage.

Run from the repository root with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_mix_order_follows_shares_not_pool():
    # a pool heavy in "b" still runs a and b half and half
    items = [("a", k) for k in range(30)] + [("b", k) for k in range(98)]
    order = workloads.mix_order(items, lambda it: it[0], lambda it: it[1],
                                {"a": 0.5, "b": 0.5}, 7)
    assert len(order) == 128
    for start in range(0, 128, 16):
        block = Counter(it[0] for _, it in order[start:start + 16])
        assert block == {"a": 8, "b": 8}
    # inside a stratum, positions spread over its whole key range
    firsts = [it[1] for _, it in order if it[0] == "a"][:4]
    assert sorted(firsts) == [0, 7, 15, 22]


def test_mix_order_lends_missing_stratum_to_nearest():
    items = [("1", 0), ("3", 0)]
    order = workloads.mix_order(items, lambda it: it[0], lambda it: it[1],
                                {"1": 0.25, "2": 0.5, "3": 0.25}, 3)
    assert {it[0] for _, it in order} == {"1", "3"}


def test_mix_weights_do_not_depend_on_where_a_run_stops():
    order = workloads.mix_order(list(range(64)), lambda it: "x",
                                lambda it: it, {"x": 1.0}, 6)
    cost = {it: it * it for it in range(64)}    # steep, like the heavy tail
    exact = sum(cost.values()) / 64
    for stop in (16, 20, 27, 32, 40, 64, 80):
        positions = [order[k % 64][0] for k in range(stop)]
        items = [order[k % 64][1] for k in range(stop)]
        weights = workloads.mix_weights(positions)
        assert abs(sum(weights) - 1) < 1e-9
        estimate = sum(w * cost[it] for w, it in zip(weights, items))
        assert abs(estimate - exact) / exact < 0.06, stop


def test_every_binding_is_wrapped_and_restored():
    import gradalg
    from gradalg import (cli, corpus, embed, envelope, galg, scalars,
                         semisimple)
    originals = {m: (m.verify_hom,) for m in
                 (galg, embed, envelope, semisimple, corpus, cli)}
    tracer = Tracer()
    tracer.install()
    try:
        for module in (galg, embed, envelope, semisimple, corpus, cli,
                       gradalg):
            assert hasattr(module.verify_hom, "__wrapped__"), module
        for module in (corpus, semisimple, cli, embed, gradalg):
            assert hasattr(module.decide, "__wrapped__"), module
            assert hasattr(module.construct, "__wrapped__"), module
        cls = scalars.CyclotomicScalar
        assert cls.__rmul__ is cls.__mul__
        assert cls.__radd__ is cls.__add__
        assert hasattr(cls.__mul__, "__wrapped__")
    finally:
        tracer.uninstall()
    for module, (verify_hom,) in originals.items():
        assert module.verify_hom is verify_hom
    assert not hasattr(scalars.CyclotomicScalar.__mul__, "__wrapped__")


# metrics that must be non-zero on a small traced slice of each workload
MOVES = {
    "corpus-l3": ["linalg.add_row.", "identities.", "galg.mul_basis.calls",
                  "embed.fastpath.self_s"],
    "certify": ["linalg.invert_matrix.", "linalg.rank.calls",
                "galg.verify_hom.", "envelope.", "embed.construct.self_s",
                "semisimple.", "cli."],
    "decide-wide": ["embed.decide.", "cocycles.", "tuples."],
}
EVERYWHERE = ["scalars.", "corpus.generate.self_s", "trace.overhead_ratio"]
# no operation asks twice for one identity space of one presentation, so
# the hit ratio is 0 on every workload until caching changes
MAY_BE_ZERO = ["identities.identity_space.cache_hit_ratio"]
ZERO = {"corpus-l3": [], "certify": ["identities."],
        "decide-wide": ["identities.", "galg.verify_hom."]}


@pytest.mark.parametrize("workload", sorted(MOVES))
def test_traced_slice_covers_its_layers(workload, capsys):
    run.main(["--workload", workload, "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}

    def matching(prefixes):
        return [k for k in metrics if any(k.startswith(p) for p in prefixes)]

    assert not [k for k in matching(MOVES[workload] + EVERYWHERE)
                if not metrics[k] > 0 and k not in MAY_BE_ZERO]
    assert 0 <= metrics[MAY_BE_ZERO[0]] <= 1
    assert not [k for k in matching(ZERO[workload]) if metrics[k] != 0]
    with open(os.path.join(BENCH, "out",
                           f"trace-{workload}-{run.DEFAULT_SEED}.json"),
              encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    names = Counter(s["name"] for s in spans)
    assert names["bench.op"] == run.TRACE_SLICE[workload]
    if workload != "corpus-l3":
        assert not [n for n in names if n.startswith("identities.")]
    if workload == "decide-wide":
        assert names["galg.verify_hom"] == 0


def test_without_engine_sources_exits_nonzero():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_corpus_leaves_two_separators_inconclusive():
    # the 220-instance corpus of the default seed: 2 of its false verdicts
    # find no separator up to length 3
    from gradalg.corpus import generate_corpus, run_instance
    from gradalg.embed import decide
    inconclusive = [
        inst.name for inst in generate_corpus(run.DEFAULT_SEED, 6, 220)
        if not decide(inst.a, inst.b).verdict
        and run_instance(inst, 3)["separator"]["status"]
        == "inconclusive-witness"]
    assert inconclusive == ["i0035", "i0155"]
