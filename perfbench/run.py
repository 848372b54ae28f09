"""The repository's benchmark: exploration time, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-first-k --seed 1 --seconds 20 --trace 0

Workloads (why each exists: ``BENCHMARK.json``; layer predictions:
``perfbench/predictions.json``):

* ``paper-first-k`` — paper-scale synth-high, synth-low and sdss on
  in-memory SQLite; each query streams through ``SWEngine.execute_iter``
  and is closed after its first K results.
* ``sdss-complete`` — the sdss canonical query to completion on the
  simulator backend.
* ``serve-mix`` — 8 closed-loop users over two sockets against an
  ``ExplorationServer`` process, budgeted sessions across four tenant tiers.
* ``dist-chaos`` — ``run_distributed`` of synth-high at scale 0.3 over 4
  workers under one fixed recoverable cluster-scale fault plan.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Its
timings are read on a reference clock paced by the host speed sampled
during the run (``hostspeed.py`` says why and how); the raw host-second
metrics go to the result file.
``--trace 1`` runs the same rounds once untraced and once traced
(``tracer.py``) and reports per-layer calls, self seconds and counts, the
share of host time the spans cover, and the tracing overhead.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
(operations whose output was wrong, refused or raised) and ``metrics``.
A full record with provenance goes to ``.perfbench_out/``.

Every workload explores fixed data; the seed orders paper-first-k's
queries and deals serve-mix's submit plan (``suites.py`` says why).  The
held-out seed for validating claims is ``oracle.HELD_OUT_SEED``.  Each workload is
meant to run in its own fresh process, so ``setup_s`` and ``peak_rss_mb``
are never inherited from another workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Rounds per run: ``max(minimum, seconds // nominal)``.  A pure function
#: of the arguments, so every commit does the same work; the nominal round
#: costs are host seconds measured on the commit that defined the benchmark.
ROUNDS = {
    "paper-first-k": (3, 7.0),
    "sdss-complete": (2, 18.0),
    "serve-mix": (16, 1.25),
    "dist-chaos": (3, 7.0),
}
END_TO_END = ("setup_s", "first_result_s", "first_k_s", "half_results_s", "explore_s",
              "session_p50_s", "session_p90_s", "sessions_per_s", "peak_rss_mb")
UNITS = {"sessions_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Host wall-clock benchmark.")
    parser.add_argument("--workload", required=True, choices=(*ROUNDS, "all"),
                        help="one workload, or 'all' (each in its own fresh process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> dict:
    """Where the numbers came from: source identity and host."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    t0 = time.perf_counter()
    sum(i * i for i in range(1_000_000))
    calibration_s = time.perf_counter() - t0
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        # A fixed pure-Python loop: read it beside the metrics to tell a
        # slow host phase (shared machines drift) from a slow program.
        "calibration_s": calibration_s,
    }


class Checker:
    """Compares each session's output with the pinned reference."""

    def __init__(self, workload: str, ref: dict) -> None:
        self.workload = workload
        self.ref = ref

    def record(self, name: str, got: dict) -> tuple[bool, str]:
        """The session's record must equal the pinned one, field by field."""
        want = self.ref[name] if self.workload == "paper-first-k" else self.ref
        for key, value in want.items():
            if got.get(key) != value:
                return False, f"{name}: {key} differs from the pinned reference"
        return True, ""

    def serve(self, spec: dict, keys: list[int], status: dict) -> tuple[bool, str]:
        """A session's windows must qualify; all must come unless budget-cut."""
        full = self.ref[spec["label"]]
        if status["state"] != "done":
            return False, f"state {status['state']}"
        if len(set(keys)) != len(keys) or not set(keys) <= set(full):
            return False, "returned a window the oracle does not qualify"
        cut = status["interrupted"]
        if cut and status["interrupt_reason"] != "step_budget":
            return False, f"interrupted: {status['interrupt_reason']}"
        if not cut and sorted(keys) != full:
            return False, "finished without every qualifying window"
        if status["steps"] > spec["step_budget"]:
            return False, "ran past its step budget"
        return True, ""


def run_rounds(workload: str, seed: int, count: int, checker: Checker):
    import suites

    if workload == "paper-first-k":
        return [suites.paper_round(order, checker.record)
                for order in suites.paper_orders(seed, count)]
    if workload == "sdss-complete":
        return [suites.sdss_round(checker.record) for _ in range(count)]
    if workload == "dist-chaos":
        return [suites.dist_round(checker.record) for _ in range(count)]
    raise ValueError(workload)


def measure(workload: str, seed: int, count: int, checker: Checker):
    """``count`` untraced rounds; returns ``(rounds, extra)``."""
    import suites

    if workload == "serve-mix":
        plan = suites.serve_plan(seed, count)
        return suites.serve_round_set(plan, checker.serve)
    return run_rounds(workload, seed, count, checker), {}


def measure_traced(workload: str, seed: int, count: int, checker: Checker, span_path: Path):
    """``count`` untraced and ``count`` traced rounds, alternating.

    serve-mix runs the same plan on an untraced server, then on a traced
    one.  Returns ``(plain, traced, extra, spans, counts, search, missing)``.
    """
    import suites
    from tracer import Spans, Tracer

    if workload == "serve-mix":
        plan = suites.serve_plan(seed, count)
        plain, _ = suites.serve_round_set(plan, checker.serve)
        traced, extra = suites.serve_round_set(plan, checker.serve, trace_path=span_path)
        child = extra["child"]
        return (plain, traced, extra, Spans.load(span_path), child["counts"], child["search"],
                child["missing"])
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(count):
        plain += run_rounds(workload, seed, 1, checker)
        tracer.install()
        try:
            traced += run_rounds(workload, seed, 1, checker)
        finally:
            tracer.uninstall()
    spans = tracer.spans()
    spans.save(span_path)
    return plain, traced, {}, spans, tracer.counts, tracer.search_totals(), tracer.missing


def peak_rss_mb(workload: str, extra: dict) -> float:
    if workload == "serve-mix":
        return extra["child"]["peak_rss_kb"] / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans, counts: dict, search: dict, rounds, extra: dict,
                  untraced_wall: float, traced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics (flat, named ``<layer>.<what>``) and the raw tables."""
    from tracer import LAYERS

    table = spans.layer_table()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        row = table[layer]
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.us_per_call"] = (row["us_per_call"], "us")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    detail = [r.detail for r in rounds]
    blocks = sum(d.get("blocks_read", 0) for d in detail)
    hits = sum(d.get("buffer_hits", 0) for d in detail)
    misses = sum(d.get("buffer_misses", 0) for d in detail)
    metrics["storage.blocks_read"] = (blocks, "count")
    metrics["storage.buffer_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    count = counts.get
    metrics["storage.backend_calls"] = (count("storage.backend_calls", 0), "count")
    metrics["storage.blocks_touched"] = (count("storage.blocks_touched", 0), "count")
    for key, value in search.items():
        metrics[f"core.search.{key}"] = (value, "count")
    metrics["core.pqueue.mean_len_at_peek"] = (
        ratio(count("core.pqueue.len_at_peek_sum", 0), count("core.pqueue.peeks", 0)), "count")
    metrics["core.datamanager.cells_per_read"] = (
        ratio(count("core.datamanager.cells_read", 0), count("core.datamanager.reads", 0)),
        "count")
    counter = extra.get("stats", {}).get("counters", {}).get
    gauges = extra.get("stats", {}).get("gauges", {})
    metrics["serve.scheduler.slices"] = (counter("serve.slices", 0), "count")
    metrics["serve.scheduler.preemptions"] = (counter("serve.preemptions", 0), "count")
    metrics["serve.manager.max_wait_depth"] = (gauges.get("serve.wait_depth", 0), "count")
    metrics["serve.cache.hit_ratio"] = (
        ratio(counter("serve.cache.hit_cells", 0), counter("serve.cache.lookup_cells", 0)),
        "ratio")
    metrics["serve.cache.evicted_cells"] = (counter("serve.cache.evicted_cells", 0), "count")
    acct = extra.get("loadgen", {})
    for key in ("attempted", "completed", "rejected", "throttled"):
        metrics[f"loadgen.{key}"] = (acct.get(key, 0), "count")
    metrics["loadgen.poll_wait_s"] = (acct.get("poll_wait_s", 0.0), "s")
    metrics["distributed.messages"] = (sum(d.get("messages", 0) for d in detail), "count")
    metrics["distributed.retries"] = (sum(d.get("retries", 0) for d in detail), "count")
    metrics["distributed.cells_reassigned"] = (
        sum(d.get("cells_reassigned", 0) for d in detail), "count")
    covered = spans.covered_s()
    metrics["trace.covered_share"] = (ratio(covered, traced_wall), "ratio")
    metrics["trace.overhead"] = (ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics, {"layers": table, "functions": spans.function_table()}


def host_seconds(rounds) -> float:
    """Host seconds of rounds, set-up included."""
    return sum(sum(r.setup_s) + r.wall_s for r in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oracle
    import suites
    from hostspeed import HostProbe, ReferenceClock

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checker = Checker(args.workload, oracle.pinned(args.workload))
    minimum, nominal = ROUNDS[args.workload]
    count = max(minimum, int(args.seconds // nominal))
    if args.workload == "serve-mix":
        count -= count % suites.SERVE_USERS  # whole rotations of the deal

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": count,
              "provenance": provenance()}
    if args.trace:
        span_path = OUT / f"{stem}-spans.npz"
        plain, traced, extra, spans, counts, search, missing = measure_traced(
            args.workload, args.seed, count, checker, span_path)
        all_rounds = plain + traced
        untraced_wall, traced_wall = host_seconds(plain), host_seconds(traced)
        metrics, tables = layer_metrics(spans, counts, search, traced, extra,
                                        untraced_wall, traced_wall)
        result.update(tables, missing_targets=missing, spans_file=span_path.name,
                      untraced_wall_s=untraced_wall, traced_wall_s=traced_wall)
        print_layers(args.workload, metrics, tables["layers"], missing)
    else:
        # serve-mix's servers do its work, and probe themselves.
        in_process = args.workload != "serve-mix"
        probe = HostProbe()
        if in_process:
            probe.start()
        try:
            all_rounds, extra = measure(args.workload, args.seed, count, checker)
        finally:
            if in_process:
                probe.stop()
        pairs = probe.pairs() if in_process else extra["probe"]
        clock = ReferenceClock(pairs)
        retimed = [r.retimed(clock) for r in all_rounds]
        values = suites.session_metrics(retimed)
        values["peak_rss_mb"] = peak_rss_mb(args.workload, extra)
        metrics = {name: (values[name], UNITS.get(name, "s")) for name in END_TO_END}
        result.update(host_metrics=suites.session_metrics(all_rounds),
                      mean_slowness=clock.mean_slowness, probe_samples=len(pairs),
                      reference_wall_s=[r.wall_s for r in retimed])
        print_end_to_end(args.workload, metrics, clock.mean_slowness)
    sessions = [s for r in all_rounds for s in r.sessions]
    failed = [s for s in sessions if not s.ok]
    for s in failed[:10]:
        print(f"FAILED: {s.note}")
    if extra.get("loadgen"):
        result["loadgen"] = extra["loadgen"]
        print("load generator: " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float)
                                             else f"{k} {v}"
                                             for k, v in extra["loadgen"].items()))
    line = {
        "correct": not failed and bool(sessions),
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    result.update(line, failed_ratio=len(failed) / max(1, len(sessions)),
                  round_detail=[{"setup_s": r.setup_s, "wall_s": r.wall_s,
                                 "sessions": len(r.sessions), **r.detail}
                                for r in all_rounds])
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=float) + "\n")
    print(f"failed_ratio {result['failed_ratio']:.4g} ({len(failed)}/{len(sessions)})")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; one summary line per workload."""
    summary = {}
    for workload in ROUNDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def print_end_to_end(workload: str, metrics: dict, slowness: float) -> None:
    print(f"== {workload}: end-to-end (no tracing; timings in reference seconds,"
          f" host slowness {slowness:.3f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {unit}")


def print_layers(workload: str, metrics: dict, layers: dict, missing: list) -> None:
    roles = predicted_roles(workload)
    print(f"== {workload}: per layer (traced run)")
    print(f"  {'layer':<18} {'calls':>9} {'self s':>9} {'us/call':>10}  predicted")
    for layer, row in layers.items():
        print(f"  {layer:<18} {row['calls']:>9d} {row['self_s']:>9.3f} "
              f"{row['us_per_call']:>10.1f}  {roles.get(layer, '-')}")
    print(f"  covered share of host time {metrics['trace.covered_share'][0]:.3f}, "
          f"tracing overhead {metrics['trace.overhead'][0]:+.3f}")
    for label in missing:
        print(f"  not wrapped (missing): {label}")


def predicted_roles(workload: str) -> dict[str, str]:
    """``moves <metrics>`` or ``flat`` per layer, from predictions.json."""
    doc = json.loads((HERE / "predictions.json").read_text())
    roles = {}
    for row in doc["layers"]:
        if workload in row["on"]:
            roles[row["layer"]] = "moves " + ",".join(row["should_move"])
        elif workload in row["flat_on"]:
            roles[row["layer"]] = "flat"
    return roles


if __name__ == "__main__":
    sys.exit(main())
