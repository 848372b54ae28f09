"""Pinned reference outputs per workload, each cross-checked by an oracle.

Every workload explores fixed data (``suites.FIXED_DATA_SEED``), so
``expected.json`` pins one record per workload: what the program must
output on every run and seed.  Each record was cross-checked, when
pinned, against an oracle that shares no search code with the run it
checks:

* ``paper-first-k`` — the same queries on the simulator backend (the run
  itself is on SQLite): first K keys, simulated time of the K-th result
  and windows explored must be identical.
* ``sdss-complete`` — ``repro.dbms`` full enumeration gives the result
  set; the record also carries the run's simulated completion time and
  windows explored.
* ``dist-chaos`` — the fault-free distributed run and ``repro.dbms`` full
  enumeration both give the result set; the chaos run must equal it with
  outcome ``complete``.
* ``serve-mix`` — ``repro.dbms`` full enumeration of every dataset the
  mix submits; a session's results must be a subset, and all of it when
  the session was not cut by its step budget.

Re-pin after a change that is meant to alter outputs (from the
repository root)::

    python3 perfbench/oracle.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("paper-first-k", "sdss-complete", "serve-mix", "dist-chaos")
#: Never used while tuning a change; validate claims on it.
HELD_OUT_SEED = 1000


def pinned(workload: str) -> dict:
    """The pinned reference record of ``workload``."""
    return json.loads(EXPECTED.read_text())[workload]


def dbms_keys(workload: str, scale: float, seed: int) -> list[int]:
    """Full-enumeration result set of a bundled workload's canonical query."""
    from repro.dbms import run_sql_baseline
    from repro.workloads import load_workload, make_database

    dataset, query = load_workload(workload, scale, seed)
    report = run_sql_baseline(make_database(dataset, "cluster"), dataset.name, query)
    shape = query.grid.shape
    return sorted(r.window.key(shape) for r in report.results)


def compute(workload: str) -> dict:
    """Run the program once, cross-check it with the oracle, return the record."""
    import suites
    from repro.core import SWEngine
    from repro.workloads import load_workload, make_database

    seed = suites.FIXED_DATA_SEED
    if workload == "paper-first-k":
        ref = {}
        for name in suites.PAPER_QUERIES:
            dataset, query = load_workload(name, suites.PAPER_SCALE, seed)
            engine = SWEngine(make_database(dataset, "cluster"), dataset.name)
            ref[name], _ = suites.first_k_record(engine, query)
        setups = suites.paper_setup()
        for name, query, _, engine in setups:
            record, _ = suites.first_k_record(engine, query)
            _agree(workload, f"{name} on sqlite vs simulator", record, ref[name])
        suites.paper_close(setups)
        return ref
    if workload == "sdss-complete":
        query, engine = suites.sdss_setup()
        record, _ = suites.complete_record(engine, query)
        _agree(workload, "result set", record["keys"], dbms_keys("sdss", suites.SDSS_SCALE, seed))
        return record
    if workload == "dist-chaos":
        import repro.distributed as dist

        keys = dbms_keys("synth-high", suites.DIST_SCALE, seed)
        dataset, query, config = suites.dist_setup()
        clean = dist.run_distributed(dataset, query, dataclasses.replace(config, faults=None))
        shape = query.grid.shape
        _agree(workload, "fault-free result set",
               sorted(r.window.key(shape) for r in clean.results), keys)
        record, _ = suites.dist_record(dataset, query, config)
        _agree(workload, "chaos result set", record["keys"], keys)
        _agree(workload, "outcome", record["outcome"], "complete")
        return record
    if workload == "serve-mix":
        return {label: dbms_keys(*spec) for label, spec in suites.serve_datasets().items()}
    raise ValueError(f"unknown workload {workload!r}")


def _agree(workload: str, what: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"{workload}: {what} disagrees with the oracle")


def main() -> int:
    parser = argparse.ArgumentParser(description="Cross-check and pin reference outputs.")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        doc = json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        doc = {}
    for workload in args.workload or WORKLOADS:
        doc[workload] = compute(workload)
        print(f"{workload}: pinned", file=sys.stderr, flush=True)
    tmp = EXPECTED.with_suffix(".tmp")
    tmp.write_text(json.dumps(dict(sorted(doc.items())), separators=(",", ":")) + "\n")
    tmp.replace(EXPECTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
