"""The serve-mix server process: an ``ExplorationServer`` on an ephemeral port.

Prints ``PORT <n>`` once listening, serves until a client sends the
``shutdown`` op, then prints one JSON line with its peak resident set
(with ``--probe``, also its host-speed samples, ``hostspeed.py``; with
``--trace PATH``, it writes its spans to ``PATH`` first).  Run from the
repository root: ``python3 perfbench/serve_child.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def config():
    from repro.serve import ServeConfig, TenantQuota

    return ServeConfig(
        host="127.0.0.1",
        port=0,
        max_live=4,
        queue_limit=64,
        slice_steps=16,
        policy="wfq",
        quotas={tier: TenantQuota(tier=tier) for tier in ("free", "standard", "premium")},
    )


async def serve() -> None:
    from repro.serve import ExplorationServer

    server = ExplorationServer(config())
    _, port = await server.start()
    print(f"PORT {port}", flush=True)
    await server.serve_until_stopped()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, default=None, help="write spans here")
    parser.add_argument("--probe", action="store_true",
                        help="sample host speed (hostspeed.py) and report the samples")
    args = parser.parse_args()
    probe = tracer = None
    if args.probe:
        from hostspeed import HostProbe

        probe = HostProbe()
        probe.start()
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    asyncio.run(serve())
    report = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if probe is not None:
        probe.stop()
        report["probe"] = probe.pairs()
    if tracer is not None:
        tracer.uninstall()
        tracer.spans().save(args.trace)
        report.update(trace=str(args.trace), counts=dict(tracer.counts),
                      search=tracer.search_totals(), missing=tracer.missing)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
