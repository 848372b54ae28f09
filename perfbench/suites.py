"""The four benchmark workloads: set-up, one timed round, output check.

Every workload is a list of *rounds*.  A round is a fixed, seeded set of
*sessions* (one user-visible operation each: a query stream, a socket
session, a distributed run).  A session records host ``perf_counter``
stamps: ``submit``, one per qualifying window as it reaches the caller,
and ``done``.  The number of rounds is a pure function of the workload
and ``--seconds`` (never of measured speed), so two commits always do
the same work and a faster program cannot inflate its own memory peak.

Outputs are checked per session against the pinned reference (``oracle.py``);
a wrong output, a non-``complete`` outcome, a protocol error or a refused
session marks the session failed.  Nothing is skipped.
"""

from __future__ import annotations

import asyncio
import json
import math
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Every workload explores the same data on every run.  The seed orders
#: paper-first-k's queries and deals serve-mix's submit plan; it changes
#: no data, because the time to the first answers moves up to 3x between
#: data seeds (0.15-0.53 s to the first sdss result, 2-vCPU x86-64), far more
#: than any bound on the spread between runs of different seeds.
FIXED_DATA_SEED = 101
#: paper-first-k: results the user waits for before moving on.
K = 10
PAPER_QUERIES = ("synth-high", "synth-low", "sdss")
PAPER_SCALE = 1.0
#: sdss-complete: the smallest sdss grid (56 x 22 cells; every scale
#: below ~0.24 builds this same grid), run to completion.
SDSS_SCALE = 0.2
#: dist-chaos: one fixed recoverable cluster-scale fault plan, its crash
#: storm at a third of the fault-free run's 0.35 simulated seconds.  A
#: round is three identical runs, so the sub-second time to the first
#: results is a sum of three and steadier between runs.
DIST_SCALE = 0.3
DIST_WORKERS = 4
DIST_RUNS_PER_ROUND = 3
CHAOS_SEED = 7
CHAOS_CRASH_AT_S = 0.12
#: serve-mix load shape.
SERVE_USERS = 8
SERVE_CONNECTIONS = 2
SERVE_POLL_S = 0.01
SERVE_TIMEOUT_S = 150
SERVE_TENANTS = ("free", "free", "standard", "standard", "premium", "premium",
                 "default", "default")
#: Every round submits these eight (dataset, step budget) slots, one per
#: user; ``own`` is the user's own dataset.  The seed deals the slots to
#: the users and each round rotates the deal by one user, so a run of whole
#: rotations submits every slot from every user (tenant) equally often:
#: the same work on every seed, in a seed-dealt order.  A random deal per
#: round moved ``first_result_s`` by a sixth between seeds.  stocks (45
#: steps) completes under any budget, so every round also checks one
#: session's result set for completeness.
SERVE_SLOTS = (("shared-synth-low", 200), ("shared-synth-low", 300),
               ("shared-synth-high", 200), ("shared-synth-high", 300),
               ("shared-sdss", 400), ("shared-stocks", 500), ("own", 800), ("own", 1500))


@dataclass
class Session:
    """Host-time stamps of one user-visible operation."""

    submit: float
    results: list[float] = field(default_factory=list)
    done: float = 0.0
    ok: bool = True
    note: str = ""

    def at(self, index: int) -> float:
        """Seconds from submit to the ``index``-th result (1-based), or done."""
        if not self.results:
            return self.done - self.submit
        return self.results[min(index, len(self.results)) - 1] - self.submit

    @property
    def latency(self) -> float:
        return self.done - self.submit

    def retimed(self, clock) -> "Session":
        """The same session with every stamp mapped through ``clock``."""
        return Session(clock(self.submit), [clock(t) for t in self.results], clock(self.done),
                       self.ok, self.note)


@dataclass
class Round:
    """One timed round: its set-up spans, timed span and sessions (host stamps)."""

    setup: list[tuple[float, float]]
    span: tuple[float, float]
    sessions: list[Session]
    detail: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> list[float]:
        return [end - start for start, end in self.setup]

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    def retimed(self, clock) -> "Round":
        """The same round with every stamp mapped through ``clock``."""
        return Round([(clock(a), clock(b)) for a, b in self.setup],
                     (clock(self.span[0]), clock(self.span[1])),
                     [s.retimed(clock) for s in self.sessions], self.detail)


def session_metrics(rounds: list[Round]) -> dict[str, float]:
    """The end-to-end metrics of a run from its rounds.

    A per-session time is summed over a round's sessions and averaged
    over the run's rounds: every run does the same rounds (serve-mix: whole
    rotations of one deal), so the mean compares like with like, and it
    is steadier than the median of a few structured rounds.
    """
    sessions = [s for r in rounds for s in r.sessions]

    def per_round(fn) -> float:
        return statistics.fmean(sum(fn(s) for s in r.sessions) for r in rounds)

    latencies = np.array([s.latency for s in sessions])
    return {
        "setup_s": statistics.median(x for r in rounds for x in r.setup_s),
        "first_result_s": per_round(lambda s: s.at(1)),
        "first_k_s": per_round(lambda s: s.at(K)),
        "half_results_s": per_round(lambda s: s.at(max(1, math.ceil(len(s.results) / 2)))),
        "explore_s": per_round(lambda s: s.latency),
        "session_p50_s": float(np.percentile(latencies, 50)),
        "session_p90_s": float(np.percentile(latencies, 90)),
        "sessions_per_s": len(sessions) / sum(r.wall_s for r in rounds),
    }


def _repro():
    """Import the program lazily, after ``run.py`` has put it on the path."""
    import repro.core
    import repro.workloads

    return repro


# -- paper-first-k ---------------------------------------------------------------


def paper_orders(seed: int, rounds: int) -> list[list[str]]:
    """The order the user asks the three canonical queries in, per round."""
    rng = np.random.default_rng([seed, 3])
    return [[PAPER_QUERIES[i] for i in rng.permutation(len(PAPER_QUERIES))]
            for _ in range(rounds)]


def paper_setup(order=PAPER_QUERIES):
    """Paper-scale datasets on in-memory SQLite, one engine each."""
    repro = _repro()
    from repro.storage.backend import backend_from_url

    setups = []
    for name in order:
        dataset, query = repro.workloads.load_workload(name, PAPER_SCALE, FIXED_DATA_SEED)
        db = repro.workloads.make_database(dataset, "cluster", backend=backend_from_url("sqlite"))
        setups.append((name, query, db, repro.core.SWEngine(db, dataset.name)))
    return setups


def paper_close(setups) -> None:
    for _, _, db, _ in setups:
        db.backend.close()


def first_k_record(engine, query, stamps: list[float] | None = None) -> tuple[dict, object]:
    """Stream a query, stop after K results; the pinned output record."""
    stream = engine.execute_iter(query)
    keys, kth = [], None
    shape = query.grid.shape
    for result in stream:
        if stamps is not None:
            stamps.append(time.perf_counter())
        keys.append(result.window.key(shape))
        kth = result.time
        if len(keys) == K:
            break
    stream.close()
    report = stream.report()
    record = {"first_k": sorted(keys), "kth_sim_s": kth,
              "explored": stream.search.stats.explored}
    return record, report


def timed_session(name: str, operation, check) -> tuple[Session, object]:
    """Run ``operation(stamps) -> (record, report)`` as one checked session.

    An operation that raises is a failed session (with its traceback in
    the note), not a crashed benchmark: the other sessions still count.
    """
    session = Session(submit=time.perf_counter())
    try:
        record, report = operation(session.results)
    except Exception:
        session.done = time.perf_counter()
        session.ok, session.note = False, f"{name}: {traceback.format_exc(limit=-3)}"
        return session, None
    session.done = time.perf_counter()
    session.ok, session.note = check(name, record)
    return session, report


def _io_detail(reports) -> dict:
    reports = [r for r in reports if r is not None]
    return {"blocks_read": sum(r.disk_stats["blocks_read"] for r in reports),
            "buffer_hits": sum(r.buffer_hits for r in reports),
            "buffer_misses": sum(r.buffer_misses for r in reports)}


def paper_round(order: list[str], check) -> Round:
    t0 = time.perf_counter()
    setups = paper_setup(order)
    setup = (t0, time.perf_counter())
    sessions, reports = [], []
    wall0 = time.perf_counter()
    for name, query, _, engine in setups:
        session, report = timed_session(
            name, lambda stamps: first_k_record(engine, query, stamps), check)
        sessions.append(session)
        reports.append(report)
    span = (wall0, time.perf_counter())
    paper_close(setups)
    return Round([setup], span, sessions, _io_detail(reports))


# -- sdss-complete -----------------------------------------------------------------


def sdss_setup():
    repro = _repro()
    dataset, query = repro.workloads.load_workload("sdss", SDSS_SCALE, FIXED_DATA_SEED)
    db = repro.workloads.make_database(dataset, "cluster")
    return query, repro.core.SWEngine(db, dataset.name)


def complete_record(engine, query, stamps: list[float] | None = None) -> tuple[dict, object]:
    """Stream a query to completion; the pinned output record."""
    stream = engine.execute_iter(query)
    shape = query.grid.shape
    keys = []
    for result in stream:
        if stamps is not None:
            stamps.append(time.perf_counter())
        keys.append(result.window.key(shape))
    search = stream.search
    record = {"keys": sorted(keys), "sim_s": search.data.clock.now - search.start_time,
              "explored": search.stats.explored}
    return record, stream.report()


def sdss_round(check, setups: int = 9) -> Round:
    setup = []
    for _ in range(setups):
        t0 = time.perf_counter()
        query, engine = sdss_setup()
        setup.append((t0, time.perf_counter()))
    session, report = timed_session(
        "sdss", lambda stamps: complete_record(engine, query, stamps), check)
    return Round(setup, (session.submit, session.done), [session], _io_detail([report]))


# -- dist-chaos ---------------------------------------------------------------------


def dist_setup():
    repro = _repro()
    import repro.distributed as dist

    dataset, query = repro.workloads.load_workload("synth-high", DIST_SCALE, FIXED_DATA_SEED)
    plan = dist.FaultPlan.chaos_scale(CHAOS_SEED, DIST_WORKERS, crash_at_s=CHAOS_CRASH_AT_S)
    return dataset, query, dist.DistributedConfig(num_workers=DIST_WORKERS, faults=plan)


def dist_record(dataset, query, config, stamps: list[float] | None = None) -> tuple[dict, object]:
    import repro.distributed as dist

    def on_result(worker, result):
        if stamps is not None:
            stamps.append(time.perf_counter())

    report = dist.run_distributed(dataset, query, config, on_result=on_result)
    shape = query.grid.shape
    record = {"keys": sorted(r.window.key(shape) for r in report.results),
              "outcome": report.outcome, "sim_s": report.total_time_s,
              "explored": int(sum(report.worker_explored))}
    return record, report


def dist_round(check, setups: int = 9) -> Round:
    setup = []
    for _ in range(setups):
        t0 = time.perf_counter()
        dataset, query, config = dist_setup()
        setup.append((t0, time.perf_counter()))
    sessions, detail = [], {"messages": 0, "retries": 0, "cells_reassigned": 0}
    wall0 = time.perf_counter()
    for _ in range(DIST_RUNS_PER_ROUND):
        session, report = timed_session(
            "synth-high", lambda stamps: dist_record(dataset, query, config, stamps), check)
        sessions.append(session)
        if report is not None:
            detail["messages"] += report.messages_sent
            detail["retries"] += report.retries
            detail["cells_reassigned"] += report.cells_reassigned
    return Round(setup, (wall0, time.perf_counter()), sessions, detail)


# -- serve-mix ----------------------------------------------------------------------


def serve_datasets() -> dict[str, tuple[str, float, int]]:
    """Label -> ``(workload, scale, data seed)``: four shared, one per user."""
    pool = {
        "shared-synth-low": ("synth-low", 0.1, FIXED_DATA_SEED),
        "shared-synth-high": ("synth-high", 0.15, FIXED_DATA_SEED),
        "shared-sdss": ("sdss", 0.1, FIXED_DATA_SEED),
        "shared-stocks": ("stocks", 1.0, FIXED_DATA_SEED),
    }
    for user in range(SERVE_USERS):
        pool[f"user{user}-synth-medium"] = ("synth-medium", 0.1, FIXED_DATA_SEED + 1 + user)
    return pool


def serve_plan(seed: int, rounds: int) -> list[list[dict]]:
    """Per round, one submit per user: dataset label, tenant, step budget."""
    deal = np.random.default_rng([seed, 11]).permutation(len(SERVE_SLOTS))
    plan = []
    for r in range(rounds):
        submits = []
        for user in range(SERVE_USERS):
            label, budget = SERVE_SLOTS[deal[(user + r) % SERVE_USERS]]
            if label == "own":
                label = f"user{user}-synth-medium"
            submits.append({"session": f"r{r:02d}-u{user}", "user": user, "label": label,
                            "tenant": SERVE_TENANTS[user], "step_budget": budget})
        plan.append(submits)
    return plan


class ServerProcess:
    """``serve_child.py`` in its own process: start, talk, stop, reap."""

    def __init__(self, trace_path: Path | None = None, probe: bool = False) -> None:
        command = [sys.executable, str(HERE / "serve_child.py")]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        if probe:
            command.append("--probe")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, cwd=str(HERE.parent), text=True
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=120)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"server child failed to start: {line!r}")
        self.port = int(line.split()[1])

    def finish(self, timeout: float = 60.0) -> dict:
        """Wait for exit after a ``shutdown`` op; the child's final report."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class LoadGenerator:
    """Closed-loop users multiplexed over at most two connections."""

    def __init__(self, port: int, plan: list[list[dict]], datasets: dict, check) -> None:
        self.port = port
        self.plan = plan
        self.datasets = datasets
        self.check = check
        self.account = {"attempted": 0, "completed": 0, "rejected": 0, "throttled": 0,
                        "protocol_errors": 0, "wrong": 0, "poll_wait_s": 0.0,
                        "connection_wait_s": 0.0, "polls": 0}

    async def run(self) -> tuple[list[Round], dict]:
        from repro.serve import AsyncServeClient

        clients = [await AsyncServeClient.open("127.0.0.1", self.port)
                   for _ in range(SERVE_CONNECTIONS)]
        locks = [asyncio.Lock() for _ in clients]
        rounds = []
        try:
            for submits in self.plan:
                t0 = time.perf_counter()
                sessions = await asyncio.gather(*(
                    self._session(clients[s["user"] % len(clients)],
                                  locks[s["user"] % len(clients)], s)
                    for s in submits
                ))
                rounds.append(Round([], (t0, time.perf_counter()), list(sessions)))
            stats = await clients[0].stats()
            # Hang up the other connections first, so the server stops
            # with no handler left waiting on a line.
            for client in clients[1:]:
                await client.close()
            await clients[0].shutdown()
        finally:
            for client in clients:
                await client.close()
        return rounds, stats

    async def _call(self, client, lock, op: str, **payload) -> dict:
        t0 = time.perf_counter()
        async with lock:
            self.account["connection_wait_s"] += time.perf_counter() - t0
            return await client.call(op, **payload)

    async def _session(self, client, lock, spec: dict) -> Session:
        from repro.errors import ProtocolError

        workload, scale, data_seed = self.datasets[spec["label"]]
        acct = self.account
        acct["attempted"] += 1
        session = Session(submit=time.perf_counter())
        keys = []
        try:
            reply = await self._call(
                client, lock, "submit", session=spec["session"], workload=workload,
                scale=scale, seed=data_seed, step_budget=spec["step_budget"],
                tenant=spec["tenant"],
            )
            state = reply["outcome"]
            since = 0
            while state in ("live", "waiting"):
                t0 = time.perf_counter()
                await asyncio.sleep(SERVE_POLL_S)
                acct["poll_wait_s"] += time.perf_counter() - t0
                acct["polls"] += 1
                page = await self._call(client, lock, "results", session=spec["session"],
                                        since=since)
                now = time.perf_counter()
                for result in page["results"]:
                    keys.append(result["key"])
                    session.results.append(now)
                since = page["next"]
                state = page["state"]
            session.done = time.perf_counter()
            if state in ("rejected", "throttled"):
                acct[state] += 1
                session.ok, session.note = False, f"session {state}"
                return session
            status = await self._call(client, lock, "status", session=spec["session"])
        except ProtocolError as exc:
            session.done = session.done or time.perf_counter()
            acct["protocol_errors"] += 1
            session.ok, session.note = False, f"protocol error {exc.args}"
            return session
        acct["completed"] += 1
        session.ok, session.note = self.check(spec, keys, status)
        if not session.ok:
            acct["wrong"] += 1
        return session


def serve_round_set(plan, check, trace_path: Path | None = None,
                    setups: int = 5) -> tuple[list[Round], dict]:
    """Start the server ``setups`` times (timed), drive the plan on the last.

    Untraced, every server probes host speed (``hostspeed.py``); their
    samples come back in ``extra["probe"]``, since the servers do the work.
    """
    setup, probe = [], []
    server = None
    for i in range(setups):
        t0 = time.perf_counter()
        server = ServerProcess(trace_path if i == setups - 1 else None,
                               probe=trace_path is None)
        try:
            asyncio.run(asyncio.wait_for(_hello(server.port, shutdown=i < setups - 1), 60))
        except BaseException:
            server.kill()
            raise
        setup.append((t0, time.perf_counter()))
        if i < setups - 1:
            probe += server.finish().get("probe", [])
    generator = LoadGenerator(server.port, plan, serve_datasets(), check)
    try:
        # A wedged server must not hang the benchmark past its time limit.
        rounds, stats = asyncio.run(asyncio.wait_for(generator.run(), SERVE_TIMEOUT_S))
        child = server.finish()
    except BaseException:
        server.kill()
        raise
    rounds[0].setup = setup
    probe += child.pop("probe", [])
    return rounds, {"stats": stats, "child": child, "loadgen": generator.account,
                    "probe": probe}


async def _hello(port: int, shutdown: bool) -> None:
    from repro.serve import AsyncServeClient

    client = await AsyncServeClient.open("127.0.0.1", port)
    try:
        await client.hello()
        if shutdown:
            await client.shutdown()
    finally:
        await client.close()
