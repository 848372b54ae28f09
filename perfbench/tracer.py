"""Host-time spans around the public calls of each layer, from outside.

The benchmark never edits the program: a traced run replaces each target
(a class method or a module-level name, patched where its caller binds
it) with a wrapper that records one span ``(name, start, end, parent)``
per call in flat in-memory arrays.  :meth:`Tracer.uninstall` restores the
originals, so the untraced rounds of the same process run unwrapped code.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  A layer's
*calls* are its entries: spans whose parent is absent or belongs to
another layer, so a layer's internal nesting is not double counted.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

#: Layer order as reported.
LAYERS = (
    "workloads",
    "storage",
    "sampling",
    "core.engine",
    "core.search",
    "core.pqueue",
    "core.utility",
    "core.kernels",
    "core.window",
    "core.datamanager",
    "serve.protocol",
    "serve.scheduler",
    "serve.manager",
    "serve.cache",
    "distributed",
)


#: Search counters summed over every search a traced run began.
SEARCH_STATS = ("explored", "generated", "lazy_reinserts", "refreshes", "refresh_skipped",
                "pruned_extensions")


def _len_self(tracer, args, result):
    tracer.counts["core.pqueue.len_at_peek_sum"] += len(args[0])
    tracer.counts["core.pqueue.peeks"] += 1


def _cells_read(tracer, args, result):
    if result is None:
        tracer.counts["core.datamanager.cached_reads"] += 1
        return
    arrays = result.cells_arrays
    cells = len(arrays[0]) if arrays is not None else len(result.cells)
    tracer.counts["core.datamanager.cells_read"] += cells
    tracer.counts["core.datamanager.reads"] += 1


def _blocks_touched(tracer, args, result):
    tracer.counts["storage.blocks_touched"] += result.blocks_touched


def _backend_call(tracer, args, result):
    tracer.counts["storage.backend_calls"] += 1


def _search_begun(tracer, args, result):
    # The stats object only: holding the search would keep its tables alive.
    tracer.search_stats.append(args[0].stats)


#: ``(layer, module, owner-or-None, attribute, count hook)``.  ``owner``
#: names a class in ``module``; ``None`` patches the module attribute.
TARGETS = (
    ("workloads", "repro.workloads", None, "load_workload", None),
    ("workloads", "repro.serve.server", None, "load_workload", None),
    ("storage", "repro.storage.database", "Database", "register", None),
    ("storage", "repro.storage.database", "Database", "range_cell_aggregates", _blocks_touched),
    ("storage", "repro.storage.table", "HeapTable", "gather", _backend_call),
    ("storage", "repro.storage.table", "HeapTable", "blocks_matching", _backend_call),
    ("storage", "repro.storage.sqlite_backend", "SQLiteTable", "gather", _backend_call),
    ("storage", "repro.storage.sqlite_backend", "SQLiteTable", "blocks_matching", _backend_call),
    ("storage", "repro.storage.backend", "SimulatorBackend", "install_cells", _backend_call),
    ("storage", "repro.storage.sqlite_backend", "SQLiteBackend", "install_cells", _backend_call),
    ("sampling", "repro.sampling.stratified", "StratifiedSampler", "sample", None),
    ("core.engine", "repro.core.engine", "SWEngine", "prepare", None),
    ("core.search", "repro.core.search", "HeuristicSearch", "begin", _search_begun),
    ("core.search", "repro.core.search", "HeuristicSearch", "step", None),
    ("core.pqueue", "repro.core.pqueue", "SpillableQueue", "peek_bounds", _len_self),
    ("core.pqueue", "repro.core.pqueue", "SpillableQueue", "pop", None),
    ("core.pqueue", "repro.core.pqueue", "SpillableQueue", "push_many_arrays", None),
    ("core.pqueue", "repro.core.pqueue", "SpillableQueue", "peek_priority", None),
    ("core.utility", "repro.core.utility", "UtilityModel", "bounds_profile", None),
    ("core.utility", "repro.core.utility", "UtilityModel", "placement_profile", None),
    ("core.kernels", "repro.core.kernels", "DataKernels", "reduce_bounds", None),
    ("core.kernels", "repro.core.kernels", "DataKernels", "unread_bounds", None),
    ("core.kernels", "repro.core.kernels", "DataKernels", "fully_read_bounds", None),
    ("core.kernels", "repro.core.kernels", "DataKernels", "placement_estimates", None),
    ("core.window", "repro.core.search", None, "batch_neighbor_bounds", None),
    ("core.datamanager", "repro.core.datamanager", "DataManager", "read_window", _cells_read),
    ("serve.protocol", "repro.serve.server", None, "decode", None),
    ("serve.protocol", "repro.serve.server", None, "encode", None),
    ("serve.scheduler", "repro.serve.scheduler", "QueryScheduler", "tick", None),
    ("serve.manager", "repro.serve.manager", "SessionManager", "submit", None),
    ("serve.cache", "repro.serve.cache", "SemanticCache", "consult", None),
    ("serve.cache", "repro.serve.cache", "SemanticCache", "publish", None),
    ("distributed", "repro.distributed.coordinator", None, "run_distributed", None),
    ("distributed", "repro.distributed", None, "run_distributed", None),
    ("distributed", "repro.distributed.worker", "Worker", "step", None),
    ("distributed", "repro.distributed.messages", "Network", "send", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.nid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.search_stats: list = []
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, str, object, object]] = []

    # -- patching ----------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not.

        Installing again after :meth:`uninstall` reuses the same wrappers,
        so spans of all traced rounds share one name table.
        """
        if not self._wrappers:
            self._resolve(targets)
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        for owner, attr, original, _ in reversed(self._wrappers):
            setattr(owner, attr, original)

    def _resolve(self, targets) -> None:
        for layer, module_name, owner_name, attr, hook in targets:
            label = f"{module_name}:{owner_name + '.' if owner_name else ''}{attr}"
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if not callable(original):
                self.missing.append(label)
                continue
            name_id = len(self.names)
            self.names.append(f"{owner_name or module_name}.{attr}")
            self.layer_of.append(layer)
            self._wrappers.append((owner, attr, original, self._wrapper(original, name_id, hook)))

    def _wrapper(self, fn, name_id: int, hook):
        nid, start, end, parent = self.nid, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            nid.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def search_totals(self) -> dict[str, int]:
        """:data:`SEARCH_STATS` summed over the searches begun while traced."""
        return {key: sum(getattr(stats, key) for stats in self.search_stats)
                for key in SEARCH_STATS}

    # -- results ---------------------------------------------------------------

    def spans(self) -> "Spans":
        """The recorded spans as numpy arrays (a copy)."""
        return Spans(
            names=list(self.names),
            layers=list(self.layer_of),
            nid=np.array(self.nid, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
        )


class Spans:
    """Recorded spans plus the per-layer self-time analysis."""

    def __init__(self, names, layers, nid, start, end, parent) -> None:
        self.names = list(names)
        self.layers = list(layers)
        self.nid = np.asarray(nid, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls(
                [str(x) for x in data["names"]],
                [str(x) for x in data["layers"]],
                data["nid"], data["start"], data["end"], data["parent"],
            )

    def save(self, path) -> None:
        """Write the raw spans (``names`` indexed by ``nid``) as ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            layers=np.array(self.layers, dtype=str),
            nid=self.nid.astype(np.uint16),
            start=self.start,
            end=self.end,
            parent=self.parent.astype(np.int32),
        )

    def __len__(self) -> int:
        return len(self.start)

    def _own(self) -> np.ndarray:
        dur = self.end - self.start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=dur[nested], minlength=len(self))
        return dur - child

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: entries, self seconds, µs per entry, span count."""
        table = {layer: {"calls": 0, "self_s": 0.0, "us_per_call": 0.0, "spans": 0}
                 for layer in LAYERS}
        if len(self) == 0:
            return table
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_ids[layer] for layer in self.layers])[self.nid]
        nested = self.parent >= 0
        parent_layer = np.where(nested, span_layer[np.where(nested, self.parent, 0)], -1)
        entry = parent_layer != span_layer
        self_s = np.bincount(span_layer, weights=self._own(), minlength=len(LAYERS))
        calls = np.bincount(span_layer[entry], minlength=len(LAYERS))
        spans = np.bincount(span_layer, minlength=len(LAYERS))
        for layer, i in layer_ids.items():
            row = table[layer]
            row["calls"] = int(calls[i])
            row["self_s"] = float(self_s[i])
            row["spans"] = int(spans[i])
            row["us_per_call"] = float(self_s[i] / calls[i] * 1e6) if calls[i] else 0.0
        return table

    def function_table(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: spans and self seconds (result-file detail)."""
        out = {name: {"spans": 0, "self_s": 0.0} for name in self.names}
        if len(self) == 0:
            return out
        spans = np.bincount(self.nid, minlength=len(self.names))
        self_s = np.bincount(self.nid, weights=self._own(), minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[name] = {"spans": int(spans[i]), "self_s": float(self_s[i])}
        return out

    def covered_s(self) -> float:
        """Host seconds inside any span (the sum of root-span durations)."""
        roots = self.parent < 0
        return float((self.end - self.start)[roots].sum())
