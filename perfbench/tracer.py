"""Per-layer self time, recorded from outside the program.

:func:`install` wraps the public entry points of the ``repro`` modules
and records one span per call, named after the layer metric it feeds.  A span's self
time is its duration minus the time covered by the spans it encloses, so
the self times of nested spans add up to the outermost span's duration
and every second of a traced phase lands in exactly one layer.

Spans are kept as running sums in memory, and only while a timed
benchmark phase runs: :meth:`Tracer.enter` names the phase, and the
benchmark's own set-up and output checks record nothing.  Self times are
also summed per (phase, layer), which is how ``generate_s`` and the
point-read latencies are broken down by layer.  The program's own
counters are read at the same boundaries, so they too count only work
done inside timed phases.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Running sums of span self time per layer and per (scope, layer).

    Args:
        read_counters: returns the program's counters by name; their
            growth inside timed phases is summed in :attr:`counters`.
    """

    def __init__(self, read_counters: Callable[[], dict[str, float]]
                 ) -> None:
        self.scope: str | None = None
        self.read_counters = read_counters
        self.counters: dict[str, float] = defaultdict(float)
        self._counters_at_enter: dict[str, float] = {}
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.scoped: dict[tuple[str, str], float] = defaultdict(float)
        self.scope_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``layer``."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self._record(layer, duration - children[0])

        return traced

    def enter(self, scope: str) -> None:
        """A timed phase begins."""
        self.scope = scope
        self.scope_calls[scope] += 1
        self._counters_at_enter = self.read_counters()

    def exit(self) -> None:
        """The timed phase ends."""
        for name, value in self.read_counters().items():
            self.counters[name] += value - self._counters_at_enter[name]
        self.scope = None

    def _record(self, layer: str, seconds: float) -> None:
        if self.scope is None:
            return
        self.self_seconds[layer] += seconds
        self.calls[layer] += 1
        self.scoped[(self.scope, layer)] += seconds

    def scope_breakdown(self, scope: str) -> dict[str, float]:
        """Self seconds per layer recorded while ``scope`` was active."""
        return {layer: seconds for (s, layer), seconds in self.scoped.items()
                if s == scope}


def _patch_method(tracer: Tracer, cls: type, name: str, layer: str) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(tracer.wrap(layer, raw.__func__)))
    else:
        setattr(cls, name, tracer.wrap(layer, raw))


def _patch_function(tracer: Tracer, module: Any, name: str,
                    layer: str) -> None:
    """Wrap a module function everywhere ``from module import name``
    bound it, so callers in other modules see the wrapper too."""
    original = getattr(module, name)
    traced = tracer.wrap(layer, original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") \
                and getattr(loaded, name, None) is original:
            setattr(loaded, name, traced)


def _patch_index_builds(tracer: Tracer, cls: type, name: str,
                        cache_attr: str, layer: str) -> None:
    """Trace only the calls that build a per-snapshot index, not the
    calls that return one already built."""
    original = cls.__dict__[name]
    traced = tracer.wrap(layer, original)

    @functools.wraps(original)
    def maybe_build(self: Any, column: str) -> Any:
        if column in getattr(self, cache_attr):
            return original(self, column)
        return traced(self, column)

    setattr(cls, name, maybe_build)


def install(extractor_classes: list[type],
            read_counters: Callable[[], dict[str, float]]) -> Tracer:
    """Wrap every layer entry point; returns the tracer that records them.

    Call once per process, after ``repro`` is importable and before the
    program objects under test are created.
    """
    from repro.core.serving import ServingGate
    from repro.core.streaming import CorpusDeltaSource, StreamingPipeline
    from repro.core.system import StructureManagementSystem
    from repro.debugger.semantic import SemanticDebugger
    from repro.integration.entity_resolution import EntityResolver
    from repro.lang import executor as executor_module
    from repro.lang.executor import Executor
    from repro.lang.optimizer import Optimizer
    from repro.storage.filestore import RecordFileStore
    from repro.storage.rdbms import sql as sql_module
    from repro.storage.rdbms.engine import Database
    from repro.storage.rdbms.mvcc import TableSnapshot
    from repro.storage.rdbms.planner import Planner
    from repro.storage.snapshots import SnapshotStore
    from repro.uncertainty.provenance import ProvenanceGraph
    from repro.userlayer.search import KeywordSearchEngine

    tracer = Tracer(read_counters)
    methods = [
        (Optimizer, "optimize", "lang.optimize_s"),
        (Executor, "execute", "lang.execute_s"),
        (EntityResolver, "resolve", "integration.resolve_s"),
        (SemanticDebugger, "learn", "debugger.learn_s"),
        (SemanticDebugger, "check", "debugger.check_s"),
        (ProvenanceGraph, "record_extraction", "uncertainty.record_s"),
        (ProvenanceGraph, "record_fact", "uncertainty.record_s"),
        (ProvenanceGraph, "save", "uncertainty.save_s"),
        (ProvenanceGraph, "load", "uncertainty.load_s"),
        (SnapshotStore, "commit", "storage.snapshot_commit_s"),
        (RecordFileStore, "append_many", "storage.intermediate_append_s"),
        (Database, "run", "storage.rdbms.write_s"),
        (Database, "__init__", "storage.rdbms.open_s"),
        (Database, "create_index", "storage.rdbms.open_s"),
        (Planner, "plan_select", "storage.planner.plan_s"),
        (Database, "begin_snapshot", "storage.mvcc.begin_snapshot_s"),
        (ServingGate, "admit", "core.admit_s"),
        (ServingGate, "_release", "core.admit_s"),
        (StructureManagementSystem, "query", "core.query_other_s"),
        (StructureManagementSystem, "generate", "core.generate_other_s"),
        (StructureManagementSystem, "ingest", "core.ingest_other_s"),
        (KeywordSearchEngine, "index_corpus", "userlayer.index_corpus_s"),
        (KeywordSearchEngine, "index_facts", "userlayer.index_facts_s"),
        (KeywordSearchEngine, "search", "userlayer.search_s"),
        (KeywordSearchEngine, "search_facts", "userlayer.search_facts_s"),
        (CorpusDeltaSource, "diff", "core.stream.diff_s"),
        (StreamingPipeline, "process", "core.stream.process_s"),
    ]
    methods += [(cls, "extract", "extraction.extract_s")
                for cls in extractor_classes]
    for cls, name, layer in methods:
        _patch_method(tracer, cls, name, layer)
    _patch_function(tracer, executor_module, "fuse_extractions",
                    "integration.fuse_s")
    for name in ("normalize_sql", "parse_sql"):
        _patch_function(tracer, sql_module, name, "storage.sql.parse_s")
    _patch_index_builds(tracer, TableSnapshot, "hash_index",
                        "_hash_indexes", "storage.mvcc.index_build_s")
    _patch_index_builds(tracer, TableSnapshot, "sorted_index",
                        "_sorted_indexes", "storage.mvcc.index_build_s")
    return tracer
