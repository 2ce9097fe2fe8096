"""The reference DGE cycle and the shapes it is run at.

One *cycle* is the whole life of a workspace, through the public API of
``repro``:

1. ingest the pages;
2. ``generate`` (infobox, prose and table extractors, ``resolve``,
   ``fuse``), then ``generate`` again on unchanged input;
3. serve an interleaved mix of SQL point lookups, ``GROUP BY``
   statements, keyword search over pages and keyword search over facts;
4. seed a :class:`StreamingPipeline` from a :class:`CorpusDeltaSource`
   and run churn rounds: 1% of the pages change and are re-ingested, the
   delta is processed, users ``contribute()`` facts, and the same four
   read classes run after the writes;
5. close the workspace, reopen it and answer a probe.

Every run reports every end-to-end metric, so every workload runs the
whole cycle; a workload is a :class:`Shape` that sets how much of the
cycle each stage takes.  A run repeats whole cycles until ``--seconds``
of cycle time have passed, so each cycle attempts the same operations
and the share of failed operations does not depend on the run length.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from oracles import (
    GroupQuery,
    PointQuery,
    check_notifications,
    check_point,
    compare_group,
    multiset_difference,
    row_key,
    tokens,
    truth_accuracy,
    truth_errors,
)
from speed import SpeedProbe

PROGRAM = (
    'pages = docs()\n'
    'box   = extract(pages, "infobox")\n'
    'prose = extract(pages, "prose")\n'
    'tabs  = extract(pages, "tables")\n'
    'u1    = union(box, prose)\n'
    'u2    = union(u1, tabs)\n'
    'canon = resolve(u2, "er")\n'
    'fused = fuse(canon, "weighted_vote")\n'
    'output fused'
)

#: A run measures at least this many cycles, however short ``--seconds``.
MIN_CYCLES = 3
CORRUPTION_RATE = 0.1
CHURN_SHARE = 0.01
#: Clean cities of these styles must match the truth exactly.
EXACT_STYLES = ("infobox", "table")
#: Floor on the share of clean (city, month) pairs, all styles, stored
#: exactly right after ``generate``.
ACCURACY_FLOOR = 0.95
GROUP_QUERIES = (
    GroupQuery("COUNT", "*"),
    GroupQuery("AVG", "value_num"),
    GroupQuery("MIN", "value_num"),
    GroupQuery("MAX", "value_num"),
    GroupQuery("SUM", "confidence"),
    GroupQuery("COUNT", "value_text"),
    GroupQuery("AVG", "value_num", 0.9),
    GroupQuery("COUNT", "*", 0.9),
)
#: The standing query registered on the streaming pipeline's table.
STANDING_SQL = ("SELECT entity, attribute, value_num FROM fused_facts "
                "WHERE value_num >= 70")
STANDING_COLUMNS = ("entity", "attribute", "value_num")
PROBE_DOC = "perfbench_probe"
PROBE_CITY = "Quillmere"
#: Serve-mix block: each block issues these classes in a seeded order.
MIX_BLOCK = ("point", "point", "group", "keyword", "facts")
#: Read classes issued after the writes of each churn round, besides
#: the point read that follows each contribution.
ROUND_READS = ("group", "group", "keyword", "keyword", "keyword", "facts",
               "facts", "facts")
#: Expected faults: operations that fail on every run, by kind.
EXPECTED_FAULTS = {
    "regenerate": "a second generate on unchanged input re-inserts every "
                  "fact",
    "reopen-keyword": "the corpus and keyword index are in memory only; "
                      "after reopen keyword search finds nothing",
    "churn-keyword": "ingest keeps a changed page's old text in the "
                     "keyword index, so a term only the new text has "
                     "finds nothing",
}


@dataclass(frozen=True)
class Shape:
    """How much of the cycle each stage takes."""

    pages: int
    serve_blocks: int
    churn_rounds: int
    #: ``contribute()`` writes per churn round, each followed by its read.
    contributions: int
    #: The stage whose reads the read-latency metrics are taken over:
    #: ``serve`` (no writes) or ``churn`` (reads after writes).
    read_stage: str


SHAPES = {
    "serve": Shape(pages=100, serve_blocks=400, churn_rounds=12,
                   contributions=2, read_stage="serve"),
    "churn": Shape(pages=100, serve_blocks=40, churn_rounds=15,
                   contributions=6, read_stage="churn"),
}


def probe_page_text(round_no: int) -> str:
    """The probe page at churn round ``round_no`` (-1 before any round).

    Its January temperature and one word change every round, so each
    round has a fused row the standing query must announce and a term
    only the new text contains.  Nothing in it depends on the seed.
    """
    return (
        "{{Infobox city\n"
        f" | name = {PROBE_CITY}\n"
        f" | jan_temp = {80 + round_no:g}\n"
        "}}\n\n"
        f"'''{PROBE_CITY}''' is a test page for the benchmark. "
        f"Edition marker probeword{round_no + 1}."
    )


#: A measured time: when it started (``perf_counter``) and its seconds.
Timing = tuple[float, float]


@dataclass
class Samples:
    """Everything one run measured, before it is reduced to metrics."""

    speed: SpeedProbe
    #: One sample per cycle, the sum of one or more timings.
    phases: dict[str, list[list[Timing]]] = field(default_factory=dict)
    latencies: dict[str, list[Timing]] = field(default_factory=dict)
    freshness: list[Timing] = field(default_factory=list)
    serve_queries: int = 0
    #: Each cycle's serve stage, without the probes taken inside it.
    serve: list[Timing] = field(default_factory=list)
    disk_mb: list[float] = field(default_factory=list)
    ops: dict[str, list[int]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    notifications: int = 0
    constraints_learned: list[int] = field(default_factory=list)

    def phase(self, name: str, *timings: Timing) -> None:
        self.phases.setdefault(name, []).append(list(timings))

    def latency(self, name: str, timing: Timing) -> None:
        self.latencies.setdefault(name, []).append(timing)

    def op(self, kind: str, ok: bool = True) -> None:
        """Count one attempted operation of ``kind``, failed unless ``ok``."""
        entry = self.ops.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += not ok

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


class Inputs:
    """The seeded inputs shared by every cycle of one run."""

    def __init__(self, shape: Shape, seed: int) -> None:
        from repro.datagen import CityCorpusConfig, generate_city_corpus
        from repro.docmodel.document import Document
        from repro.extraction.normalize import MONTHS

        pages, truths = generate_city_corpus(CityCorpusConfig(
            num_cities=shape.pages, seed=seed,
            corruption_rate=CORRUPTION_RATE))
        self.seed = seed
        self.truths = truths
        self.names = [t.name for t in truths]
        self.pages = list(pages) + [Document(PROBE_DOC, probe_page_text(-1))]
        self.page_tokens = {d.doc_id: tokens(d.text) for d in self.pages}
        # A city's name is unique when no other page contains it; a
        # query for it must rank the city's own page first.
        holders: dict[str, list[str]] = {}
        for doc_id, words in self.page_tokens.items():
            for name in self.names:
                if name.lower() in words:
                    holders.setdefault(name, []).append(doc_id)
        self.unique_names = sorted(
            n for n in self.names
            if holders.get(n) == [f"city_{n.lower()}"])
        self.months = list(MONTHS)
        attributes = [f"{m[:3]}_temp" for m in MONTHS]
        self.point_pairs = [(n, a) for n in self.names for a in attributes]


def make_system(workspace: str, city_names: list[str]):
    """A workspace system with the extractors and resolver of
    ``examples/wikipedia_city_portal.py``; returns it and the extractors."""
    from repro import StructureManagementSystem
    from repro.extraction import (
        ContextRule,
        DictionaryExtractor,
        InfoboxExtractor,
        RuleCascadeExtractor,
        WikiTableExtractor,
        normalize_number,
        normalize_temperature,
    )
    from repro.extraction.normalize import MONTHS
    from repro.integration import EntityResolver

    system = StructureManagementSystem(workspace=workspace, cache="memory")
    rules = [
        ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                    r"(\d+(?:\.\d+)?)\s*degrees",
                    normalizer=normalize_temperature, confidence=0.75)
        for m in MONTHS
    ]

    def month_attr(key_cell: str) -> str | None:
        month = key_cell.strip().lower()
        return f"{month[:3]}_temp" if month in MONTHS else None

    extractors = {
        "infobox": InfoboxExtractor(),
        "prose": RuleCascadeExtractor(
            rules=rules,
            entity_dictionary=DictionaryExtractor(attribute="city",
                                                  phrases=city_names)),
        "tables": WikiTableExtractor(
            key_column="month",
            value_normalizers={"temperature": normalize_number},
            attribute_namer=month_attr),
    }
    for name, extractor in extractors.items():
        system.registry.register_extractor(name, extractor)
    system.registry.register_resolver("er", EntityResolver(threshold=0.95))
    return system, extractors


def disk_bytes(root: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def table_rows(db, table: str) -> list[dict[str, Any]]:
    """Every row of ``table`` from one read transaction."""
    snap = db.begin_snapshot()
    try:
        return [dict(r.values) for r in snap.scan(table)]
    finally:
        snap.commit()


class Cycle:
    """One pass of the reference cycle in a fresh workspace."""

    def __init__(self, run: "Run", index: int) -> None:
        self.run = run
        self.inputs = run.inputs
        self.samples = run.samples
        self.rng = random.Random(f"{run.inputs.seed}:{index}")
        self.workspace = os.path.join(run.work_root, f"cycle{index}")
        self.setup: list[Timing] = []
        self.group_turn = 0

    # ------------------------------------------------------------- timing

    def timed(self, scope: str, fn: Callable[..., Any], *args: Any
              ) -> tuple[Any, Timing]:
        tracer = self.run.tracer
        if tracer is not None:
            tracer.enter(scope)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.exit()
        self.samples.speed.tick()
        return result, (start, elapsed)

    def untimed_setup(self, fn: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter()
        result = fn(*args)
        self.setup.append((start, perf_counter() - start))
        self.samples.speed.tick()
        return result

    # -------------------------------------------------------------- stages

    def execute(self) -> None:
        shutil.rmtree(self.workspace, ignore_errors=True)
        system, self.extractors = self.untimed_setup(
            make_system, self.workspace, self.inputs.names)
        self.untimed_setup(system.users.register, "visitor", "pw")
        self.build(system)
        self.serve(system)
        self.churn(system)
        self.restart(system)
        self.samples.phase("setup_s", *self.setup)
        shutil.rmtree(self.workspace, ignore_errors=True)

    def build(self, system) -> None:
        s = self.samples
        pages = self.inputs.pages
        gc.collect()
        _, timing = self.timed("ingest", system.ingest, pages)
        s.phase("ingest_s", timing)
        s.op("ingest")
        gc.collect()
        report, timing = self.timed("generate", system.generate, PROGRAM)
        s.phase("generate_s", timing)
        rows = table_rows(system.db, "facts")
        s.constraints_learned.append(len(system.debugger.constraints))
        errors = truth_errors(self.inputs.truths, rows, EXACT_STYLES,
                              self.inputs.months)
        accuracy = truth_accuracy(self.inputs.truths, rows,
                                  self.inputs.months)
        page_ids = {d.doc_id for d in pages}
        stray = [r["doc_id"] for r in rows if r["doc_id"] not in page_ids]
        problems = [
            (not errors, f"{len(errors)} truth mismatches, first "
                         f"{errors[:2]}"),
            (accuracy >= ACCURACY_FLOOR,
             f"accuracy {accuracy:.3f} < {ACCURACY_FLOOR}"),
            (not stray, f"facts from pages never ingested {stray[:3]}"),
            (report.facts_stored == len(rows) > 0,
             f"reported {report.facts_stored} facts, stored {len(rows)}"),
        ]
        for ok, message in problems:
            s.check(ok, f"generate: {message}")
        s.op("generate", all(ok for ok, _ in problems))
        gc.collect()
        _, timing = self.timed("regenerate", system.generate, PROGRAM)
        s.phase("regenerate_s", timing)
        # Re-running on unchanged input must leave the store unchanged.
        s.op("regenerate",
             len(table_rows(system.db, "facts")) == len(rows))

    # ------------------------------------------------------------ serving

    def read(self, system, kind: str, stage: str,
             answers: list[tuple[str, Any, Any, int | None]]) -> None:
        """Issue one read of class ``kind``; keeps the answer for checks."""
        rng = self.rng
        inputs = self.inputs
        if kind == "point":
            query = PointQuery(*self.next_pair())
            call = system.query, query.sql()
        elif kind == "group":
            query = GROUP_QUERIES[self.group_turn % len(GROUP_QUERIES)]
            self.group_turn += 1
            call = system.query, query.sql()
        elif kind == "keyword":
            name = rng.choice(inputs.unique_names)
            query = f"{name} {rng.choice(inputs.months)} temperature"
            call = system.keyword, query
        else:
            month = rng.choice(inputs.months)
            query = f"{rng.choice(inputs.names)} {month[:3]}_temp"
            call = system.keyword_facts, query
        result, timing = self.timed(f"{stage}.{kind}", *call)
        self.read_latency(stage, kind, timing)
        answers.append((kind, query, result, None))

    def read_latency(self, stage: str, kind: str, timing: Timing) -> None:
        """Keep a read latency if ``stage`` is the workload's read stage,
        so each latency metric is taken over one population of reads."""
        if stage == self.run.shape.read_stage:
            self.samples.latency(kind, timing)

    def next_pair(self) -> tuple[str, str]:
        """Distinct (entity, attribute) literals, far more of them than
        the result cache holds."""
        if not self.pairs:
            self.pairs = list(self.inputs.point_pairs)
            self.rng.shuffle(self.pairs)
        return self.pairs.pop()

    def check_answers(self, answers: list[tuple[str, Any, Any, int | None]],
                      rows: list[dict[str, Any]], where: str,
                      page_tokens: dict[str, set[str]]) -> None:
        """Check reads against ``rows``, the table as the last read saw
        it; a read with a fact-id cutoff saw only the rows up to it."""
        s = self.samples
        truth = {(t.name, f"{m[:3]}_temp"): t.monthly_temps[i]
                 for t in self.inputs.truths
                 if t.corrupted_month is None and t.style in EXACT_STYLES
                 for i, m in enumerate(self.inputs.months)}
        group_wants: dict[GroupQuery, dict[str, Any]] = {}
        for kind, query, result, cutoff in answers:
            if kind == "point":
                seen = rows if cutoff is None else [
                    r for r in rows if r["fact_id"] <= cutoff]
                problem = check_point(query, result, seen)
                expected = truth.get((query.entity, query.attribute))
                if problem is None and expected is not None and (
                        not result or any(r["value_num"] != expected
                                          for r in result)):
                    problem = (f"{query.sql()}: {result} against truth "
                               f"{expected}")
            elif kind == "group":
                # Every GROUP BY read saw the same rows; the few distinct
                # statements are evaluated once each.
                if query not in group_wants:
                    group_wants[query] = query.evaluate(rows)
                problem = compare_group(query, result, group_wants[query])
            elif kind == "keyword":
                # The query starts with a name only its city's page has.
                words = tokens(query)
                own_page = f"city_{query.split()[0].lower()}"
                problem = None
                if not result:
                    problem = f"keyword {query!r}: no hits"
                elif result[0].doc_id != own_page:
                    problem = (f"keyword {query!r}: first hit "
                               f"{result[0].doc_id}, not {own_page}")
                elif any(not (words & page_tokens[h.doc_id])
                         for h in result):
                    problem = f"keyword {query!r}: hit without a query term"
            else:
                words = tokens(query)
                problem = None
                if not result:
                    problem = f"fact search {query!r}: no hits"
                elif any(not (words & tokens(
                        f"{f['entity']} {f['attribute']} {f['value']}"))
                        for f in result):
                    problem = f"fact search {query!r}: hit without a term"
            s.check(problem is None, f"{where}: {problem}")
            s.op(f"read-{kind}", problem is None)

    def serve(self, system) -> None:
        s = self.samples
        self.pairs: list[tuple[str, str]] = []
        # Warm-up: first-query costs and lazy per-snapshot indexes, and
        # the repeated GROUP BY set enters the result cache.
        def warm_up() -> None:
            system.query(PointQuery(*self.inputs.point_pairs[0]).sql())
            for query in GROUP_QUERIES:
                system.query(query.sql())
            system.keyword(self.inputs.names[0])
            system.keyword_facts(self.inputs.names[0])
        self.untimed_setup(warm_up)
        order = [kind for _ in range(self.run.shape.serve_blocks)
                 for kind in self.rng.sample(MIX_BLOCK, len(MIX_BLOCK))]
        answers: list[tuple[str, Any, Any, int | None]] = []
        gc.collect()
        probing = s.speed.spent
        start = perf_counter()
        for kind in order:
            self.read(system, kind, "serve", answers)
        s.serve.append((start, perf_counter() - start
                        - (s.speed.spent - probing)))
        s.serve_queries += len(order)
        self.check_answers(answers, table_rows(system.db, "facts"), "serve",
                           self.inputs.page_tokens)

    # ------------------------------------------------------------- churn

    def churn(self, system) -> None:
        from repro.core.streaming import CorpusDeltaSource, StreamingPipeline
        from repro.datagen import churn_corpus
        from repro.docmodel.document import Document
        from repro.integration import EntityResolver
        from repro.storage.rdbms.engine import Database
        from repro.userlayer.monitoring import ContinuousQuery

        s = self.samples
        source = CorpusDeltaSource()

        def new_pipeline(db, cache):
            return StreamingPipeline(
                db, self.extractors,
                resolver=EntityResolver(threshold=0.95),
                strategy="weighted_vote", cache=cache,
                deadletter=system.deadletter)

        pipeline = self.untimed_setup(new_pipeline, system.db,
                                      system.extraction_cache)
        delta = self.untimed_setup(source.diff, system.corpus)
        gc.collect()
        _, timing = self.timed("stream.seed", pipeline.process, delta)
        s.phase("stream_seed_s", timing)
        s.op("stream-seed")
        notified: list[tuple[tuple, float]] = []

        def on_match(_query_id: str, row: dict[str, Any]) -> None:
            notified.append((row_key(row, STANDING_COLUMNS), perf_counter()))

        self.untimed_setup(system.monitoring.register, ContinuousQuery(
            "hot", STANDING_SQL, callback=on_match))
        current = {d.doc_id: d for d in system.corpus}
        city_ids = sorted(i for i in current if i != PROBE_DOC)
        changed_per_round = max(1, round(len(city_ids) * CHURN_SHARE))
        page_tokens = dict(self.inputs.page_tokens)
        standing = self.standing_rows(system)
        gc.collect()
        for round_no in range(self.run.shape.churn_rounds):
            picked = self.rng.sample(city_ids, changed_per_round)
            changed = list(churn_corpus(
                [current[i] for i in picked], change_fraction=0.34,
                seed=self.rng.randrange(1 << 30)))
            changed.append(Document(PROBE_DOC, probe_page_text(round_no)))
            for doc in changed:
                current[doc.doc_id] = doc
                # A hit may match the old or the new text of a changed
                # page: the keyword index keeps the old (a fault counted
                # by churn-keyword).
                page_tokens[doc.doc_id] = (
                    page_tokens[doc.doc_id] | tokens(doc.text))
            notified.clear()

            def deliver() -> None:
                system.ingest(changed)
                pipeline.process(source.diff(system.corpus))

            (_, (start, seconds)) = self.timed("churn.freshness", deliver)
            last = max([start + seconds] + [t for _, t in notified])
            s.freshness.append((start, last - start))
            before, standing = standing, self.standing_rows(system)
            problem = check_notifications(before, standing,
                                          [k for k, _ in notified])
            s.check(problem is None, f"churn round {round_no}: {problem}")
            s.check(bool(notified), f"churn round {round_no}: the probe "
                                    "page's new value was not announced")
            s.op("churn-round", problem is None and bool(notified))
            s.notifications += len(notified)
            answers: list[tuple[str, Any, Any, int | None]] = []
            for _ in range(self.run.shape.contributions):
                entity = self.rng.choice(self.inputs.names)
                value = round(self.rng.uniform(1.0, 5.0), 4)
                fact_id, timing = self.timed(
                    "churn.contribute", system.contribute, "visitor",
                    entity, "rating", value)
                s.latency("contribute", timing)
                query = PointQuery(entity, "rating")
                result, timing = self.timed("churn.point", system.query,
                                            query.sql())
                self.read_latency("churn", "point", timing)
                returned = value in [r["value_num"] for r in result]
                s.check(returned, f"churn: contribution {entity}.rating = "
                                  f"{value} not returned by the next read")
                s.op("contribute", returned)
                answers.append(("point", query, result, fact_id))
            for kind in self.rng.sample(ROUND_READS, len(ROUND_READS)):
                self.read(system, kind, "churn", answers)
            # The probe page's new word is in the ingested text only.
            hits = system.keyword(f"probeword{round_no + 1}")
            s.op("churn-keyword",
                 bool(hits) and hits[0].doc_id == PROBE_DOC)
            self.check_answers(answers, table_rows(system.db, "facts"),
                               f"churn round {round_no}", page_tokens)
        # The incrementally maintained table equals a from-scratch run
        # over the final corpus on a separate database.
        scratch_db = Database()
        fresh = new_pipeline(scratch_db, system.extraction_cache)
        fresh.process(CorpusDeltaSource().diff(current.values()))
        live = [tuple(sorted(r.items()))
                for r in table_rows(system.db, "fused_facts")]
        oracle = [tuple(sorted(r.items()))
                  for r in table_rows(scratch_db, "fused_facts")]
        only_live, only_oracle = multiset_difference(live, oracle)
        s.check(not only_live and not only_oracle,
                f"churn: fused_facts differs from a from-scratch run: "
                f"{only_live[:2]} vs {only_oracle[:2]}")
        s.op("churn-final", not only_live and not only_oracle)
        scratch_db.close()

    @staticmethod
    def standing_rows(system) -> list[tuple]:
        """The standing query's result, evaluated in plain Python."""
        return [row_key(r, STANDING_COLUMNS)
                for r in table_rows(system.db, "fused_facts")
                if r["value_num"] is not None and r["value_num"] >= 70]

    # ----------------------------------------------------------- restart

    def restart(self, system) -> None:
        from repro import StructureManagementSystem

        s = self.samples
        count = system.fact_count()
        probes = [PointQuery(*p) for p in
                  self.rng.sample(self.inputs.point_pairs, 20)]
        before = [sorted(r["value_num"] for r in system.query(q.sql()))
                  for q in probes]
        gc.collect()
        _, closing = self.timed("restart", system.close)
        s.disk_mb.append(disk_bytes(self.workspace) / (1 << 20))

        def reopen():
            reopened = StructureManagementSystem(workspace=self.workspace)
            return reopened, reopened.fact_count()

        (reopened, reopened_count), opening = self.timed("restart", reopen)
        s.phase("restart_s", closing, opening)
        after = [sorted(r["value_num"] for r in reopened.query(q.sql()))
                 for q in probes]
        ok = reopened_count == count and after == before
        s.check(ok, f"restart: {reopened_count} facts after reopen, "
                    f"{count} before, probes equal: {after == before}")
        s.op("restart", ok)
        name = self.rng.choice(self.inputs.unique_names)
        hits = reopened.keyword(name)
        s.op("reopen-keyword",
             bool(hits) and hits[0].doc_id == f"city_{name.lower()}")
        reopened.close()


class Run:
    """All cycles of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 work_root: str, speed: SpeedProbe, tracer: Any = None
                 ) -> None:
        self.shape = SHAPES[workload]
        self.seconds = seconds
        self.work_root = work_root
        self.tracer = tracer
        self.samples = Samples(speed)
        self.inputs = Inputs(self.shape, seed)
        self.cycles = 0

    def execute(self) -> None:
        start = perf_counter()
        while self.cycles < MIN_CYCLES \
                or perf_counter() - start < self.seconds:
            Cycle(self, self.cycles).execute()
            self.cycles += 1


# --------------------------------------------------------------- metrics


def percentile_with_tail(values: list[float], q: float,
                         tail: int = 10) -> float:
    """The ``q`` quantile (nearest rank), lowered until at least ``tail``
    samples lie above it."""
    ordered = sorted(values)
    n = len(ordered)
    q = min(q, (n - tail) / n)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1]


def end_to_end(samples: Samples, once_setup: Timing, scale: bool = True
               ) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as ``name -> (value, unit)``; times are at
    the reference speed unless ``scale`` is false (``speed.py``)."""
    med = statistics.median
    lat = samples.latencies

    def seconds(timing: Timing) -> float:
        return samples.speed.scaled(*timing) if scale else timing[1]

    def phase(name: str) -> float:
        return med(sum(map(seconds, sample))
                   for sample in samples.phases[name])

    def p50_us(name: str) -> float:
        return med(map(seconds, lat[name])) * 1e6

    return {
        "setup_s": (seconds(once_setup) + phase("setup_s"), "s"),
        "generate_s": (phase("generate_s"), "s"),
        "regenerate_s": (phase("regenerate_s"), "s"),
        "restart_s": (phase("restart_s"), "s"),
        "disk_mb": (med(samples.disk_mb), "MiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "point_p50_us": (p50_us("point"), "us"),
        "aggregate_p50_us": (p50_us("group"), "us"),
        "keyword_p50_us": (p50_us("keyword"), "us"),
        "fact_search_p50_us": (p50_us("facts"), "us"),
        "serve_qps": (samples.serve_queries
                      / sum(map(seconds, samples.serve)), "1/s"),
        "stream_seed_s": (phase("stream_seed_s"), "s"),
        "freshness_ms": (med(map(seconds, samples.freshness)) * 1e3, "ms"),
        "contribute_p50_us": (p50_us("contribute"), "us"),
    }


def unsteady(samples: Samples) -> dict[str, tuple[float, str]]:
    """Figures printed but not reported as metrics, because they did
    not repeat between runs within the benchmark's bounds (README)."""
    scaled = samples.speed.scaled
    return {
        "ingest_s": (statistics.median(
            sum(scaled(*t) for t in sample)
            for sample in samples.phases["ingest_s"]), "s"),
        "point_p99_us": (percentile_with_tail(
            [scaled(*t) for t in samples.latencies["point"]], 0.99) * 1e6,
            "us"),
    }
