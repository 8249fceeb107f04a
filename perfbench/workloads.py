"""The three workloads: inputs from a seed, one batch at a time.

Each workload turns the benchmark seed into the program's inputs in
:meth:`setup` and runs one *batch* -- a fixed list of cells -- per
:meth:`run_batch` call, closed loop (the next cell starts when the
previous one returns), in this process, with no worker pool.  Given a
:class:`~perfbench.spans.Recorder` the batch runs traced: the caller
has instrumented the layers, the batch opens spans around its own calls
into them, and it runs on the pure backend so that every layer is
Python code the spans can see.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

from perfbench.reference import MIXES, CellClock
from perfbench.spans import Recorder

_cpu = time.process_time

# The cell lists are spelled out here rather than read from the
# package, so that a batch stays the same on every commit it measures.
VARIANTS = ("upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem",
            "upc-distmem-hier", "mpi-ws", "ws-fencefree", "tree-split")
FIG4_VARIANTS = ("upc-distmem", "upc-term-rapdif", "upc-term",
                 "upc-sharedmem", "mpi-ws")
FIG4_CHUNKS = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class Batch:
    """What one batch did, on the default backend: CPU ms per cell, raw
    (``cell_ms``) and rescaled to the reference speed (``cell_scaled``;
    empty in a traced batch).  ``*_pure`` are the same batch with the
    compiled core forced off (the same lists where there is none)."""

    cell_ms: List[float]
    cell_scaled: List[float]
    identities: List[tuple]
    sim_s: float
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Empty when the batch ran no pure pass.
    cell_ms_pure: Optional[List[float]] = None
    cell_scaled_pure: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if self.cell_ms_pure is None:
            self.cell_ms_pure = self.cell_ms
            self.cell_scaled_pure = self.cell_scaled

    @property
    def cpu(self) -> float:
        """Raw CPU seconds of the batch's cells."""
        return sum(self.cell_ms) / 1e3

    @property
    def cpu_pure(self) -> float:
        return sum(self.cell_ms_pure) / 1e3


def _batch(clock: CellClock, identities, sim_s, attempted, failures):
    return Batch(clock.raw, clock.scaled, identities, sim_s, attempted,
                 failures)


def _span(rec: Optional[Recorder], name: str):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _derive(seed: int, *path) -> random.Random:
    """An RNG for one part of the inputs, fixed by the seed."""
    return random.Random("/".join(str(p) for p in (seed,) + path))


class Workload:
    """``setup(seed)`` fixes the inputs and returns set-up timings;
    ``run_batch(index, rec=None)`` runs batch ``index``."""

    name = ""
    #: Cells a run needs before it may stop; the tail percentile of
    #: cell_ms is the one this many cells support.
    min_cells = 0
    #: Measures the compiled core (loaded by the caller, which then
    #: sets ``core``).
    needs_core = False
    core = False
    #: Every batch repeats the same cells (same inputs, same order).
    repeats_cells = True


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """The paper's Figure-4 grid on a materialized scaled T1 tree."""

    name = "sweep"
    #: One compiled pass is the cell population of cell_ms.
    min_cells = len(FIG4_VARIANTS) * len(FIG4_CHUNKS)
    needs_core = True

    def setup(self, seed: int) -> dict:
        from repro.harness.parallel import (JobSpec, expected_nodes_for,
                                            shared_tree)
        from repro.uts.params import TreeParams

        #: T1's shape (m=2, q=0.499, r=0) with b0 scaled to 200: ~54k
        #: nodes, between the harness's test and quick scales.
        self.tree = TreeParams.binomial(b0=200, m=2, q=0.499, seed=0)
        c0 = _cpu()
        shared_tree(self.tree)
        materialize_s = _cpu() - c0
        self.expected = expected_nodes_for(self.tree)
        rng = _derive(seed, "sweep")
        grid = [(alg, k) for alg in FIG4_VARIANTS for k in FIG4_CHUNKS]
        self.jobs = [
            JobSpec(index=i, algorithm=alg, tree=self.tree, threads=16,
                    preset="kittyhawk", chunk_size=k,
                    expected_nodes=self.expected, verify=True,
                    seed=rng.randrange(2 ** 31))
            for i, (alg, k) in enumerate(grid)]
        return {"materialize_s": materialize_s}

    def _pass(self, backend: str, rec: Optional[Recorder]) -> Batch:
        """One pass over the grid with ``REPRO_FASTPATH=backend``."""
        from repro.errors import ReproError
        from repro.harness import parallel

        n = len(self.jobs)
        os.environ["REPRO_FASTPATH"] = backend
        # One job per progress call: each call ends a cell.
        clock = CellClock(rec is None, MIXES[self.name])
        clock.start()
        try:
            with _span(rec, "harness.execute_jobs"):
                results = parallel.execute_jobs(
                    self.jobs, 1, progress=lambda _line: clock.split())
        except ReproError as exc:
            return Batch([], [], [], 0.0, n, [f"{backend}: {exc}"] * n)
        finally:
            del os.environ["REPRO_FASTPATH"]
        failures = [f"{r.algorithm} k={r.chunk_size}: {r.total_nodes} nodes, "
                    f"oracle {self.expected}"
                    for r in results if r.total_nodes != self.expected]
        return _batch(clock, [_run_identity(r) for r in results],
                      sum(r.sim_time for r in results), n, failures)

    def run_batch(self, index: int, rec: Optional[Recorder] = None) -> Batch:
        if rec is not None or not self.core:
            return self._pass("0", rec)
        fast = self._pass("1", None)
        if index % 2:
            # The pure pass costs twice the compiled one and its times
            # spread less: every other batch is enough for it.
            fast.cell_ms_pure, fast.cell_scaled_pure = [], []
            return fast
        pure = self._pass("0", None)
        fast.cell_ms_pure = pure.cell_ms
        fast.cell_scaled_pure = pure.cell_scaled
        fast.attempted += pure.attempted
        fast.failures += pure.failures
        if fast.identities and pure.identities:
            fast.failures += [f"pure/compiled schedules differ: {a} vs {b}"
                              for a, b in zip(fast.identities, pure.identities)
                              if a != b]
        return fast


def _run_identity(r) -> tuple:
    return (r.algorithm, r.n_threads, r.chunk_size, r.total_nodes,
            r.engine_events, r.sim_time)


# ---------------------------------------------------------------------------

#: The fuzzer's base cell (tools/check_schedules.py BASE_CELL).
FUZZ_BASE = {"threads": 8, "chunk_size": 4, "preset": "kittyhawk", "b0": 64,
             "q": 0.48, "m": 2, "tree_seed": 1, "max_events": 500_000}
#: Fault plans the fuzzer's CI job multiplies in, and the stale-window
#: plans the relaxed variants always sweep.
FUZZ_FAULTS = ("kill=3@103us", "stall=0.3,stale=0.2")
STALE_FAULTS = ("stale=0.3,stale-window=40us", "stale=0.5,stale-window=80us")
STALE_ONLY = ("ws-fencefree", "tree-split")
SERVICE_BASE = {"threads": 8, "chunk_size": 2,
                "arrival_spec": "poisson:rate=8e5", "n_tasks": 120,
                "queue_capacity": 16, "policy": "shed-oldest",
                "deadline": 150e-6, "max_events": 500_000}
SERVICE_STORM = "storm(kill:2@t=0.05ms..0.2ms)"


class Fuzz(Workload):
    """A fixed 100-cell slice of the schedule fuzzer's cell mix."""

    name = "fuzz"
    min_cells = 100

    def setup(self, seed: int) -> dict:
        # Imported here so that setup_s includes loading the checker.
        from repro.check import check_run, check_service_run  # noqa: F401

        rng = _derive(seed, "fuzz")
        self.groups = []
        for variant in VARIANTS:
            base = {**FUZZ_BASE, "variant": variant,
                    "seed": rng.randrange(2 ** 31)}
            cells = [{**base, "schedule_seed": rng.randrange(2 ** 31)}
                     for _ in range(6)]
            specs = STALE_FAULTS if variant in STALE_ONLY else FUZZ_FAULTS
            cells += [{**base, "fault_spec": spec,
                       "fault_seed": rng.randrange(2 ** 16),
                       "schedule_seed": rng.randrange(2 ** 31)}
                      for spec in specs]
            cells.append({**base, "idle_strategy": "park",
                          "schedule_seed": rng.randrange(2 ** 31)})
            # Deferral points as shares of the canonical schedule's
            # length, placed once the canonical cell has run.
            defer_at = [rng.random() for _ in range(2)]
            self.groups.append((base, defer_at, cells))
        self.service = []
        for idle in ("park", "poll"):
            for storm in (False, True):
                cell = {**SERVICE_BASE, "idle_strategy": idle,
                        "seed": rng.randrange(2 ** 31),
                        "schedule_seed": rng.randrange(2 ** 31)}
                if storm:
                    cell.update(fault_spec=SERVICE_STORM,
                                fault_seed=rng.randrange(2 ** 16))
                self.service.append(cell)
        return {}

    def run_batch(self, index: int, rec: Optional[Recorder] = None) -> Batch:
        from repro.check import check_run, check_service_run

        ids, failures = [], []
        sim_s = 0.0
        clock = CellClock(rec is None, MIXES[self.name])

        def run(fn, cell):
            nonlocal sim_s
            clock.start()
            with _span(rec, "check.cell"):
                out = fn(**cell)
            clock.stop()
            ids.append((out.variant, out.ok, out.engine_events,
                        out.total_nodes, out.sim_time, out.lost_work,
                        out.dup_work))
            sim_s += out.sim_time
            if not out.ok:
                failures.append(f"{cell}: {out.error_type}: {out.error}")
                if rec is not None:
                    rec.counts["check.cells_failed"] += 1
            return out

        for base, defer_at, cells in self.groups:
            canonical = run(check_run, base)
            hi = int(max(canonical.engine_events, 1) * 1.2) + 1
            for cell in cells:
                run(check_run, cell)
            for share in defer_at:
                run(check_run, {**base, "defer": (1 + int(share * hi),)})
        for cell in self.service:
            run(check_service_run, cell)
        return _batch(clock, ids, sim_s, len(clock.raw), failures)


# ---------------------------------------------------------------------------


class SingleRun(Workload):
    """The CLI's ``run --trace`` path, one fresh tree per cell."""

    name = "single-run"
    min_cells = 30
    repeats_cells = False
    cells_per_batch = 5
    threads = 1024

    def setup(self, seed: int) -> dict:
        from repro.harness import runner
        # Imported here so that setup_s includes loading the exporters.
        from repro.obs import (dump_chrome_trace, dump_jsonl,  # noqa: F401
                               render_trace_report)

        self.seed = seed
        # The originals, not whatever an instrumented run swaps in.
        self.oracle_cache = runner.expected_node_count
        self.tree_cache = runner.tree_for
        here = os.path.dirname(os.path.abspath(__file__))
        self.out_dir = os.path.join(here, "_out")
        os.makedirs(self.out_dir, exist_ok=True)
        return {}

    def trees(self, index: int):
        from repro.uts.params import TreeParams

        rng = _derive(self.seed, "single-run", index)
        # Many root children and q well below 1/2: sizes concentrate
        # around 30k nodes (CV 3%) and no tree has a long tail phase, so
        # one cell costs, and traces, about as much as the next.
        return [TreeParams.binomial(b0=6000, m=2, q=0.4,
                                    seed=rng.randrange(2 ** 31))
                for _ in range(self.cells_per_batch)]

    def run_batch(self, index: int, rec: Optional[Recorder] = None) -> Batch:
        from repro.errors import ReproError
        from repro.harness import runner
        from repro.obs import (TraceSink, dump_chrome_trace, dump_jsonl,
                               render_trace_report)
        from repro.ws.config import WsConfig

        paths = {fmt: os.path.join(self.out_dir, f"trace.{fmt}")
                 for fmt in ("jsonl", "json", "md")}
        ids, failures = [], []
        sim_s = 0.0
        trace_bytes = 0
        clock = CellClock(rec is None, MIXES[self.name])
        for params in self.trees(index):
            # Never seen before: no oracle count, no Tree object cached.
            self.oracle_cache.cache_clear()
            self.tree_cache.cache_clear()
            clock.start()
            sink = TraceSink()
            try:
                res = runner.run_experiment(
                    "upc-distmem", tree=params, threads=self.threads,
                    preset="kittyhawk",
                    config=WsConfig(chunk_size=8, idle_strategy="park"),
                    verify=True, tracer=sink)
            except ReproError as exc:  # a failed cell is counted
                failures.append(f"{params.describe()}: {exc!r}")
                clock.stop()
                continue
            meta = sink.meta
            with _span(rec, "obs.parse"):
                events = sink.events()
            with _span(rec, "obs.jsonl"):
                dump_jsonl(paths["jsonl"], events, meta)
            with _span(rec, "obs.chrome"):
                dump_chrome_trace(paths["json"], events,
                                  n_threads=meta.get("threads"),
                                  sim_time=meta.get("sim_time"), meta=meta)
            with _span(rec, "obs.report"):
                with open(paths["md"], "w", encoding="utf-8") as fh:
                    fh.write(render_trace_report(events, meta))
            clock.stop()
            with open(paths["jsonl"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            trace_bytes += sum(os.path.getsize(p) for p in paths.values())
            ids.append((params.seed, res.total_nodes, res.engine_events,
                        res.sim_time, len(sink.records), digest))
            sim_s += res.sim_time
            if rec is not None:
                rec.counts["obs.records"] += len(sink.records)
            # Each cell stands for one CLI process: start the next one
            # from a heap without this one's garbage, outside the timer.
            del res, sink, events, meta
            gc.collect()
        if rec is not None:
            rec.counts["obs.trace_bytes"] += trace_bytes
        return _batch(clock, ids, sim_s, len(clock.raw), failures)


WORKLOADS = {w.name: w for w in (Sweep, Fuzz, SingleRun)}
