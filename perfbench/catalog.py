"""The benchmark's declarations: workloads and metrics.

This module is the single source of ``BENCHMARK.json`` (``run.py
--write-manifest`` renders it; a test keeps the two equal) and defines
each metric.  Every per-layer metric names the end-to-end metric it
should move and the workloads on which it should move it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

#: How long one run measures, in seconds.
RUN_SECONDS = 30

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = (
    ("sweep", "Figure-4 grid (5 variants x 7 chunk sizes, 16 threads) on a "
              "materialized scaled T1 tree, compiled and pure: engine "
              "dispatch and protocol phases, almost no tree work"),
    ("fuzz", "fixed slice of the schedule fuzzer's cell mix under the "
             "invariant monitor: per-run construction, on-the-fly hashing "
             "of one reused tree, tie-break loop, fault hooks"),
    ("single-run", "CLI run --trace path at 1024 parked threads on trees "
                   "never seen before: oracle, one-shot hashing, bucket "
                   "queue, trace export to JSONL, Chrome and Markdown"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: End-to-end metrics this layer metric should move.
    moves: Tuple[str, ...]
    #: Workloads on which it should move them.
    on: Tuple[str, ...]
    doc: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "CPU seconds of a fresh interpreter that imports repro and "
             "sets the workload up (sweep also materializes its tree), "
             "rescaled to the reference speed; median of several set-ups"),
    EndToEnd("cpu_s", "s", "lower", 0.25,
             "host CPU seconds of one batch's cells on the default "
             "backend, rescaled to the reference speed (see "
             "reference.py); per-cell medians summed, or the median "
             "batch where cells do not repeat"),
    EndToEnd("cpu_s.pure", "s", "lower", 0.25,
             "the same batch with the compiled core forced off (fuzz and "
             "single-run are pure-only, so there it equals cpu_s)"),
    EndToEnd("cell_cpu_ms.p50", "ms", "lower", 0.25,
             "median rescaled CPU ms per cell (one run_experiment / "
             "check cell / CLI run), default backend; Harrell-Davis "
             "estimate"),
    EndToEnd("cell_cpu_ms.tail", "ms", "lower", 0.25,
             "highest percentile with at least 10 cells beyond it in the "
             "workload's minimum cell count (named in the output); "
             "Harrell-Davis estimate"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2,
             "peak resident set of the measuring process"),
    EndToEnd("sim_s", "s", "lower", 0.15,
             "simulated seconds summed over one batch (deterministic "
             "given the seed; guards protocol quality)"),
)

_ALL = WORKLOAD_NAMES


def _L(name, unit, better, moves, on, doc):
    return Layer(name, unit, better, tuple(moves), tuple(on), doc)


PER_LAYER = (
    _L("repro.import_s", "s", "lower", ["setup_s"], _ALL,
       "import repro in a fresh interpreter (median of the set-ups)"),
    _L("uts.materialize_s", "s", "lower", ["setup_s"], ["sweep"],
       "expanding the sweep tree into a MaterializedTree during set-up"),
    _L("uts.oracle_s", "s", "lower", ["cpu_s", "cell_cpu_ms.p50"],
       ["single-run", "fuzz"], "sequential oracle counts"),
    _L("uts.expand_s", "s", "lower", ["cpu_s", "cell_cpu_ms.p50"],
       ["single-run", "fuzz"],
       "time inside tree root/children/batch_expand calls"),
    _L("uts.expand_calls", "count", "lower", ["cpu_s", "cell_cpu_ms.p50"],
       ["single-run", "fuzz"], "calls into the tree"),
    _L("uts.nodes", "count", "lower", ["cpu_s", "cell_cpu_ms.p50"],
       ["single-run", "fuzz"], "tree nodes expanded"),
    _L("uts.self_s", "s", "lower", ["cpu_s"], ["single-run", "fuzz"],
       "self time of the uts layer (oracle + expansion)"),
    _L("harness.run_s", "s", "lower", ["cell_cpu_ms.p50"], ["fuzz"],
       "time inside run_experiment"),
    _L("harness.construct_s", "s", "lower", ["cell_cpu_ms.p50"], ["fuzz"],
       "run_experiment time minus RunResult.host_seconds"),
    _L("harness.self_s", "s", "lower", ["cell_cpu_ms.p50"], ["fuzz"],
       "self time of the harness layer"),
    _L("sim.dispatch_s", "s", "lower", ["cpu_s", "cpu_s.pure"], ["sweep"],
       "time inside Machine.run"),
    _L("sim.events", "count", "lower", ["cpu_s", "cpu_s.pure"], ["sweep"],
       "engine events dispatched"),
    _L("sim.events_per_s", "1/s", "higher", ["cpu_s", "cpu_s.pure"],
       ["sweep"], "events per second of Machine.run"),
    _L("sim.self_s", "s", "lower", ["cpu_s", "cpu_s.pure"], ["sweep"],
       "Machine.run minus the uts, obs, check and msg time inside it"),
    _L("ws.steal_attempts", "count", "lower", ["sim_s", "cpu_s"], ["sweep"],
       "steal attempts that reached a victim"),
    _L("ws.steals_ok", "count", "higher", ["sim_s", "cpu_s"], ["sweep"],
       "steals that obtained work"),
    _L("ws.steal_yield", "ratio", "higher", ["sim_s", "cpu_s"], ["sweep"],
       "steals_ok / steal_attempts"),
    _L("ws.probes", "count", "lower", ["sim_s", "cpu_s"], ["sweep"],
       "remote work_avail probes"),
    _L("ws.probes_per_steal", "ratio", "lower", ["sim_s", "cpu_s"],
       ["sweep"], "probes / steals_ok"),
    _L("ws.releases", "count", "lower", ["sim_s", "cpu_s"], ["sweep"],
       "chunks released to the shared region"),
    _L("ws.reacquires", "count", "lower", ["sim_s", "cpu_s"], ["sweep"],
       "chunks reacquired from the shared region"),
    _L("ws.requests_denied", "count", "lower", ["sim_s", "cpu_s"],
       ["sweep"], "steal requests denied by a victim"),
    _L("ws.working_frac", "ratio", "higher", ["sim_s"], ["sweep"],
       "share of thread-time in the working state"),
    _L("ws.parks", "count", "lower", ["cpu_s"], ["single-run"],
       "idle threads parked (park idle strategy)"),
    _L("pgas.lock_acq", "count", "lower", ["cpu_s"], ["sweep"],
       "global lock acquisitions"),
    _L("pgas.chunk_gets", "count", "lower", ["cpu_s"], ["sweep"],
       "one-sided chunk transfers started"),
    _L("msg.sent", "count", "lower", ["cpu_s"], ["sweep"],
       "messages sent (mpi-ws)"),
    _L("msg.tokens", "count", "lower", ["cpu_s"], ["sweep"],
       "termination tokens forwarded (mpi-ws)"),
    _L("msg.send_s", "s", "lower", ["cpu_s"], ["sweep"],
       "time inside MsgEndpoint.send resumptions"),
    _L("msg.self_s", "s", "lower", ["cpu_s"], ["sweep"],
       "self time of the msg layer"),
    _L("faults.injected", "count", "higher", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "faults injected (drops, stalls, stale reads, kills, ...)"),
    _L("faults.recoveries", "count", "lower", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "recovery actions (timeouts, relaunches, suspicions, ...)"),
    _L("faults.lost_work", "count", "lower", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "tree nodes lost to fail-stop faults"),
    _L("check.cells", "count", "higher", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "checked cells run"),
    _L("check.cells_failed", "count", "lower", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "checked cells that did not pass"),
    _L("check.monitor_s", "s", "lower", ["cpu_s", "cell_cpu_ms.tail"],
       ["fuzz"], "time inside InvariantMonitor.emit and final_check"),
    _L("check.self_s", "s", "lower", ["cpu_s", "cell_cpu_ms.tail"], ["fuzz"],
       "self time of the check layer (monitor + cell wrapper)"),
    _L("service.admitted", "count", "higher", ["cpu_s"], ["fuzz"],
       "service tasks admitted"),
    _L("service.shed", "count", "lower", ["cpu_s"], ["fuzz"],
       "service tasks shed"),
    _L("service.retries", "count", "lower", ["cpu_s"], ["fuzz"],
       "service task re-admissions"),
    _L("service.self_s", "s", "lower", ["cpu_s"], ["fuzz"],
       "self time of run_service outside the engine"),
    _L("obs.records", "count", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "trace records collected by TraceSink"),
    _L("obs.emit_s", "s", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run", "fuzz"], "time inside TraceSink.emit"),
    _L("obs.parse_s", "s", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "TraceSink.events (string parse)"),
    _L("obs.jsonl_s", "s", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "dump_jsonl"),
    _L("obs.chrome_s", "s", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "dump_chrome_trace"),
    _L("obs.report_s", "s", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "render_trace_report and write"),
    _L("obs.trace_bytes", "B", "lower", ["cpu_s", "peak_rss_mb"],
       ["single-run"], "bytes written by the three exporters"),
    _L("obs.self_s", "s", "lower", ["cpu_s"], ["single-run"],
       "self time of the obs layer"),
    _L("fastpath.speedup", "ratio", "higher", ["cpu_s"], ["sweep"],
       "cpu_s.pure / cpu_s of the same run"),
    _L("fastpath.build_s", "s", "lower", ["cpu_s"], ["sweep"],
       "compiling the C core out of tree (kept out of setup_s)"),
    _L("bench.trace_overhead", "ratio", "lower", ["cpu_s"], _ALL,
       "traced batch CPU / untraced batch CPU, same backend"),
    _L("bench.unattributed_s", "s", "lower", ["cpu_s"], _ALL,
       "traced wall time covered by no layer span"),
    _L("bench.traced_wall_s", "s", "lower", ["cpu_s"], _ALL,
       "wall time of one traced batch; equals the layer self times "
       "plus bench.unattributed_s"),
)

#: Layers whose self times add up (with bench.unattributed_s) to the
#: traced wall time.
SELF_LAYERS = ("harness", "sim", "uts", "obs", "check", "msg", "service")


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
