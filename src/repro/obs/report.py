"""Markdown run report: the "read the run" document.

:func:`render_trace_report` turns one run's trace into a Markdown
report with the tables the paper's analysis leans on -- per-rank
state occupancy (the Fig.-1 "time in working state" view), the
steal-interaction matrix, the steal-latency histogram, a
termination-phase breakdown, and (on faulted runs) the injection and
recovery ledger.  ``tools/trace_report.py`` wraps it for JSONL logs
on disk; ``repro-uts run --trace run.md`` writes one directly.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.metrics.states import STATES
from repro.obs.analysis import (
    idle_summary,
    latency_buckets,
    service_summary,
    state_occupancy,
    steal_cells,
    steal_latencies,
    termination_from_occupancy,
)
from repro.obs.events import ObsEvent

__all__ = ["render_trace_report"]


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:,.1f}"


def _meta_section(meta: Dict[str, Any]) -> List[str]:
    lines = ["## Run", ""]
    if not meta:
        return lines + ["(no run metadata in this trace)", ""]
    order = ("algorithm", "threads", "chunk_size", "machine", "tree",
             "seed", "sim_time", "total_nodes")
    keys = [k for k in order if k in meta] + \
           sorted(k for k in meta if k not in order)
    lines += ["| field | value |", "|---|---|"]
    for k in keys:
        v = meta[k]
        if k == "sim_time":
            v = f"{v * 1e3:.3f} ms"
        lines.append(f"| {k} | {v} |")
    return lines + [""]


def _occupancy_section(occ: Dict[int, Dict[str, float]],
                       n_threads: int) -> List[str]:
    lines = ["## State occupancy (Figure 1)", "",
             "Share of each rank's time per state; the aggregate",
             "`working` share is the paper's Sect.-6.2 efficiency number.",
             "", "| rank | " + " | ".join(STATES) + " | working % |",
             "|---|" + "---|" * (len(STATES) + 1)]
    totals = dict.fromkeys(STATES, 0.0)
    for rank in range(n_threads):
        times = occ[rank]
        total = sum(times.values()) or 1.0
        for s in STATES:
            totals[s] += times[s]
        cells = " | ".join(_fmt_us(times[s]) for s in STATES)
        lines.append(f"| T{rank} | {cells} | "
                     f"{100 * times['working'] / total:.1f}% |")
    grand = sum(totals.values()) or 1.0
    cells = " | ".join(_fmt_us(totals[s]) for s in STATES)
    lines.append(f"| **all** | {cells} | "
                 f"**{100 * totals['working'] / grand:.1f}%** |")
    return lines + ["", "(times in simulated microseconds)", ""]


def _matrix_section(events: List[ObsEvent], n_threads: int) -> List[str]:
    cells = steal_cells(events, n_threads)
    total = sum(n for n, _ in cells.values())
    lines = ["## Steal-interaction matrix", "",
             f"{total} successful steal(s); rows are thieves, columns are "
             "victims (cell: steals, with nodes moved in parentheses).", ""]
    if total == 0:
        return lines + ["(no successful steals in this trace)", ""]
    header = "| thief \\ victim | " + \
        " | ".join(f"T{v}" for v in range(n_threads)) + " | total |"
    lines += [header, "|---|" + "---|" * (n_threads + 1)]
    # Almost every row is empty: render those from one string and patch
    # only the cells of the thieves that stole.
    empty = " | ".join(["·"] * n_threads)
    rows: Dict[int, List[str]] = {}
    row_totals = [0] * n_threads
    col_totals = [0] * n_threads
    for (thief, victim), (n, moved) in cells.items():
        rows.setdefault(thief, ["·"] * n_threads)[victim] = f"{n} ({moved})"
        row_totals[thief] += n
        col_totals[victim] += n
    for thief in range(n_threads):
        row = rows.get(thief)
        body = empty if row is None else " | ".join(row)
        lines.append(f"| T{thief} | {body} | {row_totals[thief]} |")
    lines.append("| **victimised** | " +
                 " | ".join(map(str, col_totals)) + f" | {total} |")
    return lines + [""]


def _latency_section(events: List[ObsEvent]) -> List[str]:
    lats = steal_latencies(events)
    lines = ["## Steal latency", ""]
    if not lats:
        return lines + ["(no completed steal attempts in this trace)", ""]
    outcomes = Counter(outcome for outcome, _ in lats)
    lines.append("Attempts by outcome: " + ", ".join(
        f"{k}={v}" for k, v in sorted(outcomes.items())) + ".")
    lines += ["", "| latency (µs) | attempts |", "|---|---|"]
    for lo, hi, count in latency_buckets([dt for _, dt in lats]):
        bar = "█" * count if count <= 60 else "█" * 60 + "…"
        lines.append(f"| [{lo:g}, {hi:g}) | {count} {bar} |")
    return lines + [""]


def _termination_section(events: List[ObsEvent], n_threads: int,
                         sim_time: float,
                         occ: Dict[int, Dict[str, float]]) -> List[str]:
    td = termination_from_occupancy(events, n_threads, sim_time, occ)
    lines = ["## Termination phase", ""]
    if td["announce_time"] is not None:
        lines.append(
            f"Termination announced at {_fmt_us(td['announce_time'])} µs; "
            f"tail (announce → end of run): {_fmt_us(td['tail_seconds'])} µs "
            f"of {_fmt_us(td['sim_time'])} µs total.")
    else:
        lines.append("No termination announcement event in this trace.")
    lines += ["", "| rank | barrier µs | entries | exits |",
              "|---|---|---|---|"]
    for rank in range(n_threads):
        lines.append(
            f"| T{rank} | {_fmt_us(td['barrier_seconds'][rank])} | "
            f"{td['barrier_entries'][rank]} | {td['barrier_exits'][rank]} |")
    return lines + [""]


def _idle_section(events: List[ObsEvent], n_threads: int) -> List[str]:
    ids = idle_summary(events, n_threads)
    if ids["total_parks"] == 0:
        return []
    lines = ["## Idle gate (park mode)", "",
             f"{ids['total_parks']} park(s) across "
             f"{sum(1 for p in ids['parks'] if p)} rank(s); "
             f"{_fmt_us(ids['total_parked_seconds'])} µs of simulated "
             "thread-time spent parked (costing zero pending events).",
             "", "| rank | parks | wakes | parked µs |", "|---|---|---|---|"]
    for rank in range(n_threads):
        if ids["parks"][rank] == 0 and ids["wakes"][rank] == 0:
            continue
        lines.append(
            f"| T{rank} | {ids['parks'][rank]} | {ids['wakes'][rank]} | "
            f"{_fmt_us(ids['parked_seconds'][rank])} |")
    return lines + [""]


def _percentile_row(values: List[float]) -> str:
    from repro.service.result import percentile
    vs = sorted(values)
    return (f"{_fmt_us(percentile(vs, 50.0))} | "
            f"{_fmt_us(percentile(vs, 95.0))} | "
            f"{_fmt_us(percentile(vs, 99.0))} | {_fmt_us(vs[-1])}")


def _service_section(events: List[ObsEvent]) -> List[str]:
    svc = service_summary(events)
    if svc["arrived"] == 0:
        return []
    sheds = svc["sheds"]
    shed_total = sum(sheds.values())
    shed_txt = ", ".join(f"{k}={v}" for k, v in sorted(sheds.items())) \
        if sheds else "none"
    lines = ["## Service (open-system stream)", "",
             f"{svc['arrived']} task(s) arrived; "
             f"{svc['completed']} completed, {shed_total} shed "
             f"({shed_txt}), {svc['lost']} lost to faults, "
             f"{svc['retries']} deadline retries; "
             f"peak queue depth {svc['queue_peak']}."]
    if svc["close_time"] is not None:
        lines.append(f"Stream drained (`service.close`) at "
                     f"{_fmt_us(svc['close_time'])} µs.")
    lines += ["", "| metric (µs) | p50 | p95 | p99 | max |",
              "|---|---|---|---|---|"]
    if svc["waits"]:
        lines.append(f"| queue wait | {_percentile_row(svc['waits'])} |")
    if svc["latencies"]:
        lines.append(f"| task latency | "
                     f"{_percentile_row(svc['latencies'])} |")
    return lines + [""]


def _fault_section(events: List[ObsEvent]) -> List[str]:
    counts = Counter(e.kind for e in events
                     if e.kind.startswith(("fault.", "recover.")))
    if not counts:
        return []
    lines = ["## Faults and recovery", "",
             "| event | count |", "|---|---|"]
    for kind, n in sorted(counts.items()):
        lines.append(f"| {kind} | {n} |")
    return lines + [""]


def render_trace_report(events: List[ObsEvent],
                        meta: Optional[Dict[str, Any]] = None,
                        n_threads: Optional[int] = None,
                        sim_time: Optional[float] = None) -> str:
    """Render the full Markdown run report for one trace."""
    meta = dict(meta or {})
    if n_threads is None:
        n_threads = meta.get("threads")
    if sim_time is None:
        sim_time = meta.get("sim_time")
    if n_threads is None:
        n_threads = max((e.rank for e in events), default=-1) + 1 or 1
    if sim_time is None:
        sim_time = max((e.time for e in events), default=0.0)

    counts = Counter(e.kind for e in events)
    lines = ["# Trace report", ""]
    lines += _meta_section(meta)
    lines += ["## Event census", "",
              f"{len(events)} event(s) across {n_threads} rank(s).", "",
              "| kind | count |", "|---|---|"]
    for kind, n in sorted(counts.items()):
        lines.append(f"| {kind} | {n} |")
    lines.append("")
    occ = state_occupancy(events, n_threads, sim_time)
    lines += _occupancy_section(occ, n_threads)
    lines += _matrix_section(events, n_threads)
    lines += _latency_section(events)
    lines += _termination_section(events, n_threads, sim_time, occ)
    lines += _idle_section(events, n_threads)
    lines += _service_section(events)
    lines += _fault_section(events)
    return "\n".join(lines)
