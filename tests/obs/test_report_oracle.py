"""The report's O(records + ranks) sections against dense references.

``reference_matrix_section`` is the steal-matrix renderer the report
used to run: it fills both n x n matrices and formats every cell.  The
report now accumulates only the (thief, victim) pairs that stole and
patches them into one precomputed empty row; these tests hold it to
the dense renderer byte for byte, on a synthetic trace over a few
hundred ranks and on a real 1024-thread park run.  The real run's
three exports are also pinned to the digests the json-encoder and
dense-matrix exporters wrote for it.
"""

import hashlib
import random

import pytest

from repro import TreeParams, run_experiment
from repro.obs import (ObsEvent, TraceSink, dump_chrome_trace, dump_jsonl,
                       render_trace_report, steal_latencies,
                       steal_latency_histogram)
from repro.ws.config import WsConfig


def reference_matrix_section(events, n_threads):
    """The dense renderer: an n x n pass over both matrices."""
    steals = [[0] * n_threads for _ in range(n_threads)]
    nodes = [[0] * n_threads for _ in range(n_threads)]
    for ev in events:
        if ev.kind != "steal":
            continue
        victim = ev.args.get("from")
        if victim is None or not (0 <= ev.rank < n_threads) \
                or not (0 <= victim < n_threads):
            continue
        steals[ev.rank][victim] += 1
        nodes[ev.rank][victim] += ev.args.get("nodes", 0)
    total = sum(map(sum, steals))
    lines = ["## Steal-interaction matrix", "",
             f"{total} successful steal(s); rows are thieves, columns are "
             "victims (cell: steals, with nodes moved in parentheses).", ""]
    if total == 0:
        return lines + ["(no successful steals in this trace)", ""]
    header = "| thief \\ victim | " + \
        " | ".join(f"T{v}" for v in range(n_threads)) + " | total |"
    lines += [header, "|---|" + "---|" * (n_threads + 1)]
    for thief in range(n_threads):
        row = steals[thief]
        cells = " | ".join(
            f"{row[v]} ({nodes[thief][v]})" if row[v] else "·"
            for v in range(n_threads))
        lines.append(f"| T{thief} | {cells} | {sum(row)} |")
    col_totals = [sum(steals[t][v] for t in range(n_threads))
                  for v in range(n_threads)]
    lines.append("| **victimised** | " +
                 " | ".join(str(c) for c in col_totals) + f" | {total} |")
    return lines + [""]


def reference_latency_histogram(events):
    """One scan of every latency per bucket."""
    latencies = [dt for _, dt in steal_latencies(events)]
    if not latencies:
        return []
    edges = [0.0, 1.0]
    while max(latencies) * 1e6 >= edges[-1]:
        edges.append(edges[-1] * 2)
    return [(lo, hi, sum(1 for dt in latencies if lo <= dt * 1e6 < hi))
            for lo, hi in zip(edges, edges[1:])]


def matrix_section_of(report):
    start = report.index("## Steal-interaction matrix")
    return report[start:report.index("## Steal latency")]


def synthetic_trace(n_threads=320, n_steals=40, seed=5):
    """Steals (some from out-of-range victims or rank -1), plus noise."""
    rng = random.Random(seed)
    events = []
    t = 0.0
    for i in range(n_steals):
        t += rng.uniform(0.5e-6, 4e-6)
        thief = rng.randrange(n_threads)
        victim = rng.randrange(n_threads)
        events.append(ObsEvent(t, thief, "steal.req", {"victim": victim}))
        if i % 9 == 4:
            victim = rng.choice([n_threads, n_threads + 17, -1])
        if i % 11 == 7:
            thief = -1
        t += rng.uniform(1e-7, 3e-5)
        events.append(ObsEvent(t, thief, "steal",
                               {"from": victim, "chunks": 1,
                                "nodes": rng.randrange(1, 64)}))
        if i % 5 == 0:  # the same pair again: a cell holding > 1 steal
            events.append(ObsEvent(t, thief, "steal",
                                   {"from": victim, "chunks": 2,
                                    "nodes": 16}))
        if i % 7 == 3:
            events.append(ObsEvent(t, rng.randrange(n_threads), "steal.fail",
                                   {"victim": victim, "reason": "empty"}))
    events.append(ObsEvent(t, 3, "steal", {"chunks": 1}))  # no victim
    events.append(ObsEvent(t, -1, "task.arrive", {"task": 0}))
    events.append(ObsEvent(t, -1, "service.close", {"admitted": 1}))
    return events


def test_matrix_section_matches_dense_reference_on_synthetic_trace():
    events = synthetic_trace()
    report = render_trace_report(events, n_threads=320, sim_time=1e-3)
    expected = "\n".join(reference_matrix_section(events, 320)) + "\n"
    assert matrix_section_of(report) == expected
    assert "| **victimised** |" in expected  # the trace did steal


def test_matrix_section_without_steals():
    events = [ObsEvent(0.0, 0, "steal.req", {"victim": 1})]
    report = render_trace_report(events, n_threads=300)
    assert matrix_section_of(report) == \
        "\n".join(reference_matrix_section(events, 300)) + "\n"


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_latency_buckets_match_per_bucket_scan(seed):
    events = synthetic_trace(seed=seed)
    # Latencies landing exactly on bucket edges.
    events += [ObsEvent(0.0, 900, "steal.req", {}),
               ObsEvent(8e-6, 900, "steal", {"from": 1}),
               ObsEvent(0.0, 901, "steal.req", {}),
               ObsEvent(1e-6, 901, "steal.fail", {"reason": "busy"})]
    assert steal_latency_histogram(events) == \
        reference_latency_histogram(events)


# -- a real 1024-thread park run ------------------------------------------

PARK_TREE = TreeParams.binomial(b0=6000, m=2, q=0.4, seed=7)

#: sha256 of the run's exports as the json-encoder / dense-matrix
#: writers produced them.
PARK_DIGESTS = {
    "jsonl":
        "5f90315e30a90887221865753400bf0556f75cce3d7cbedb1f3b040266652db5",
    "chrome":
        "08c80ff79b84176836b55b84b23164e54c4b5fd86b8dbca767051c3c8722bbf1",
    "report":
        "d1eaabd1547c6d1c86e7122926aa0e9c4165afe60d49427111068eb95b5053f5",
}


@pytest.fixture(scope="module")
def park_1024():
    sink = TraceSink()
    run_experiment("upc-distmem", tree=PARK_TREE, threads=1024,
                   preset="kittyhawk",
                   config=WsConfig(chunk_size=8, idle_strategy="park"),
                   verify=True, tracer=sink)
    return sink.events(), sink.meta


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_park_1024_report_matches_dense_reference(park_1024):
    events, meta = park_1024
    report = render_trace_report(events, meta)
    expected = "\n".join(reference_matrix_section(events, 1024)) + "\n"
    assert matrix_section_of(report) == expected
    assert steal_latency_histogram(events) == \
        reference_latency_histogram(events)
    assert _sha(report.encode("utf-8")) == PARK_DIGESTS["report"]


def test_park_1024_exports_are_byte_identical(park_1024, tmp_path):
    events, meta = park_1024
    dump_jsonl(str(tmp_path / "t.jsonl"), events, meta)
    dump_chrome_trace(str(tmp_path / "t.json"), events, meta=meta)
    assert _sha((tmp_path / "t.jsonl").read_bytes()) == PARK_DIGESTS["jsonl"]
    assert _sha((tmp_path / "t.json").read_bytes()) == PARK_DIGESTS["chrome"]
