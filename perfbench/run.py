#!/usr/bin/env python3
"""Host-cost benchmark of the repro simulator: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes
    python3 perfbench/run.py --write-manifest             # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics on untraced batches;
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path[0] = ROOT
elif ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import catalog, reference  # noqa: E402
from perfbench.stats import harrell_davis, median, tail_percentile  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPS = 3
#: CPU seconds of reference run before and after each set-up.
SETUP_REF_S = 0.1
#: Never measure past this, whatever --seconds says (180 s exit limit).
HARD_CAP_S = 120.0

_clock = time.perf_counter


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=catalog.WORKLOAD_NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from perfbench/catalog.py")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(catalog.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return _probe(args)
    if args.workload == "all":
        return _run_all(args)
    return _measure(args)


# -- set-up probes -----------------------------------------------------------


def _probe(args) -> int:
    """Child process: import the package and set the workload up.
    Reports the CPU time this process used (interpreter start included,
    the reference excluded) and the reference speed before and after,
    sampled here so that they ran on the same core as the set-up."""
    c0 = time.process_time()
    before = reference.sample(SETUP_REF_S / reference.SHARE,
                              reference.MIXES["setup"])
    ref_s = time.process_time() - c0
    c0 = time.process_time()
    import repro  # noqa: F401

    import_s = time.process_time() - c0
    from perfbench.workloads import WORKLOADS

    info = WORKLOADS[args.workload]().setup(args.seed)
    setup_cpu_s = time.process_time() - ref_s
    after = reference.sample(SETUP_REF_S / reference.SHARE,
                             reference.MIXES["setup"])
    print(json.dumps({"setup_cpu_s": setup_cpu_s, "before": before,
                      "after": after, "import_s": import_s, **info}),
          flush=True)
    return 0


def _setup_once(workload: str, seed: int) -> dict:
    """One fresh interpreter that imports and sets up, then exits.
    setup_s is its CPU time rescaled to the reference speed around it;
    its own timings get the same factor."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FASTPATH"}
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        out = proc.stdout.read()
        code = proc.wait(timeout=60)
    line = out.strip().split("\n")[-1] if out.strip() else ""
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    info = json.loads(line)
    scale = reference.UNIT_S / (0.5 * (info.pop("before")
                                       + info.pop("after")))
    info["setup_s"] = info["setup_cpu_s"] * scale
    for key in ("import_s", "materialize_s"):
        if key in info:
            info[key] *= scale
    return info


# -- measurement -------------------------------------------------------------


class _Harvest:
    """Reads the protocol counters off every result the traced run
    returns (RunResult from run_experiment, ServiceResult from
    run_service)."""

    def __init__(self, counts) -> None:
        from repro.metrics.counters import aggregate

        self.aggregate = aggregate
        self.c = counts
        self.construct_s = 0.0
        self.working = 0.0
        self.thread_time = 0.0

    def __call__(self, kind: str, payload) -> None:
        res, dt = payload
        c = self.c
        stats = self.aggregate(res.per_thread)
        c["sim.events"] += res.engine_events
        for name in ("steal_attempts", "steals_ok", "probes", "releases",
                     "reacquires", "requests_denied"):
            c["ws." + name] += getattr(stats, name)
        c["msg.sent"] += stats.msgs_sent
        c["msg.tokens"] += stats.tokens_forwarded
        self.working += stats.state_times.get("working", 0.0)
        self.thread_time += sum(stats.state_times.values())
        c["faults.lost_work"] += res.lost_work
        fc = res.fault_counters
        if fc is not None:
            d = fc.as_dict()
            c["faults.injected"] += sum(d[k] for k in _INJECTED)
            c["faults.recoveries"] += sum(d[k] for k in _RECOVERIES)
        if kind == "run":
            self.construct_s += dt - res.host_seconds
        else:
            c["service.admitted"] += res.admitted
            c["service.shed"] += sum(res.shed.values())
            c["service.retries"] += res.retries


_INJECTED = ("msgs_dropped", "msgs_duplicated", "msgs_delayed",
             "msgs_to_dead", "lock_stalls", "stale_windows", "stale_reads",
             "threads_killed")
_RECOVERIES = ("steal_timeouts", "dup_requests_suppressed",
               "stale_responses", "token_relaunches", "stale_tokens",
               "heartbeat_suspicions")


def _measure(args) -> int:
    from perfbench.build import ensure_core, load_core
    from perfbench.workloads import WORKLOADS

    t_start = _clock()
    build = ensure_core(ROOT, os.path.join(HERE, "_build"))
    probes = [_setup_once(args.workload, args.seed)
              for _ in range(SETUP_REPS)]

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    notes = []
    attempted = failed = 0
    if wl.needs_core:
        wl.core = load_core(build)
        if not wl.core:
            notes.append(f"compiled core unavailable: {build.error}")
            if build.compiler:
                # A host with a compiler must measure the compiled core.
                attempted += 1
                failed += 1
                notes.append("counted as a failed run (a compiler is "
                             "present)")
    wl.setup(args.seed)

    stop_at = _clock() + args.seconds
    cap = t_start + HARD_CAP_S
    untraced, traced = [], []
    failures = []
    rec = None
    traced_wall = 0.0
    if args.trace:
        from perfbench.spans import Recorder, instrument

        rec = Recorder()
        harvest = _Harvest(rec.counts)
    index = 0
    while True:
        t0 = _clock()
        batch = wl.run_batch(index)
        untraced.append(batch)
        failures += batch.failures
        attempted += batch.attempted
        if rec is not None:
            with instrument(rec, harvest):
                t1 = _clock()
                tb = wl.run_batch(index, rec)
                traced_wall += _clock() - t1
            traced.append(tb)
            attempted += tb.attempted
            failures += tb.failures
            failures += [f"traced schedule differs: {a} vs {b}"
                         for a, b in zip(batch.identities, tb.identities)
                         if a != b]
            if len(tb.identities) != len(batch.identities):
                failures.append("traced batch ran a different cell count")
        index += 1
        now = _clock()
        cells = sum(len(b.cell_ms) for b in untraced)
        if now >= cap or not batch.cell_ms:
            break
        # Untraced runs keep going until the tail percentile has its
        # cells; traced runs report no percentiles.
        need = 0 if args.trace else wl.min_cells
        if cells >= need and now + 0.5 * (now - t0) >= stop_at:
            break
    failed = min(failed + len(failures), attempted)

    checksum = hashlib.sha256(
        repr([b.identities for b in untraced]).encode()).hexdigest()[:16]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(untraced)}  results checksum {checksum}")
    print(f"fail_frac {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    for line in notes + failures[:20]:
        print("  " + line)

    metrics = {}
    if args.trace:
        ok, metrics = _layer_metrics(wl, rec, harvest, untraced, traced,
                                     traced_wall, probes, build)
        if not ok:
            failed += 1
            attempted += 1
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        rec.write(os.path.join(HERE, "_out",
                               f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = _end_to_end(wl, untraced, probes)
    units = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    for name, (value, note) in metrics.items():
        print(f"  {name:22s} {value:14.6g} {units[name]:6s} {note}")
        result["metrics"][name] = {"value": value, "unit": units[name]}
    print(json.dumps(result))
    return 0


def _cells(wl, lists) -> list:
    """The cell population of a run, from one list per batch."""
    if wl.repeats_cells:
        # One time per distinct cell: its median over the batches, so a
        # slow moment of the host does not land in the tail.
        return [median(ts) for ts in zip(*lists)]
    return [ms for cells in lists for ms in cells]


def _batch_s(wl, lists) -> float:
    """Seconds of one batch: the sum of the per-cell medians where
    every batch repeats its cells, else the median batch."""
    if wl.repeats_cells:
        return sum(_cells(wl, lists)) / 1e3
    return median([sum(cells) for cells in lists]) / 1e3


def _pure(batches) -> list:
    """Per-cell rescaled ms of the batches that ran a pure pass."""
    return [b.cell_scaled_pure for b in batches if b.cell_ms_pure]


def _end_to_end(wl, batches, probes) -> dict:
    # A batch that ran no cell has failed; report zeros, not a crash.
    cells = _cells(wl, [b.cell_scaled for b in batches]) or [0.0]
    p_tail = tail_percentile(wl.min_cells)
    n_b = len(batches)
    per_cell = f", each the median of {n_b} batches" if wl.repeats_cells else ""
    per_batch = (f"sum of per-cell medians over {n_b} batches"
                 if wl.repeats_cells else f"median of {n_b} batches")
    per_batch_pure = per_batch.replace(str(n_b), str(len(_pure(batches))))
    raw = _batch_s(wl, [b.cell_ms for b in batches])
    print(f"unscaled CPU: batch {raw:.4f} s, set-up "
          f"{median([p['setup_cpu_s'] for p in probes]):.4f} s "
          f"(rescaled to a reference unit of {reference.UNIT_S * 1e3} ms)")
    return {
        "setup_s": (median([p["setup_s"] for p in probes]),
                    f"median of {len(probes)} set-ups"),
        "cpu_s": (_batch_s(wl, [b.cell_scaled for b in batches]) or 0.0,
                  per_batch),
        "cpu_s.pure": (_batch_s(wl, _pure(batches)) or 0.0,
                       per_batch_pure),
        "cell_cpu_ms.p50": (harrell_davis(cells, 50),
                            f"HD p50 of n={len(cells)} cells{per_cell}"),
        "cell_cpu_ms.tail": (harrell_davis(cells, p_tail),
                             f"HD p{p_tail} of n={len(cells)} "
                             f"cells{per_cell}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "ru_maxrss"),
        "sim_s": (median([b.sim_s for b in batches]),
                  f"median of {n_b} batches"),
    }


def _layer_metrics(wl, rec, harvest, untraced, traced, traced_wall, probes,
                   build):
    """Per-layer metrics, per traced batch; returns (spans_ok, metrics)."""
    n = len(traced)
    c = rec.counts
    selfs = rec.layer_self()
    unattributed = traced_wall - rec.top_s
    per = lambda v: v / n  # noqa: E731
    uts = ("uts.root", "uts.children", "uts.batch_expand")
    lock_acq = sum(lk.acquisitions for lk in rec.locks)
    events = per(c["sim.events"])
    dispatch = per(rec.total("sim.run"))
    attempts, ok = c["ws.steal_attempts"], c["ws.steals_ok"]
    # Traced batches run pure: compare each with its untraced twin.
    pairs = [(b, t) for b, t in zip(untraced, traced) if b.cell_ms_pure]
    same_backend = sum(b.cpu_pure for b, _ in pairs)
    if wl.core:
        fast = _batch_s(wl, [b.cell_scaled for b in untraced])
        speedup = (_batch_s(wl, _pure(untraced)) / fast if fast else 0.0)
    else:
        speedup = 0.0
    m = {
        "repro.import_s": median([p["import_s"] for p in probes]),
        "uts.materialize_s": median([p.get("materialize_s", 0.0)
                                     for p in probes]),
        "uts.oracle_s": per(rec.total("uts.oracle")),
        "uts.expand_s": per(rec.total(*uts)),
        "uts.expand_calls": per(rec.calls(*uts)),
        "uts.nodes": per(rec.calls("uts.children") + c["uts.batch_nodes"]),
        "harness.run_s": per(rec.total("harness.run_experiment")),
        "harness.construct_s": per(harvest.construct_s),
        "sim.dispatch_s": dispatch,
        "sim.events": events,
        "sim.events_per_s": events / dispatch if dispatch else 0.0,
        "ws.steal_attempts": per(attempts),
        "ws.steals_ok": per(ok),
        "ws.steal_yield": ok / attempts if attempts else 0.0,
        "ws.probes": per(c["ws.probes"]),
        "ws.probes_per_steal": c["ws.probes"] / ok if ok else 0.0,
        "ws.releases": per(c["ws.releases"]),
        "ws.reacquires": per(c["ws.reacquires"]),
        "ws.requests_denied": per(c["ws.requests_denied"]),
        "ws.working_frac": (harvest.working / harvest.thread_time
                            if harvest.thread_time else 0.0),
        "ws.parks": per(c["ws.parks"]),
        "pgas.lock_acq": per(lock_acq),
        "pgas.chunk_gets": per(c["pgas.chunk_gets"]),
        "msg.sent": per(c["msg.sent"]),
        "msg.tokens": per(c["msg.tokens"]),
        "msg.send_s": per(rec.total("msg.send")),
        "faults.injected": per(c["faults.injected"]),
        "faults.recoveries": per(c["faults.recoveries"]),
        "faults.lost_work": per(c["faults.lost_work"]),
        "check.cells": per(rec.calls("check.cell")),
        "check.cells_failed": per(c["check.cells_failed"]),
        "check.monitor_s": per(rec.total("check.emit", "check.final")),
        "service.admitted": per(c["service.admitted"]),
        "service.shed": per(c["service.shed"]),
        "service.retries": per(c["service.retries"]),
        "obs.records": per(c["obs.records"]),
        "obs.emit_s": per(rec.total("obs.emit")),
        "obs.parse_s": per(rec.total("obs.parse")),
        "obs.jsonl_s": per(rec.total("obs.jsonl")),
        "obs.chrome_s": per(rec.total("obs.chrome")),
        "obs.report_s": per(rec.total("obs.report")),
        "obs.trace_bytes": per(c["obs.trace_bytes"]),
        "fastpath.speedup": speedup,
        "fastpath.build_s": build.build_s,
        "bench.trace_overhead": (sum(t.cpu for _, t in pairs) / same_backend
                                 if same_backend else 0.0),
        "bench.unattributed_s": per(unattributed),
        "bench.traced_wall_s": per(traced_wall),
    }
    for layer in catalog.SELF_LAYERS:
        m[f"{layer}.self_s"] = per(selfs.get(layer, 0.0))
    notes = {"repro.import_s": f"median of {len(probes)} set-ups",
             "uts.materialize_s": f"median of {len(probes)} set-ups",
             "fastpath.build_s": "compile of this checkout's core",
             "fastpath.speedup": ("untraced batch medians" if wl.core
                                  else "n/a: pure-only workload"),
             "bench.trace_overhead": f"over {n} traced batch(es)"}
    # The layer self times and the remainder must add up to the traced
    # wall time, with no span left open and none negative.
    total = sum(selfs.values()) + unattributed
    spans_ok = (rec.depth == 0 and unattributed >= 0
                and all(v >= -1e-9 for v in selfs.values())
                and set(selfs) <= set(catalog.SELF_LAYERS)
                and abs(total - traced_wall) <= 1e-6 * max(traced_wall, 1.0))
    print(f"traced wall {traced_wall:.6f} s = layer self "
          f"{sum(selfs.values()):.6f} s + unattributed {unattributed:.6f} s"
          f" ({'reconciled' if spans_ok else 'NOT RECONCILED'})")
    default = {"ratio": "over all traced batches",
               "1/s": "over all traced batches"}
    return spans_ok, {x.name: (m[x.name], notes.get(
        x.name, default.get(x.unit, "per traced batch")))
        for x in catalog.PER_LAYER}


def _run_all(args) -> int:
    """Every workload, untraced then traced, one process at a time."""
    code = 0
    for workload in catalog.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1]) if proc.returncode == 0 else {}
            if proc.returncode != 0 or not last.get("correct"):
                code = 1
            print(f"-> correct={last.get('correct')} "
                  f"attempted={last.get('attempted')} "
                  f"failed={last.get('failed')}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
