"""Tests of the benchmark's own code (not of the simulator).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import catalog, reference  # noqa: E402
from perfbench.spans import Recorder, TimedTree, instrument  # noqa: E402
from perfbench.stats import (harrell_davis, percentile,  # noqa: E402
                             tail_percentile)

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# -- the tail-percentile rule ------------------------------------------------


@pytest.mark.parametrize("n,expected", [
    (20, 50), (30, 66), (35, 71), (40, 75), (100, 90), (1000, 99), (19, None), (0, None),
])
def test_tail_percentile_values(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 21, 35, 57, 100, 101, 250, 999, 1000])
def test_tail_percentile_leaves_ten_beyond_and_is_highest(n):
    p = tail_percentile(n)
    assert n * (100 - p) >= 10 * 100
    assert p == 99 or n * (100 - (p + 1)) < 10 * 100
    values = list(range(n))
    assert sum(v > percentile(values, p) for v in values) >= 10


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_harrell_davis_is_a_smooth_percentile():
    assert harrell_davis([7.0] * 35, 71) == pytest.approx(7.0)
    assert harrell_davis([3.0], 50) == 3.0
    xs = list(range(1, 36))
    # Symmetric samples: the median estimate is the middle value.
    assert harrell_davis(xs, 50) == pytest.approx(18.0, rel=1e-6)
    assert harrell_davis(xs, 50) < harrell_davis(xs, 71) < max(xs)
    # One sample crossing its neighbour moves the estimate a little,
    # where the nearest-rank median jumps by the whole gap.
    a = [10.0] * 17 + [20.0] + [30.0] * 17
    b = [10.0] * 18 + [30.0] * 17
    assert percentile(a, 50) - percentile(b, 50) == 10.0
    assert 0 < harrell_davis(a, 50) - harrell_davis(b, 50) < 2.0


def test_harrell_davis_matches_the_beta_weights():
    beta = pytest.importorskip("scipy.stats").beta
    import random

    rng = random.Random(1)
    for n, p in ((30, 66), (35, 71), (100, 90)):
        xs = sorted(rng.lognormvariate(3, 0.5) for _ in range(n))
        a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
        want = sum(x * (beta.cdf(i / n, a, b) - beta.cdf((i - 1) / n, a, b))
                   for i, x in enumerate(xs, 1))
        assert harrell_davis(xs, p) == pytest.approx(want, rel=1e-6)


# -- the metric catalog ------------------------------------------------------


def test_metric_names_and_units():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for m in catalog.END_TO_END + catalog.PER_LAYER:
        assert METRIC_NAME.match(m.name), m.name
        assert catalog.NAME_RE.match(m.name), m.name
        assert catalog.UNIT_RE.match(m.unit), m.unit
        assert m.better in ("lower", "higher")


def test_metric_counts_and_bounds():
    assert 1 <= len(catalog.END_TO_END) <= 16
    assert 1 <= len(catalog.PER_LAYER) <= 128
    assert 2 <= len(catalog.WORKLOADS) <= 8
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in catalog.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(bounds.values())


def test_every_layer_metric_names_its_end_to_end_metric_and_workload():
    e2e = {m.name for m in catalog.END_TO_END}
    for m in catalog.PER_LAYER:
        assert m.moves and set(m.moves) <= e2e, m.name
        assert m.on and set(m.on) <= set(catalog.WORKLOAD_NAMES), m.name


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == catalog.manifest()


def test_readme_documents_every_metric_and_workload():
    with open(os.path.join(ROOT, "perfbench", "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    for name in ([m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
                 + list(catalog.WORKLOAD_NAMES)):
        assert f"`{name}`" in text, name


# -- the reference rescaling ------------------------------------------------


def test_reference_unit_is_fixed_work():
    assert reference.unit() == reference.unit()
    assert reference.sample() > 0


def test_every_workload_and_the_set_up_have_a_reference_mix():
    assert set(reference.MIXES) == set(catalog.WORKLOAD_NAMES) | {"setup"}
    assert all(0 <= q <= 4 for q in reference.MIXES.values())
    for q in range(5):
        assert reference.unit(q) == reference.unit(q)


def test_reference_sample_leaves_gc_as_it_was():
    import gc

    assert gc.isenabled()
    reference.sample()
    assert gc.isenabled()


def test_cell_clock_rescales_by_the_neighbouring_samples():
    clock = reference.CellClock()
    for _ in range(4):
        clock.start()
        sum(range(20000))
        clock.stop()
    clock.units = [1e-3, 2e-3, 1e-3, 2e-3, 1e-3]
    clock.raw = [10.0, 10.0, 10.0, 10.0]
    # Every cell sits between a 1 ms and a 2 ms sample: speed 1.5 ms.
    assert clock.scaled == pytest.approx(
        [10.0 * reference.UNIT_S / 1.5e-3] * 4)


def test_cell_clock_without_rescaling_runs_no_reference():
    clock = reference.CellClock(rescale=False)
    clock.start()
    clock.split()
    clock.stop()
    assert len(clock.raw) == 2 and clock.units == [] and clock.scaled == []


# -- spans -------------------------------------------------------------------


def test_self_times_add_up_to_outermost_spans():
    rec = Recorder()
    inner = rec.wrap("uts.children", lambda: sum(range(2000)))

    def body():
        for _ in range(5):
            inner()
        return sum(range(5000))

    outer = rec.wrap("sim.run", body, keep=True)
    for _ in range(3):
        outer()
    selfs = rec.layer_self()
    assert set(selfs) == {"uts", "sim"}
    assert all(v > 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(rec.top_s, rel=1e-9)
    assert rec.total("sim.run") == pytest.approx(rec.top_s, rel=1e-9)
    assert rec.calls("uts.children") == 15
    assert len(rec.spans) == 3 and rec.depth == 0


def test_generator_wrapper_forwards_values_and_exceptions():
    rec = Recorder()

    def worker(n):
        got = yield n
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    wrapped = rec.wrap_generator("msg.send", worker)

    def caller():
        result = yield from wrapped(3)
        return result

    gen = caller()
    assert next(gen) == 3
    assert gen.send(5) == 10
    assert gen.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert rec.calls("msg.send") == 4 and rec.depth == 0


# -- traced runs keep the schedule -------------------------------------------


def _identity(r):
    return (r.algorithm, r.n_threads, r.chunk_size, r.total_nodes,
            r.engine_events, r.sim_time)


@pytest.mark.parametrize("algorithm", ["upc-distmem", "mpi-ws", "upc-term"])
def test_timed_tree_keeps_the_schedule(algorithm):
    from repro import TreeParams, run_experiment
    from repro.uts import Tree, materialize

    params = TreeParams.binomial(b0=40, q=0.47, seed=3)
    plain = run_experiment(algorithm, tree=params, threads=8, chunk_size=4,
                           fastpath="pure", verify=True)
    rec = Recorder()
    for inner in (Tree(params), materialize(params)):
        proxied = run_experiment(algorithm, tree=TimedTree(inner, rec),
                                 threads=8, chunk_size=4, fastpath="pure")
        assert _identity(proxied) == _identity(plain)
    assert rec.calls("uts.children") + rec.calls("uts.batch_expand") > 0


def test_instrumented_layers_keep_the_schedule():
    from repro.check import check_run, check_service_run
    from repro.harness import parallel, runner
    from repro.pgas.machine import Machine

    cells = [dict(variant="mpi-ws", schedule_seed=4),
             dict(variant="upc-distmem", fault_spec="kill=3@103us",
                  fault_seed=2),
             dict(variant="upc-term", idle_strategy="park")]
    plain = [check_run(**c) for c in cells]
    plain_service = check_service_run(schedule_seed=1)
    originals = (runner.run_experiment, runner.tree_for,
                 parallel.shared_tree, Machine.run)
    seen = []
    rec = Recorder()
    with instrument(rec, lambda kind, payload: seen.append(kind)):
        assert Machine.run is not originals[3]
        traced = [check_run(**c) for c in cells]
        traced_service = check_service_run(schedule_seed=1)
    # Every swapped attribute is back.
    assert (runner.run_experiment, runner.tree_for, parallel.shared_tree,
            Machine.run) == originals
    for a, b in zip(plain + [plain_service], traced + [traced_service]):
        assert a.ok and b.ok
        assert (a.engine_events, a.total_nodes, a.sim_time, a.lost_work) == \
            (b.engine_events, b.total_nodes, b.sim_time, b.lost_work)
    assert seen.count("run") == 3 and seen.count("service") == 1
    assert rec.calls("msg.send") > 0 and rec.calls("check.emit") > 0
    assert rec.counts["pgas.chunk_gets"] > 0 and rec.locks
    assert rec.depth == 0
