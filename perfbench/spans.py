"""Layer spans recorded from outside the program.

The traced run never edits program code: :func:`instrument` swaps a
timing wrapper in for each public entry point of a layer (module
functions and class methods), and :class:`TimedTree` stands in for the
tree object handed to the algorithms.  Every wrapper opens a span on a
stack; a span's self time is its duration minus the time of the spans
opened inside it, so the self times of all spans add up to the time
covered by the outermost ones.

Coarse spans (one per run, per export, per cell) are kept individually
and written out at the end; per-node and per-event spans (tree
expansion, trace emits, message sends) are only aggregated, because a
traced sweep opens millions of them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """Span stack, per-name aggregates and layer counters."""

    def __init__(self) -> None:
        #: Open spans: ``[child_seconds, kept_span_index, start]``.
        self._stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.agg: Dict[str, list] = {}
        #: Kept spans: [name, start, end, parent_index].
        self.spans: List[list] = []
        #: Summed duration of the outermost spans.
        self.top_s = 0.0
        self.counts: Counter = Counter()
        #: Global locks allocated by instrumented machines.
        self.locks: List[Any] = []

    # -- spans ---------------------------------------------------------------

    def _slot(self, name: str) -> list:
        slot = self.agg.get(name)
        if slot is None:
            slot = self.agg[name] = [0, 0.0, 0.0]
        return slot

    def _open(self, name: str, keep: bool) -> list:
        """Push a span frame: ``[child_seconds, kept_index, start]``."""
        stack = self._stack
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
        frame = [0.0, index, 0.0]
        stack.append(frame)
        frame[2] = _clock()
        return frame

    def _close(self, frame: list, slot: list) -> float:
        """Pop ``frame``; charge its time to ``slot`` and its parent."""
        t1 = _clock()
        dt = t1 - frame[2]
        stack = self._stack
        stack.pop()
        slot[0] += 1
        slot[1] += dt
        slot[2] += dt - frame[0]
        if stack:
            stack[-1][0] += dt
        else:
            self.top_s += dt
        if frame[1] >= 0:
            self.spans[frame[1]][1:3] = [frame[2], t1]
        return dt

    def wrap(self, name: str, fn: Callable, keep: bool = False,
             after: Optional[Callable[[Any, float], None]] = None) -> Callable:
        """``fn`` timed as one span named ``name`` per call; ``after``
        gets ``(result, seconds)`` once the span has closed."""
        slot = self._slot(name)
        open_, close = self._open, self._close

        def timed(*args, **kwargs):
            frame = open_(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = close(frame, slot)
            if after is not None:
                after(out, dt)
            return out

        timed.__wrapped__ = fn
        return timed

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: each resumption
        of the generator is one span (the time it spends suspended in
        the engine is not its own)."""
        slot = self._slot(name)
        open_, close = self._open, self._close

        def timed(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                frame = open_(name, False)
                try:
                    item = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(frame, slot)
                value, exc = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into fn's body
                    exc = err

        timed.__wrapped__ = fn
        return timed

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` unchanged except that each call adds one to
        ``counts[name]`` (for generator functions, whose cost is spent
        after the call returns)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def span(self, name: str):
        """A kept span around a block of bench code."""
        slot = self._slot(name)
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame, slot)

    # -- read-out ------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Spans still open."""
        return len(self._stack)

    def total(self, *names: str) -> float:
        return sum(self.agg[n][1] for n in names if n in self.agg)

    def calls(self, *names: str) -> int:
        return sum(self.agg[n][0] for n in names if n in self.agg)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        out: Dict[str, float] = {}
        for name, (_, _, self_s) in self.agg.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write(self, path: str) -> None:
        """Kept spans, then the aggregates, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
            for name, (calls, total, self_s) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_s": total, "self_s": self_s})
                         + "\n")


class TimedTree:
    """A tree stand-in that times every call into the real tree.

    It exposes what the algorithms use of a tree -- ``root``,
    ``children``, ``params``, ``describe`` and, when the real tree is
    materialized, ``batch_expand`` -- and nothing else, so compiled
    paths that need the materialized tree's internals stay off (traced
    runs use the pure backend).
    """

    def __init__(self, inner: Any, rec: Recorder) -> None:
        self.params = inner.params
        self.root = rec.wrap("uts.root", inner.root)
        self.children = rec.wrap("uts.children", inner.children)
        inner_describe = getattr(inner, "describe", None)
        if callable(inner_describe):
            self.describe = inner_describe
        else:
            self.describe = lambda: repr(inner)
        batch = getattr(inner, "batch_expand", None)
        if batch is not None:
            counts = rec.counts

            def visited(out, _dt):
                counts["uts.batch_nodes"] += out[0]

            self.batch_expand = rec.wrap("uts.batch_expand", batch,
                                         after=visited)


class Patches:
    """Attribute swaps undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


@contextmanager
def instrument(rec: Recorder, harvest: Callable[[str, Any], None]):
    """Wrap the layers' public entry points for the duration of the
    block.  ``harvest(kind, result)`` receives every RunResult
    (``"run"``) and ServiceResult (``"service"``) so the caller can
    read the protocol counters they carry."""
    import repro.service as service
    from repro.check.invariants import InvariantMonitor
    from repro.harness import parallel, runner
    from repro.msg.comm import MsgEndpoint
    from repro.obs.sink import TraceSink
    from repro.pgas.machine import Machine, UpcContext
    from repro.sim.trace import Tracer
    from repro.ws.idle import IdleGate

    p = Patches()
    locks = rec.locks
    try:
        orig_tree_for = runner.tree_for
        orig_shared = parallel.shared_tree
        p.set(runner, "tree_for",
              lambda params: TimedTree(orig_tree_for(params), rec))
        p.set(parallel, "shared_tree",
              lambda params: TimedTree(orig_shared(params), rec))
        p.set(runner, "expected_node_count",
              rec.wrap("uts.oracle", runner.expected_node_count, keep=True))
        p.set(runner, "run_experiment",
              rec.wrap("harness.run_experiment", runner.run_experiment,
                       keep=True, after=lambda r, dt: harvest("run", (r, dt))))
        p.set(service, "run_service",
              rec.wrap("service.run", service.run_service, keep=True,
                       after=lambda r, dt: harvest("service", (r, dt))))
        p.set(Machine, "run", rec.wrap("sim.run", Machine.run, keep=True))
        p.set(Machine, "global_lock",
              _collect(Machine.global_lock, locks.append))
        p.set(Machine, "lock_array",
              _collect(Machine.lock_array, locks.extend))
        p.set(UpcContext, "chunk_get",
              rec.count("pgas.chunk_gets", UpcContext.chunk_get))
        p.set(IdleGate, "park", rec.count("ws.parks", IdleGate.park))
        p.set(MsgEndpoint, "send",
              rec.wrap_generator("msg.send", MsgEndpoint.send))
        p.set(TraceSink, "emit", rec.wrap("obs.emit", Tracer.emit))
        p.set(InvariantMonitor, "emit",
              rec.wrap("check.emit", InvariantMonitor.emit))
        p.set(InvariantMonitor, "final_check",
              rec.wrap("check.final", InvariantMonitor.final_check,
                       keep=True))
        yield rec
    finally:
        p.undo()


def _collect(fn: Callable, sink: Callable[[Any], None]) -> Callable:
    def collecting(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink(out)
        return out

    collecting.__wrapped__ = fn
    return collecting
