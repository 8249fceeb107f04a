"""Chrome ``trace_event`` exporter (Perfetto / ``chrome://tracing``).

Turns a run's structured events into the Trace Event Format JSON that
Perfetto and Chrome's legacy viewer load directly: one process for the
run, one track (thread) per simulated rank, each rank's Figure-1 state
machine rendered as complete ("X") slices and every protocol event as
an instant ("i") mark on its rank's track.  Timestamps are simulated
microseconds.

The output is a plain dict; :func:`dump_chrome_trace` serialises it
deterministically (sorted keys) so traces of identical runs are
byte-identical and can be golden-file tested and diffed.  The writer
fills one fixed template per event phase instead of running json's
pure-Python indenting encoder over every event, and produces exactly
the bytes of ``json.dumps(doc, sort_keys=True, indent=1) + "\n"``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.metrics.states import SEARCHING, WORKING
from repro.obs.events import ObsEvent

__all__ = ["to_chrome_trace", "dump_chrome_trace"]

_PID = 0


def _initial_state(rank: int) -> str:
    """Rank 0 starts working (it holds the root); everyone else searches."""
    return WORKING if rank == 0 else SEARCHING


def _infer(events: List[ObsEvent], n_threads: Optional[int],
           sim_time: Optional[float]) -> tuple:
    if n_threads is None:
        n_threads = max((e.rank for e in events), default=-1) + 1 or 1
    if sim_time is None:
        sim_time = max((e.time for e in events), default=0.0)
    return n_threads, sim_time


def _state_slices(events: List[ObsEvent], n_threads: int,
                  sim_time: float) -> List[Dict[str, Any]]:
    """Per-rank complete events covering [0, sim_time] without gaps."""
    out: List[Dict[str, Any]] = []
    current = {r: (_initial_state(r), 0.0) for r in range(n_threads)}
    for ev in events:
        if ev.kind != "state" or ev.rank not in current:
            continue
        state, since = current[ev.rank]
        if ev.time > since:
            out.append(_slice(ev.rank, state, since, ev.time))
        current[ev.rank] = (ev.args.get("state", state), ev.time)
    for rank, (state, since) in sorted(current.items()):
        if sim_time > since:
            out.append(_slice(rank, state, since, sim_time))
    return out


def _slice(rank: int, state: str, t0: float, t1: float) -> Dict[str, Any]:
    return {"name": state, "cat": "state", "ph": "X", "pid": _PID,
            "tid": rank, "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6}


def to_chrome_trace(events: Iterable[ObsEvent], *,
                    n_threads: Optional[int] = None,
                    sim_time: Optional[float] = None,
                    meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the Trace Event Format dict for a run's events.

    ``n_threads`` / ``sim_time`` default to values inferred from the
    events (or taken from ``meta`` when present); pass them explicitly
    for exactness on runs whose last event precedes the final barrier.
    """
    events = list(events)
    meta = dict(meta or {})
    n_threads = n_threads if n_threads is not None else meta.get("threads")
    sim_time = sim_time if sim_time is not None else meta.get("sim_time")
    n_threads, sim_time = _infer(events, n_threads, sim_time)

    trace_events: List[Dict[str, Any]] = []
    process_name = meta.get("algorithm", "repro run")
    trace_events.append({"name": "process_name", "ph": "M", "pid": _PID,
                         "tid": 0, "args": {"name": str(process_name)}})
    for rank in range(n_threads):
        trace_events.append({"name": "thread_name", "ph": "M", "pid": _PID,
                             "tid": rank, "args": {"name": f"rank {rank}"}})
        trace_events.append({"name": "thread_sort_index", "ph": "M",
                             "pid": _PID, "tid": rank,
                             "args": {"sort_index": rank}})

    trace_events.extend(_state_slices(events, n_threads, sim_time))

    for ev in events:
        if ev.kind == "state":
            continue  # rendered as slices above
        category = ev.kind.split(".", 1)[0]
        trace_events.append({
            "name": ev.kind, "cat": category, "ph": "i", "s": "t",
            "pid": _PID, "tid": ev.rank, "ts": ev.time * 1e6,
            "args": ev.args,
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


_INF = float("inf")


def _float(o: float) -> str:
    """json's spelling of a float, NaN and the infinities included."""
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


#: Exact-type encoders for the scalars json inlines; anything else
#: (subclasses, containers, unsupported types) goes through json itself.
_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: _str,
    int: int.__repr__,
    float: _float,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _value(o: Any, level: int) -> str:
    """``o`` as json's ``indent=1, sort_keys=True`` writes it at ``level``."""
    enc = _SCALARS.get(type(o))
    if enc is not None:
        return enc(o)
    # Containers and rare types: json's own encoder, re-indented to this
    # level (JSON text holds no raw newline outside its indentation), so
    # its circularity check and TypeError on unsupported types still hold.
    return json.dumps(o, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * level)


def _object(d: Any, level: int) -> str:
    """An ``args`` or ``otherData`` mapping at nesting ``level``."""
    if type(d) is not dict or not all(type(k) is str for k in d):
        return _value(d, level)
    if not d:
        return "{}"
    pad = "\n" + " " * (level + 1)
    body = ("," + pad).join(f"{_str(k)}: {_value(d[k], level + 1)}"
                            for k in sorted(d))
    return "{" + pad + body + "\n" + " " * level + "}"


# One template per phase: the keys to_chrome_trace sets for it, sorted,
# indented as a trace event is (nesting level 2, inside "traceEvents").
# The fields to_chrome_trace fixes per phase are spliced in here.
_M = ('{\n   "args": %s,\n   "name": %s,\n   "ph": "M",\n'
      f'   "pid": {_PID},\n   "tid": %s\n  }}')
_X = ('{\n   "cat": "state",\n   "dur": %s,\n   "name": %s,\n'
      f'   "ph": "X",\n   "pid": {_PID},\n   "tid": %s,\n   "ts": %s\n  }}')
_I = ('{\n   "args": %s,\n   "cat": %s,\n   "name": %s,\n   "ph": "i",\n'
      f'   "pid": {_PID},\n   "s": "t",\n   "tid": %s,\n   "ts": %s\n  }}')


def _encode_event(ev: Dict[str, Any]) -> str:
    ph = ev["ph"]
    if ph == "X":
        return _X % (_value(ev["dur"], 3), _value(ev["name"], 3),
                     _value(ev["tid"], 3), _value(ev["ts"], 3))
    if ph == "i":
        return _I % (_object(ev["args"], 3), _value(ev["cat"], 3),
                     _value(ev["name"], 3), _value(ev["tid"], 3),
                     _value(ev["ts"], 3))
    return _M % (_object(ev["args"], 3), _value(ev["name"], 3),
                 _value(ev["tid"], 3))


def _encode_doc(doc: Dict[str, Any]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)`` for a trace doc
    (whose ``traceEvents`` always holds at least the process name)."""
    return (f'{{\n "displayTimeUnit": {_value(doc["displayTimeUnit"], 1)},'
            f'\n "otherData": {_object(doc["otherData"], 1)},'
            '\n "traceEvents": [\n  '
            + ",\n  ".join(map(_encode_event, doc["traceEvents"]))
            + "\n ]\n}")


def dump_chrome_trace(path: str, events: Iterable[ObsEvent], *,
                      n_threads: Optional[int] = None,
                      sim_time: Optional[float] = None,
                      meta: Optional[Dict[str, Any]] = None) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    doc = to_chrome_trace(events, n_threads=n_threads, sim_time=sim_time,
                          meta=meta)
    with open(path, "w") as fh:
        fh.write(_encode_doc(doc) + "\n")
    return path
