"""JSONL event-log exporter and loader.

One JSON object per line: a ``{"meta": {...}}`` header (when run
metadata is available) followed by one ``{"t", "rank", "kind", "args"}``
object per event in chronological order.  The format is the diff- and
grep-friendly twin of the Chrome export: two runs' logs can be
compared with ``diff``, filtered with ``grep '"steal'``, and loaded
back losslessly with :func:`load_jsonl` for offline analysis
(``tools/trace_report.py`` is built on exactly that round trip).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import ObsEvent

__all__ = ["dump_jsonl", "load_jsonl", "to_jsonl_lines"]

#: ``json.dumps(obj, sort_keys=True)`` builds a fresh encoder per call;
#: one shared encoder writes the same bytes without that cost.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def to_jsonl_lines(events: Iterable[ObsEvent],
                   meta: Optional[Dict[str, Any]] = None) -> List[str]:
    """The log's lines (no trailing newlines), header first."""
    lines = [_ENCODE({"meta": meta})] if meta else []
    lines += [_ENCODE(ev.to_dict()) for ev in events]
    return lines


def dump_jsonl(path: str, events: Iterable[ObsEvent],
               meta: Optional[Dict[str, Any]] = None) -> str:
    """Write the JSONL event log to ``path``; returns the path."""
    with open(path, "w") as fh:
        for line in to_jsonl_lines(events, meta):
            fh.write(line)
            fh.write("\n")
    return path


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[ObsEvent]]:
    """Load a JSONL event log: ``(meta, events)``.

    ``meta`` is ``{}`` when the log has no header line.  Inverse of
    :func:`dump_jsonl`: ``load_jsonl(dump_jsonl(p, evs, m)) == (m, evs)``.
    """
    meta: Dict[str, Any] = {}
    events: List[ObsEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "meta" in obj and "kind" not in obj:
                meta = obj["meta"]
            else:
                events.append(ObsEvent.from_dict(obj))
    return meta, events
