"""The Chrome and JSONL writers emit exactly what ``json`` would.

The Chrome writer fills per-phase templates instead of running json's
indenting encoder; these properties pin it to the bytes of
``json.dumps(to_chrome_trace(...), sort_keys=True, indent=1) + "\\n"``
on generated traces, including the values json spells specially (NaN,
the infinities, non-ASCII text, quotes and backslashes, bools, None)
and control-plane events on rank -1.  The JSONL writer is pinned to one
``json.dumps(..., sort_keys=True)`` per line.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.states import STATES
from repro.obs import (ObsEvent, dump_chrome_trace, to_chrome_trace,
                       to_jsonl_lines)

# Text with the characters json escapes or spells as \\u sequences.
TEXT = st.text(alphabet=st.sampled_from(
    list("abT0 _.-") + ['"', "\\", "/", "\n", "\t", "\x00", "\x7f", "é",
                        "µ", "·", "█", " ", "\U0001f600"]),
    max_size=8)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(st.none(), st.booleans(),
                    st.integers(-2 ** 70, 2 ** 70), FLOATS, TEXT)
# Meta values may nest (json's own encoder writes those, re-indented).
NESTED = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                     st.dictionaries(TEXT, inner,
                                                     max_size=3)),
    max_leaves=6)
ARGS = st.dictionaries(TEXT, SCALARS, max_size=4)
KINDS = st.sampled_from(["steal", "steal.req", "visit", "idle.park",
                         "task.arrive", "fault.kill", 'q"\\é.k'])
TIMES = st.one_of(st.floats(0.0, 1e-3), FLOATS)


@st.composite
def events(draw):
    """A trace over ranks -1..4, with state transitions mixed in."""
    out = []
    for _ in range(draw(st.integers(0, 12))):
        time = draw(TIMES)
        rank = draw(st.integers(-1, 4))
        if draw(st.booleans()):
            state = draw(st.one_of(st.sampled_from(STATES), TEXT))
            out.append(ObsEvent(time, rank, "state", {"state": state}))
        else:
            out.append(ObsEvent(time, rank, draw(KINDS), draw(ARGS)))
    return out


def _dumped(evs, **kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        dump_chrome_trace(path, evs, **kw)
        with open(path) as fh:
            return fh.read()


NAN, INF = float("nan"), float("inf")


@settings(max_examples=200, deadline=None)
@given(evs=events(), meta=st.dictionaries(TEXT, NESTED, max_size=5),
       shape=st.sampled_from([{}, {"n_threads": 3, "sim_time": 2e-4},
                              {"n_threads": 0, "sim_time": NAN}]))
@example(evs=[ObsEvent(0.0, 1, "state", {"state": "work\u00e9"}),
              ObsEvent(NAN, -1, "task.arrive", {}),
              ObsEvent(INF, 0, 'k"\\',
                       {"a": -INF, "b": True, "c": None, "\u00b5": 'q"\\'})],
         meta={"x": NAN, "y": [INF, {}], "z": False}, shape={})
def test_chrome_writer_matches_json(evs, meta, shape):
    doc = to_chrome_trace(evs, meta=meta, **shape)
    assert _dumped(evs, meta=meta, **shape) == \
        json.dumps(doc, sort_keys=True, indent=1) + "\n"


@settings(max_examples=100, deadline=None)
@given(evs=events(), meta=st.dictionaries(TEXT, SCALARS, max_size=4))
def test_jsonl_lines_match_json(evs, meta):
    expected = [json.dumps({"meta": meta}, sort_keys=True)] if meta else []
    expected += [json.dumps(ev.to_dict(), sort_keys=True) for ev in evs]
    assert to_jsonl_lines(evs, meta) == expected


def test_non_string_meta_keys_follow_json():
    evs = [ObsEvent(1e-6, 0, "visit", {})]
    meta = {1: "a", 2.5: None, False: [1, {"x": float("-inf")}]}
    assert _dumped(evs, meta=meta) == json.dumps(
        to_chrome_trace(evs, meta=meta), sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("meta, args", [
    ({"bad": object()}, {}),
    ({"nested": [1, {"bad": {1, 2}}]}, {}),
    ({}, {"bad": b"bytes"}),
    ({"mixed": 1, 2: "keys"}, {}),
])
def test_non_json_values_still_raise_type_error(meta, args):
    evs = [ObsEvent(0.0, 0, "visit", args)]
    with pytest.raises(TypeError):
        json.dumps(to_chrome_trace(evs, meta=meta), sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        _dumped(evs, meta=meta)


def test_circular_meta_still_raises_value_error():
    meta = {"self": []}
    meta["self"].append(meta["self"])
    with pytest.raises(ValueError, match="Circular"):
        _dumped([], meta=meta)
