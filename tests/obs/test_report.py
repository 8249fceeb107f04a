"""The Markdown run report: every promised section, readable tables."""

from repro.obs import load_jsonl, render_trace_report

from tests.obs.conftest import SMALL_THREADS

SECTIONS = [
    "# Trace report",
    "## Run",
    "## Event census",
    "## State occupancy (Figure 1)",
    "## Steal-interaction matrix",
    "## Steal latency",
    "## Termination phase",
]


def test_all_sections_present(traced_small_run):
    _, sink = traced_small_run
    report = render_trace_report(sink.events(), sink.meta)
    pos = -1
    for section in SECTIONS:
        at = report.find(section)
        assert at > pos, f"missing or misordered section: {section}"
        pos = at


def test_meta_and_census(traced_small_run):
    result, sink = traced_small_run
    report = render_trace_report(sink.events(), sink.meta)
    assert "upc-distmem" in report
    assert f"{len(sink.events())} event(s) across {SMALL_THREADS} rank(s)." \
        in report
    for kind, n in sink.counts_by_kind().items():
        assert f"| {kind} | {n} |" in report


def test_occupancy_table_covers_all_ranks(traced_small_run):
    _, sink = traced_small_run
    report = render_trace_report(sink.events(), sink.meta)
    occ_section = report.split("## State occupancy (Figure 1)")[1] \
                        .split("##")[0]
    for rank in range(SMALL_THREADS):
        assert f"T{rank}" in occ_section


def test_report_without_meta_still_renders(traced_small_run):
    """tools/trace_report.py renders header-less JSONL logs too."""
    _, sink = traced_small_run
    report = render_trace_report(sink.events())
    assert "# Trace report" in report
    assert "## Steal-interaction matrix" in report


def test_report_on_empty_trace():
    report = render_trace_report([])
    assert "# Trace report" in report
    assert "0 event(s)" in report


def test_idle_section_present_only_in_park_mode(traced_small_run,
                                                traced_park_run):
    _, poll_sink = traced_small_run
    _, park_sink = traced_park_run
    poll_report = render_trace_report(poll_sink.events(), poll_sink.meta)
    park_report = render_trace_report(park_sink.events(), park_sink.meta)
    assert "## Idle gate (park mode)" not in poll_report
    assert "## Idle gate (park mode)" in park_report
    # The section's totals line reflects the trace counters.
    total = park_sink.counts_by_kind()["idle.park"]
    assert f"{total} park(s)" in park_report


def test_cli_report_matches_trace_report_tool(tmp_path, capsys):
    """``run --trace x.md`` writes the same bytes as
    ``tools/trace_report.py --out`` renders from the run's JSONL log:
    the report plus one newline."""
    import importlib.util
    import pathlib

    from repro.harness.cli import main

    tool = pathlib.Path(__file__).parents[2] / "tools" / "trace_report.py"
    spec = importlib.util.spec_from_file_location("trace_report", tool)
    trace_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_report)

    base = ["run", "--algorithm", "upc-distmem", "--threads", "4",
            "--chunk-size", "4", "--b0", "32", "--q", "0.45",
            "--tree-seed", "3", "--trace"]
    md, log = tmp_path / "run.md", tmp_path / "run.jsonl"
    assert main(base + [str(md)]) == 0
    assert main(base + [str(log)]) == 0
    out = tmp_path / "tool.md"
    assert trace_report.main([str(log), "--out", str(out)]) == 0
    assert md.read_bytes() == out.read_bytes()
    meta, events = load_jsonl(str(log))
    assert md.read_text(encoding="utf-8") == \
        render_trace_report(events, meta) + "\n"
