"""The column-backed comparison report and its template writer: the JSON
and CSV bytes against the json.dumps / per-row csv.writer route they
replace, for any labels, float values and meta."""

import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherelab import report as report_module
from spherelab.report import CSV_COLUMNS, ComparisonReport, ComparisonRow

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, math.inf, -math.inf, math.nan)
EDGE_LABELS = ('"', "\\", ",", "\n", "\r", "a,b", 'say "hi"', "\x00\x1f\x7f", "é",
               "漢字", " ", "😀", "", " ")

labels = st.one_of(st.sampled_from(EDGE_LABELS), st.text(max_size=8))
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
rows = st.lists(st.tuples(labels, floats, floats, floats), max_size=7)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
metas = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


def reference_rows(rows):
    """Each row as the removed make_row built it, in Python float arithmetic."""
    out = []
    for label, model, oracle, tolerance in rows:
        residual = model - oracle
        verdict = "match" if abs(residual) <= tolerance else "mismatch"
        out.append(ComparisonRow(label, model, oracle, residual, tolerance, verdict))
    return out


def reference_json(rows, meta):
    dicts = [row._asdict() for row in reference_rows(rows)]
    return json.dumps({"meta": meta, "rows": dicts}, indent=2, sort_keys=True)


def reference_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reference_rows(rows):
        writer.writerow([r.label, repr(r.model), repr(r.oracle), repr(r.residual),
                         repr(r.tolerance), r.verdict])
    return buf.getvalue()


@settings(max_examples=60, deadline=None)
@given(rows=rows, meta=metas, chunk=st.integers(1, 4))
@example(rows=[], meta={}, chunk=4)
@example(rows=[(label, a, b, c) for label in EDGE_LABELS[:3] for a in EDGE_FLOATS
               for b in EDGE_FLOATS for c in EDGE_FLOATS], meta={"k": [1, None]}, chunk=4)
def test_template_writer_matches_json_dumps_and_csv_writer(rows, meta, chunk):
    report = ComparisonReport(meta=meta).add(*zip(*rows)) if rows else ComparisonReport([], meta)
    old_chunk = report_module.CHUNK_ROWS
    report_module.CHUNK_ROWS = chunk  # several chunks, and chunk edges, in small reports
    try:
        assert "".join(report.json_chunks()) == reference_json(rows, meta)
        assert "".join(report.chunks("csv")) == reference_csv(rows)
    finally:
        report_module.CHUNK_ROWS = old_chunk


def test_empty_report_layout():
    assert "".join(ComparisonReport([]).json_chunks()) == '{\n  "meta": {},\n  "rows": []\n}'
    assert "".join(ComparisonReport([]).chunks("csv")) == ",".join(CSV_COLUMNS) + "\n"


def test_rows_view_and_verdicts_derive_from_the_columns():
    report = ComparisonReport(meta={}).add(
        ["a", "b", "c", "d"], [1.0, math.nan, 2.0, math.inf], [1.0, 0.0, 0.0, math.inf],
        [0.0, math.inf, math.inf, 1.0])
    assert report.verdicts() == ["match", "mismatch", "match", "mismatch"]
    back = ComparisonReport.from_json("".join(report.json_chunks()))
    assert [r.label for r in back.rows] == ["a", "b", "c", "d"]
    assert [r.label for r in report.mismatches()] == ["b", "d"]
    csv_text = "".join(report.chunks("csv"))
    assert "".join(ComparisonReport(report.rows).chunks("csv")) == csv_text
