"""The column-backed comparison report and its template writer: the JSON
and CSV bytes against the json.dumps / per-row csv.writer route they
replace, for any labels, float values and meta. The float table's CSV
against repr(float(x)) of each value."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherelab import report as report_module
from spherelab.report import CSV_COLUMNS, ComparisonReport, ComparisonRow, FloatTable

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


def float_table_lines(*columns) -> list:
    """The lines under the header of the CSV of a float table of columns,
    given as blocks of CHUNK_ROWS rows."""
    table = np.column_stack(columns)
    chunk = report_module.CHUNK_ROWS
    text = "".join(FloatTable("h", [table[lo:lo + chunk] for lo in range(0, len(table), chunk)])
                   .chunks("csv"))
    assert text.startswith("h\n") and text.endswith("\n")
    return text[2:-1].split("\n")


def repr_lines(table: np.ndarray) -> list:
    return [",".join(map(repr, row)) for row in table.tolist()]


# Around the edges of the range where orjson spells a float as repr does
# (1e-4 <= |x| < 1e16), the extremes, and the values it spells otherwise.
EDGE_TABLE_FLOATS = (1e-4, 9.999999999999999e-05, 1.0000000000000002e-04, 1e16,
                     9999999999999998.0, 1.0000000000000002e16, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.0, 1.0, 0.1, 1e15, 123456.789)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.floats(), min_size=1, max_size=6))
@example(row=[0.0])
@example(row=[-0.0])
@example(row=[5e-324])
@example(row=[-2.225073858507201e-308])
@example(row=[math.inf])
@example(row=[-math.inf])
@example(row=[math.nan])
@example(row=[0.5, 1e-5, -0.0, 3.0])
def test_a_float_table_row_is_the_repr_of_each_value(row):
    columns = tuple(np.array([x]) for x in row)
    assert float_table_lines(*columns) == [",".join(map(repr, row))]


@pytest.mark.parametrize("x", EDGE_TABLE_FLOATS)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_float_table_edge_values(x, sign):
    assert float_table_lines(np.array([sign * x])) == [repr(sign * x)]


def test_float_table_of_random_bit_patterns():
    """10^5 values, one per row: half of any bits, half of any sign and
    mantissa with an exponent in orjson's repr range; over several chunks."""
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(1023 - 14, 1023 + 54, size=50_000, dtype=np.uint64)
    bits[50_000:] = (bits[50_000:] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    column = bits.view(np.float64)
    assert float_table_lines(column) == repr_lines(column[:, None])
    table = column.reshape(-1, 5)  # rows that mix both spellings
    assert float_table_lines(*table.T) == repr_lines(table)
