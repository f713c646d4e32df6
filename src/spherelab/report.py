"""Comparison reports, model-vs-oracle rows held as columns, and the writers
of the artifact layouts: json_text, the one JSON encoding of every artifact,
and FloatTable, the plot-ready CSV of a float table. Every artifact kind
(ComparisonReport, FloatTable, mcsim.EnsembleReport, compare.HardyScan)
gives its text for a format as chunks(fmt), str chunks to write as they come.

A report holds labels and float64 model, oracle and tolerance columns. The
residual (model - oracle) and the verdicts derive from them: a row matches
iff |residual| <= tolerance, so a NaN residual is a mismatch.

The comparison layout is a byte-stable contract: the JSON is what
json_text({"meta": meta, "rows": [row dicts]}) writes, the CSV what
csv.writer writes under CSV_COLUMNS, floats in repr form. Both stream from
one template, CHUNK_ROWS rows per chunk.

A FloatTable's CSV holds every value in repr form as well. Its rows come
as an iterable of 2-D blocks (lrmodel.chsh_sweep computes them CHUNK_ROWS
rows at a time), each written as it comes, so no table is held whole. The
text of a block is orjson's shortest-float encoding, with repr for the rows
holding a value orjson spells otherwise; orjson is imported only when a
float table is written.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

CSV_COLUMNS = ("label", "model", "oracle", "residual", "tolerance", "verdict")
ComparisonRow = namedtuple("ComparisonRow", CSV_COLUMNS)
# Rows formatted per chunk, and rows per block of the CHSH sweep: one repr of
# a whole column would hold every row's text at once and raise the peak memory.
CHUNK_ROWS = 4096

# One row of the indent=2, sort_keys JSON layout (keys in sorted order).
_JSON_ROW = ('    {{\n      "label": {},\n      "model": {},\n      "oracle": {},\n'
             '      "residual": {},\n      "tolerance": {},\n      "verdict": "{}"\n    }}')


def json_text(obj) -> str:
    """The JSON encoding of every artifact: two-space indents and sorted keys,
    without a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _reprs(column: np.ndarray, json_form: bool) -> list:
    """repr(float(x)) of each value of a non-empty float column. Each distinct
    value (by its bits, so -0.0 and 0.0 stay apart) is formatted once, all of
    them by one list repr (a float's repr never holds ", "). In json_form inf,
    -inf and nan are spelled Infinity, -Infinity and NaN, as json writes them."""
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    text = repr(bits.view(np.float64).tolist())[1:-1]
    if json_form:
        text = text.replace("inf", "Infinity").replace("nan", "NaN")
    return np.array(text.split(", "), dtype=object)[where].tolist()


class ComparisonReport:
    """Comparison rows as columns, plus a meta dict. ComparisonReport(rows,
    meta) keeps the label, model, oracle and tolerance of ComparisonRow
    values; builders append whole columns with add()."""

    def __init__(self, rows=(), meta: dict | None = None):
        self.labels: list = []
        self.model = self.oracle = self.tolerance = np.empty(0)
        self.meta = {} if meta is None else meta
        rows = list(rows)
        self.add([r.label for r in rows], [r.model for r in rows], [r.oracle for r in rows],
                 [r.tolerance for r in rows])

    def add(self, labels, model, oracle, tolerance) -> "ComparisonReport":
        """Append one row per label; model, oracle and tolerance are each a
        scalar or one value per label. Returns the report."""
        labels = list(labels)
        new = [np.broadcast_to(np.asarray(c, dtype=float), (len(labels),))
               for c in (model, oracle, tolerance)]
        self.labels += labels
        self.model, self.oracle, self.tolerance = (
            np.concatenate((old, add)) for old, add in zip(self.columns()[1:], new))
        return self

    def columns(self) -> tuple:
        """(labels, model, oracle, tolerance), as add() takes them."""
        return self.labels, self.model, self.oracle, self.tolerance

    @property
    def residual(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in float arithmetic
            return self.model - self.oracle

    def verdicts(self) -> list:
        return np.where(np.abs(self.residual) <= self.tolerance, "match", "mismatch").tolist()

    @property
    def rows(self) -> list:
        """The rows as ComparisonRow values, built from the columns."""
        return [ComparisonRow(*row) for row in zip(
            self.labels, self.model.tolist(), self.oracle.tolist(), self.residual.tolist(),
            self.tolerance.tolist(), self.verdicts())]

    def mismatches(self) -> list:
        return [row for row in self.rows if row.verdict == "mismatch"]

    def _text_chunks(self, json_form: bool):
        """The six columns as text, CHUNK_ROWS rows at a time; in json_form the
        labels are JSON string literals."""
        floats, verdicts = (self.model, self.oracle, self.residual, self.tolerance), self.verdicts()
        for lo in range(0, len(self.labels), CHUNK_ROWS):
            part = slice(lo, lo + CHUNK_ROWS)
            labels = self.labels[part]
            yield ([encode_basestring_ascii(label) for label in labels] if json_form else labels,
                   *(_reprs(column[part], json_form) for column in floats), verdicts[part])

    def json_chunks(self):
        """The JSON text in chunks, without a final newline."""
        meta = json_text(self.meta).replace("\n", "\n  ")
        head = f'{{\n  "meta": {meta},\n  "rows": ['
        if not self.labels:
            yield head + "]\n}"
            return
        head += "\n"
        for columns in self._text_chunks(json_form=True):
            yield head + ",\n".join(map(_JSON_ROW.format, *columns))
            head = ",\n"
        yield "\n  ]\n}"

    def csv_chunks(self):
        yield ",".join(CSV_COLUMNS) + "\n"
        for columns in self._text_chunks(json_form=False):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(zip(*columns))
            yield buf.getvalue()

    def chunks(self, fmt: str) -> Iterator[str]:
        """The artifact text in chunks: the JSON with a final newline, or the
        CSV. The chunk methods are looked up on each call."""
        return chain(self.json_chunks(), "\n") if fmt == "json" else self.csv_chunks()

    @classmethod
    def from_json(cls, doc: str) -> "ComparisonReport":
        data = json.loads(doc)
        return cls([ComparisonRow(**row) for row in data["rows"]], data["meta"])


def _csv_rows(part: np.ndarray) -> str:
    """The CSV lines of a non-empty 2-D float table, each value written as
    repr(float(x)).

    orjson writes the same shortest round-trip digits as repr, as
    "[[x,y],[z,w]]", but spells values outside 1e-4 <= |x| < 1e16 in
    another notation (0.00005 for 5e-05, 1e16 for 1e+16) and non-finite
    ones as null. The rows holding such a value, apart from zeros, are
    written with repr.
    """
    import orjson  # only a float table pays its import

    text = orjson.dumps(part, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode("ascii")
    lines = text.split("],[")
    size = np.abs(part)
    plain = (size == 0.0) | ((size >= 1e-4) & (size < 1e16))  # False for NaN
    for i in np.flatnonzero(~plain.all(axis=1)).tolist():
        lines[i] = ",".join(map(repr, part[i].tolist()))
    return "\n".join(lines) + "\n"


class FloatTable(NamedTuple):
    """Non-empty 2-D float blocks under a CSV header line, written as CSV
    only, each block as it comes: one line per row, each value as
    repr(float(x))."""

    header: str
    blocks: Iterable

    def chunks(self, fmt: str) -> Iterator[str]:
        if fmt != "csv":
            raise ValueError(f"a float table is written as CSV only, got {fmt!r}")
        return chain([self.header + "\n"], map(_csv_rows, self.blocks))
