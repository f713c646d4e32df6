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
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

CSV_COLUMNS = ("label", "model", "oracle", "residual", "tolerance", "verdict")
ComparisonRow = namedtuple("ComparisonRow", CSV_COLUMNS)
# Rows formatted per chunk: one repr of a whole column would hold every
# row's text at once and raise the peak memory.
CHUNK_ROWS = 4096
SPILL_READ_BYTES = 1 << 16  # larger reads of a spill file raise the peak RSS

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
    """The CSV lines of a 2-D float table, each value written as repr(float(x)).

    The list repr is "[[x, y], [z, w]]" with every float in repr form; a
    float's repr never holds "[" or ", ", so replacing the separators gives
    exactly the per-value rows.
    """
    text = repr(part.tolist())
    return text[2:-2].replace("], [", "\n").replace(", ", ",") + "\n"


def _fork_rows(parts: list) -> tuple[int, object] | None:
    """(pid, spill) of a child process that writes the CSV lines of parts into
    spill, an unlinked temporary file, and exits 0; None when no child could
    be started. The child leaves through os._exit, so it runs no atexit
    handler and flushes none of the buffers it shares with the parent."""
    spill = None
    try:
        spill = tempfile.TemporaryFile()
        pid = os.fork()
    except OSError:
        if spill is not None:
            spill.close()
        return None
    if pid == 0:
        status = 1
        try:
            for part in parts:
                spill.write(_csv_rows(part).encode("ascii"))
            spill.flush()
            status = 0
        finally:
            os._exit(status)
    return pid, spill


def _float_csv(header: str, table: np.ndarray) -> Iterator[str]:
    """CSV text of a 2-D float table, each value written as repr(float(x)),
    as one chunk of lines per CHUNK_ROWS rows, so that a writer never
    holds the whole text.

    The chunks are cut into contiguous slices, one per CPU this process may
    run on. The parent formats the first slice and yields it as it goes; a
    forked child formats each other slice into its own spill file, which the
    parent copies out, in SPILL_READ_BYTES reads, once the child exited 0.
    Every chunk is formatted by the same _csv_rows and the slices are joined
    in order, so the text is the same for any number of slices. With one
    chunk or one CPU, without os.fork, or once a fork fails, the parent
    formats the remaining slices itself. A child that fails raises a
    RuntimeError, so a truncated text never reads as complete; on any early
    exit of this generator (an exception, or close() by the writer) every
    child still running is killed and reaped.
    """
    parts = [table[lo:lo + CHUNK_ROWS] for lo in range(0, len(table), CHUNK_ROWS)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_slices = min(cpus, len(parts)) if hasattr(os, "fork") else 1
    edges = [len(parts) * k // n_slices for k in range(n_slices + 1)]
    slices = [parts[lo:hi] for lo, hi in zip(edges, edges[1:])]
    children, spills = {}, {}  # by slice index
    try:
        for k in range(1, n_slices):
            child = _fork_rows(slices[k])
            if child is None:
                break
            children[k], spills[k] = child
        yield header + "\n"
        for k, own in enumerate(slices):
            if k not in children:
                for part in own:
                    yield _csv_rows(part)
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(children[k], 0)[1])
            pid = children.pop(k)
            if code != 0:
                raise RuntimeError(f"CSV formatter process {pid} exited with status {code}")
            spills[k].seek(0)
            while chunk := spills[k].read(SPILL_READ_BYTES):
                yield chunk.decode("ascii")
    finally:
        if children:
            import signal

            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for spill in spills.values():
            spill.close()


class FloatTable(NamedTuple):
    """Float columns under a CSV header line, written as CSV only: one line
    per row, each value as repr(float(x)). The columns are stacked into one
    2-D table when the text is asked for."""

    header: str
    columns: tuple

    def chunks(self, fmt: str) -> Iterator[str]:
        if fmt != "csv":
            raise ValueError(f"a float table is written as CSV only, got {fmt!r}")
        return _float_csv(self.header, np.column_stack(self.columns))
