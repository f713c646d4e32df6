"""Span tracer for one spherelab CLI call, and the summary of its spans.

Run as ``python3 perfbench/tracer.py SPANS.json ARG...`` with ``src`` on
PYTHONPATH. It wraps the public functions of each layer listed in TRACED,
calls ``spherelab.cli.main(ARG...)`` as the ``spherelab`` console script
does, and writes the recorded spans to SPANS.json when the call returns.

Nothing under ``src/`` is edited. Every module-level binding of a wrapped
function is replaced, because modules import functions by name (``lrmodel``
does ``from .sphere7 import cross7``), so patching only the defining module
would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result):
    """Vectors processed by a broadcasting kernel f(x, y): the product of the
    broadcast leading shape, so one (N, 7) call counts N rows."""
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
    return {"rows": int(np.prod(shape[:-1], dtype=np.int64))}


def _index_rows(args, kwargs, result):
    return {"rows": int(result.size)}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _written_bytes(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


# (module, attribute, span name, counter of the call's work or None).
# ghz3_model and ghz4_model share one span name: together they are the GHZ
# model path. least_squares is called only by lrmodel.solve_hardy, so its
# span counts the solver's multi-start runs.
TRACED = (
    ("spherelab.cli", "main", "cli.main", None),
    ("spherelab.cli", "write_report", "cli.write_report", _written_bytes),
    ("spherelab.qmref", "tensor_expectation", "qmref.tensor_expectation", None),
    ("spherelab.qmref", "maximize_chsh", "qmref.maximize_chsh", None),
    ("spherelab.qmref", "hardy_amplitude", "qmref.hardy_amplitude", None),
    ("spherelab.lrmodel", "solve_hardy", "lrmodel.solve_hardy", None),
    ("spherelab.lrmodel", "hardy_residuals", "lrmodel.hardy_residuals", None),
    ("scipy.optimize", "least_squares", "lrmodel.lsq", _nfev),
    ("spherelab.lrmodel", "ghz3_model", "lrmodel.ghz_model", None),
    ("spherelab.lrmodel", "ghz4_model", "lrmodel.ghz_model", None),
    ("spherelab.lrmodel", "scan_chsh", "lrmodel.scan_chsh", None),
    ("spherelab.sphere7", "cross7", "sphere7.cross7", _rows),
    ("spherelab.sphere7", "lagrange_residual", "sphere7.lagrange_residual", None),
    ("spherelab.sphere7", "z_deviation", "sphere7.z_deviation", None),
    ("spherelab.sphere7", "oct_product", "sphere7.oct_product", None),
    ("spherelab.sphere7", "jacobiator", "sphere7.jacobiator", None),
    ("spherelab.ga3", "_gp_components", "ga3._gp_components", _rows),
    ("spherelab.ga3", "geometric_product", "ga3.geometric_product", None),
    ("spherelab.mcsim", "run_ensemble", "mcsim.run_ensemble", None),
    ("spherelab.mcsim", "counter_uniform", "mcsim.counter_uniform", _index_rows),
    ("spherelab.identities", "ga3_identity_report", "identities.ga3_identity_report", None),
    ("spherelab.identities", "sphere7_identity_report", "identities.sphere7_identity_report", None),
    ("spherelab.identities", "chsh_sweep_report", "identities.chsh_sweep_report", None),
)


class Tracer:
    """Records spans (id, parent, name, start_ns, end_ns, counts) in memory.

    The parent is the innermost traced call active on the same thread;
    calls made on worker threads (the mcsim pool) have no parent.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, counter=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid, parent = next(ids), (stack[-1] if stack else None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), {"raised": 1}))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end,
                          counter(args, kwargs, result) if counter else None))
            return result

        return traced

    def install(self, targets=TRACED):
        """Wrap each target and rebind it wherever spherelab or its defining
        module holds a reference to the original function."""
        for module_name, attr, name, counter in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            traced = self.wrap(name, original, counter)
            holders = [module] + [m for key, m in list(sys.modules.items())
                                  if key == "spherelab" or key.startswith("spherelab.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)

    def dump(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans}))


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds `s`, self seconds `self_s`,
    and the sum of each count.

    Inclusive time counts only the outermost span of a name, so a name that
    calls itself is not counted twice. Self time is a span's duration minus
    its direct children's; children share the span's thread and nest inside
    it, so their durations do not overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out = {}
    for sid, parent, name, start, end, counts in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns.get(sid, 0)) * 1e-9
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["s"] += (end - start) * 1e-9
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def merge(summaries) -> dict:
    """Sum several summaries (one per interpreter of a unit)."""
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from spherelab import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
