"""Fixed-size kernel probes: one timing per layer kernel, at sizes that do
not depend on the workload, so a later change can say which layer moved.

Run as ``python3 perfbench/probes.py SEED [--smoke]`` with ``src`` on
PYTHONPATH. Prints one JSON object: ``metrics`` maps each ``probe.*`` name
to seconds, and ``errors`` lists every probe whose result was wrong.
Cheap probes report the median of several repetitions; ``solve_hardy`` and
``maximize_chsh`` run once.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

from spherelab import ga3, lrmodel, mcsim, qmref, sphere7
from spherelab.geometry import random_unit_vectors


def _timed(fn, repeats):
    """(median seconds, last result) over `repeats` calls of fn()."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run(seed: int, smoke: bool) -> tuple[dict, list]:
    rows = 1_000 if smoke else 100_000
    expectations = 20 if smoke else 2_000
    residual_calls = 100 if smoke else 10_000
    uniforms = 10_000 if smoke else 10_000_000
    chsh_starts = 1 if smoke else 12
    rng = np.random.default_rng(seed)
    metrics, errors = {}, []

    x, y = rng.standard_normal((2, rows, 7))
    metrics["probe.cross7_s"], xy = _timed(lambda: sphere7.cross7(x, y), 5)
    scale = np.sum(x * x, axis=1) * np.linalg.norm(y, axis=1)
    if np.any(np.abs(np.sum(x * xy, axis=1)) > 1e-12 * scale):
        errors.append("cross7: x . (x cross y) is not ~0")

    a, b = rng.standard_normal((2, rows, 8))
    metrics["probe.gp_components_s"], ab = _timed(lambda: ga3._gp_components(a, b), 5)
    if ab.shape != (rows, 8) or not np.all(np.isfinite(ab)):
        errors.append("_gp_components: bad shape or non-finite output")

    state = qmref.ghz4_state()
    dirs = random_unit_vectors(rng, 4 * expectations).reshape(expectations, 4, 3)
    observables = [qmref.SpinObservable(tuple(d)) for d in dirs]
    metrics["probe.tensor_expectation_s"], values = _timed(
        lambda: [qmref.tensor_expectation(state, obs) for obs in observables], 3)
    theta = np.arccos(np.clip(dirs[..., 2], -1.0, 1.0))
    phi = np.arctan2(dirs[..., 1], dirs[..., 0])
    closed = [qmref.ghz4_expectation_closed_form(t, p) for t, p in zip(theta, phi)]
    if max(abs(v - c) for v, c in zip(values, closed)) > 1e-12:
        errors.append("tensor_expectation: ghz4 brute force differs from the closed form")

    hardy_theta = math.pi / 6
    points = [lrmodel.HardyAngles(hardy_theta, *p)
              for p in rng.uniform(0.0, math.pi, (residual_calls, 7))]
    metrics["probe.hardy_residuals_s"], res = _timed(
        lambda: [lrmodel.hardy_residuals(p) for p in points], 3)
    if not all(r.shape == (len(lrmodel.RESIDUAL_LABELS),) and np.all(np.isfinite(r)) for r in res):
        errors.append("hardy_residuals: bad shape or non-finite output")

    metrics["probe.solve_hardy_s"], angles = _timed(
        lambda: lrmodel.solve_hardy(hardy_theta, seed=seed), 1)
    if not math.isfinite(angles.residual_norm):
        errors.append("solve_hardy: non-finite residual norm")

    metrics["probe.maximize_chsh_s"], (best, _) = _timed(
        lambda: qmref.maximize_chsh(qmref.singlet_state(), starts=chsh_starts, seed=seed), 1)
    if abs(best - 2.0 * math.sqrt(2.0)) > 1e-6:
        errors.append(f"maximize_chsh: {best!r} is not 2 sqrt 2")

    indices = np.arange(uniforms, dtype=np.uint64)
    metrics["probe.counter_uniform_s"], u = _timed(
        lambda: mcsim.counter_uniform(seed, indices), 3)
    if u.shape != (uniforms,) or u.min() < 0.0 or u.max() >= 1.0:
        errors.append("counter_uniform: output outside [0, 1)")

    return metrics, errors


if __name__ == "__main__":
    probe_metrics, probe_errors = run(int(sys.argv[1]), "--smoke" in sys.argv[2:])
    print(json.dumps({"metrics": probe_metrics, "errors": probe_errors}))
