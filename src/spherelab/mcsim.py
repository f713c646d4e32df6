"""Seeded hidden-orientation ensemble simulator.

Each trial draws the orientation sign from a counter-based generator
keyed by (seed, trial index) — a splitmix64-style mix of the counter —
so trial i's draw never depends on how trials are batched: serial runs,
chunked runs, and multi-worker runs are bit-identical by construction.

The uniform draw is u_i = k_i * 2**-53 for a 53-bit integer k_i, and
w * 2**53 is exact in float64, so u_i < w holds exactly when
k_i < ceil(w * 2**53).  The ensemble therefore never forms the doubles: one
in-place kernel per block of BLOCK trials adds a wrapped offset to a
precomputed step table, mixes it, and compares the integers to that
threshold, with results bit-identical to comparing counter_uniform to w.

For every supported experiment the per-trial product point is
(f, sign_i * w): the scalar f is the same for both orientations, the
oriented components flip with the sign.  The report therefore carries

  * scalar_mean        = f exactly (mean of a constant),
  * oriented_mean      = w * mean(sign), which tends to zero at the CLT
    rate under the symmetric distribution,
  * oriented_sigma     = |w_j| * stderr(sign) per component,
  * sign_channel_mean  = mean of a literal +/-1 extracted per trial.

The sign channel is an interpretation, not part of the model contract:
no rule for reading a single +/-1 off a multivector-valued point is
specified anywhere, so this module takes the sign of the scalar part when
|scalar| > 1e-12 and otherwise the sign of the largest-magnitude oriented
component, and reports the channel's deviation from scalar_mean as a
first-class field rather than asserting anything about it.

Orientation sums are integers, so block accumulation is exact and the
result is independent of scheduling without any floating-point care.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import lrmodel
from .geometry import require_unit
from .report import json_text
from .sphere7 import get_table

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

BLOCK = 1 << 16
# i * gamma (mod 2**64) for i < BLOCK: a block's counters are this table
# plus one offset.  Scaled in place so import holds one 512 KB array, not two.
_STEPS = np.arange(BLOCK, dtype=np.uint64)
_STEPS *= _GAMMA


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, applied to z in place (z is returned); scratch,
    if given, is a uint64 array of z's shape that it overwrites."""
    tmp = np.empty_like(z) if scratch is None else scratch
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


def counter_uniform(seed: int, indices: np.ndarray) -> np.ndarray:
    """Uniform [0,1) doubles keyed by (seed, index); pure function of both."""
    z = np.array(indices, dtype=np.uint64)  # a copy, mixed in place below
    z += np.uint64(1)
    z *= _GAMMA
    z += np.uint64(seed & _MASK64)
    return (_mix64(z) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _counter_bits(seed: int, start: int, stop: int,
                  out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """The 53-bit integers k_i with counter_uniform(seed, i) == k_i * 2**-53,
    for the contiguous indices start <= i < stop.

    out and scratch, if given, are uint64 buffers of at least stop - start
    entries; the result is a view of out, so a loop over blocks allocates
    nothing.
    """
    n = stop - start
    steps = _STEPS[:n] if n <= BLOCK else np.arange(n, dtype=np.uint64) * _GAMMA
    offset = np.uint64((seed + (start + 1) * int(_GAMMA)) & _MASK64)
    z = np.add(steps, offset, out=None if out is None else out[:n])
    _mix64(z, None if scratch is None else scratch[:n])
    return np.right_shift(z, np.uint64(11), out=z)


def _threshold(weight_plus: float) -> np.uint64:
    """ceil(w * 2**53): k * 2**-53 < w exactly when k < this (the product is
    exact in float64 and k is an integer)."""
    return np.uint64(math.ceil(weight_plus * 2.0**53))


@dataclass(frozen=True)
class PlusMinusDistribution:
    """Two-point distribution over orientations {+1, -1}."""

    weight_plus: float = 0.5

    def __post_init__(self):
        w = float(self.weight_plus)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight_plus must lie in [0, 1], got {w!r}")
        object.__setattr__(self, "weight_plus", w)

    def to_json_obj(self) -> dict:
        return {"kind": "uniform_pm", "weight_plus": self.weight_plus}


class LambdaStream:
    """Counter-based orientation stream: the draw of trial i depends only on
    (seed, i)."""

    def __init__(self, seed: int, distribution: PlusMinusDistribution | None = None):
        self.seed = int(seed)
        self.distribution = distribution or PlusMinusDistribution()

    def sample_block(self, start: int, stop: int) -> np.ndarray:
        plus = _counter_bits(self.seed, start, stop) < _threshold(self.distribution.weight_plus)
        return np.where(plus, np.int8(1), np.int8(-1))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class ExperimentKind(NamedTuple):
    """What one kind of experiment takes: the names of its unit directions (one
    per site) and the names of its real state parameters. Its product point is
    lrmodel.product_point(kind, directions, numbers, table)."""

    directions: tuple
    numbers: tuple


EXPERIMENTS = {
    "singlet": ExperimentKind(("a", "b"), ()),
    "chsh": ExperimentKind(("a", "ap", "b", "bp"), ()),
    "ghz3": ExperimentKind(("n1", "n2", "n3"), ("alpha", "delta")),
    "ghz4": ExperimentKind(("n1", "n2", "n3", "n4"), ()),
}


def _kind(kind) -> ExperimentKind:
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    return EXPERIMENTS[kind]


@dataclass(frozen=True, eq=False)
class Experiment:
    """One setting of an EXPERIMENTS kind: its unit directions and its numbers,
    in the order of the kind's field names. Two experiments are equal, and
    hash alike, when kind, direction components and numbers are equal."""

    kind: str
    directions: tuple
    numbers: tuple = ()

    def __post_init__(self):
        spec = _kind(self.kind)
        if len(self.directions) != len(spec.directions) or len(self.numbers) != len(spec.numbers):
            raise ValueError(f"a {self.kind} experiment takes the directions "
                             f"{', '.join(spec.directions)} and {len(spec.numbers)} numbers")
        for name, value in zip(spec.numbers, self.numbers):
            if not (isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(self, "directions", tuple(
            require_unit(d, name=name) for name, d in zip(spec.directions, self.directions)))
        object.__setattr__(self, "numbers", tuple(float(v) for v in self.numbers))

    def _key(self) -> tuple:
        return self.kind, tuple(tuple(d.tolist()) for d in self.directions), self.numbers

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Experiment) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def to_json_obj(self) -> dict:
        spec = EXPERIMENTS[self.kind]
        return {"kind": self.kind, **{k: list(d) for k, d in zip(spec.directions, self.directions)},
                **dict(zip(spec.numbers, self.numbers))}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Experiment":
        kind = obj.get("kind")
        spec = _kind(kind)
        for name in spec.directions + spec.numbers:
            if name not in obj:
                raise ValueError(f"a {kind} experiment needs the field {name!r}")
        return cls(kind, tuple(obj[k] for k in spec.directions), tuple(obj[k] for k in spec.numbers))


def SingletExperiment(a, b) -> Experiment:
    """Experiment("singlet", (a, b))."""
    return Experiment("singlet", (a, b))


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleConfig:
    experiment: Experiment
    trials: int
    seed: int
    distribution: PlusMinusDistribution = field(default_factory=PlusMinusDistribution)
    table: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # Trial indices are uint64 counters: past 2**64 the draws would repeat.
        if self.trials > 2**64:
            raise ValueError(f"trials must be <= 2**64, got {self.trials}")
        if self.table is not None:
            get_table(self.table)  # a ValueError for a table that does not exist

    def to_json_obj(self) -> dict:
        return {
            "experiment": self.experiment.to_json_obj(),
            "trials": self.trials,
            "seed": self.seed,
            "distribution": self.distribution.to_json_obj(),
            "table": self.table,
        }


@dataclass(frozen=True)
class EnsembleReport:
    scalar_mean: float
    oriented_mean: tuple
    oriented_sigma: tuple
    sign_channel_mean: float
    sign_channel_deviation: float
    trials: int
    seed: int
    config: dict

    def to_json(self) -> str:
        return json_text(asdict(self))

    def chunks(self, fmt: str) -> list:
        """The artifact text: the JSON with a final newline, or one field,value
        CSV line per number, floats in repr form."""
        if fmt == "json":
            return [self.to_json() + "\n"]
        lines = ["field,value", f"scalar_mean,{self.scalar_mean!r}"]
        lines += [f"oriented_mean_{i},{v!r}" for i, v in enumerate(self.oriented_mean, start=1)]
        lines += [f"oriented_sigma_{i},{v!r}" for i, v in enumerate(self.oriented_sigma, start=1)]
        lines += [f"sign_channel_mean,{self.sign_channel_mean!r}",
                  f"sign_channel_deviation,{self.sign_channel_deviation!r}",
                  f"trials,{self.trials}", f"seed,{self.seed}"]
        return ["\n".join(lines) + "\n"]


def _orientation_sum(stream: LambdaStream, trials: int, workers: int) -> int:
    """Exact sum of the +/-1 draws over [0, trials) in fixed blocks.

    Block sums are integers, so the total is exact and identical no matter
    how blocks are distributed over workers.
    """
    spans = [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]
    threshold = _threshold(stream.distribution.weight_plus)

    def spans_sum(part):
        # Each worker owns its buffers, so its blocks allocate nothing.
        bits, scratch = np.empty(BLOCK, np.uint64), np.empty(BLOCK, np.uint64)
        plus = np.empty(BLOCK, dtype=bool)
        total = 0
        for lo, hi in part:
            k = _counter_bits(stream.seed, lo, hi, bits, scratch)
            total += 2 * np.count_nonzero(np.less(k, threshold, out=plus[:hi - lo])) - (hi - lo)
        return total

    workers = min(workers, len(spans), os.cpu_count() or 1)
    if workers <= 1:
        return spans_sum(spans)
    # Imported here, not with the module: every CLI call imports mcsim, and
    # only a pool needs the few milliseconds this import takes.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(spans_sum, [spans[i::workers] for i in range(workers)]))


def run_ensemble(config: EnsembleConfig, workers: int = 1) -> EnsembleReport:
    """Average the per-trial product point (f, sign_i * w) over the ensemble.

    The scalar component of every trial's point is the same f, so
    scalar_mean is f exactly; the oriented mean is w * mean(sign).
    """
    e = config.experiment
    f, w = lrmodel.product_point(e.kind, e.directions, e.numbers, config.table)
    n = config.trials

    stream = LambdaStream(config.seed, config.distribution)
    s1 = _orientation_sum(stream, n, workers)
    mean_sign = s1 / n
    # Per-trial oriented component is sign_i * w_j; sample std of sign_i is
    # sqrt((1 - mean^2) * n / (n - 1)).
    if n > 1:
        std_sign = math.sqrt(max(0.0, (1.0 - mean_sign**2) * n / (n - 1)))
    else:
        std_sign = 0.0
    stderr_sign = std_sign / math.sqrt(n)

    oriented_mean = tuple(float(c) for c in mean_sign * w)
    oriented_sigma = tuple(float(abs(c)) * stderr_sign for c in w)

    if abs(f) > 1e-12:
        sign_channel = math.copysign(1.0, f)
    else:
        j = int(np.argmax(np.abs(w))) if np.any(w != 0.0) else 0
        sign_channel = math.copysign(1.0, w[j]) * mean_sign if w[j] != 0.0 else 0.0

    return EnsembleReport(
        scalar_mean=float(f),
        oriented_mean=oriented_mean,
        oriented_sigma=oriented_sigma,
        sign_channel_mean=float(sign_channel),
        sign_channel_deviation=float(sign_channel - f),
        trials=n,
        seed=config.seed,
        config=config.to_json_obj(),
    )
