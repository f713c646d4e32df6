"""Ensemble simulator checks: counter-based determinism, exact scalar
means, CLT behavior of the oriented parts, worker invariance, and the
flagged sign channel."""

import concurrent.futures
import math
import subprocess
import sys

import numpy as np
import pytest

from spherelab import lrmodel, mcsim
from spherelab.geometry import coplanar_direction, random_unit_vectors

RNG = np.random.default_rng(606)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_counter_stream_is_pure_function_of_seed_and_index():
    stream = mcsim.LambdaStream(42)
    block = stream.sample_block(0, 1000)
    assert set(np.unique(block)) <= {-1, 1}
    # one-index blocks match the block
    for i in (0, 1, 17, 999):
        assert stream.sample_block(i, i + 1)[0] == block[i]
    # chunking does not change anything
    split = np.concatenate([stream.sample_block(0, 300), stream.sample_block(300, 1000)])
    assert np.array_equal(split, block)
    # different seed, different stream
    assert not np.array_equal(mcsim.LambdaStream(43).sample_block(0, 1000), block)
    # repeated call identical
    assert np.array_equal(stream.sample_block(0, 1000), block)


def test_uniform_draws_are_balanced():
    stream = mcsim.LambdaStream(42)
    mean = stream.sample_block(0, 1_000_000).astype(float).mean()
    assert abs(mean) < 5e-3  # 5 sigma CLT bound


def test_degenerate_distribution():
    stream = mcsim.LambdaStream(7, mcsim.PlusMinusDistribution(1.0))
    assert np.all(stream.sample_block(0, 10_000) == 1)
    stream = mcsim.LambdaStream(7, mcsim.PlusMinusDistribution(0.0))
    assert np.all(stream.sample_block(0, 10_000) == -1)
    with pytest.raises(ValueError):
        mcsim.PlusMinusDistribution(1.5)


def test_singlet_scalar_mean_is_exact():
    b = coplanar_direction(2 * np.pi / 3)
    for trials in (1, 3, 1000):
        config = mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, b), trials=trials, seed=11)
        report = mcsim.run_ensemble(config)
        assert report.scalar_mean == -float(np.dot(Z, b))  # bit-exact
        assert report.scalar_mean == pytest.approx(0.5, abs=1e-15)
    # scalar mean identical across seeds
    r1 = mcsim.run_ensemble(mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, b), 100, seed=1))
    r2 = mcsim.run_ensemble(mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, b), 100, seed=2))
    assert r1.scalar_mean == r2.scalar_mean


def test_singlet_oriented_parts_average_out():
    a, b = random_unit_vectors(RNG, 2)
    config = mcsim.EnsembleConfig(mcsim.SingletExperiment(a, b), trials=1_000_000, seed=5)
    report = mcsim.run_ensemble(config)
    for mean, sigma in zip(report.oriented_mean, report.oriented_sigma):
        assert abs(mean) <= 5.0 * sigma


def test_oriented_clt_rate_across_seeds():
    a, b = random_unit_vectors(RNG, 2)
    trials = 10_000
    hits = 0
    for seed in range(100):
        report = mcsim.run_ensemble(
            mcsim.EnsembleConfig(mcsim.SingletExperiment(a, b), trials, seed=seed)
        )
        if all(abs(m) <= 5.0 * s for m, s in zip(report.oriented_mean, report.oriented_sigma)):
            hits += 1
    assert hits >= 99


def test_worker_invariance_bit_exact():
    exp = mcsim.Experiment("ghz4", tuple(random_unit_vectors(RNG, 4)))
    config = mcsim.EnsembleConfig(exp, trials=1_000_000, seed=31)
    serial = mcsim.run_ensemble(config, workers=1)
    parallel = mcsim.run_ensemble(config, workers=4)
    assert serial.to_json() == parallel.to_json()


def test_ghz4_ensemble_matches_table_mode_scalar():
    dirs = random_unit_vectors(RNG, 4)
    value, _ = lrmodel.ghz4_model(*dirs, mode="table")
    config = mcsim.EnsembleConfig(mcsim.Experiment("ghz4", tuple(dirs)), trials=1_000_000,
                                  seed=13)
    report = mcsim.run_ensemble(config)
    assert report.scalar_mean == pytest.approx(value, abs=1e-12)
    assert all(abs(m) <= 5.0 * s for m, s in zip(report.oriented_mean, report.oriented_sigma))
    assert len(report.oriented_mean) == 7


def test_ghz3_and_chsh_ensembles():
    dirs = random_unit_vectors(RNG, 3)
    config = mcsim.EnsembleConfig(
        mcsim.Experiment("ghz3", tuple(dirs), (0.6, 1.1)), trials=10_000, seed=3
    )
    report = mcsim.run_ensemble(config)
    value, _ = lrmodel.ghz3_model(*dirs, 0.6, 1.1, mode="table")
    assert report.scalar_mean == pytest.approx(value, abs=1e-12)

    quad = [coplanar_direction(t) for t in (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)]
    config = mcsim.EnsembleConfig(mcsim.Experiment("chsh", tuple(quad)), trials=10_000, seed=3)
    report = mcsim.run_ensemble(config)
    assert report.scalar_mean == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    assert len(report.oriented_mean) == 3


def test_sign_channel_semantics():
    # |scalar| > threshold: the channel is the constant sign of the scalar.
    b = coplanar_direction(2 * np.pi / 3)
    report = mcsim.run_ensemble(mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, b), 1000, seed=9))
    assert report.sign_channel_mean == 1.0
    assert report.sign_channel_deviation == pytest.approx(1.0 - 0.5, abs=1e-15)
    # scalar ~ 0 (orthogonal directions): channel follows the orientation of
    # the dominant oriented component and averages near zero.
    report = mcsim.run_ensemble(
        mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, X), 1_000_000, seed=9)
    )
    assert report.scalar_mean == 0.0
    assert abs(report.sign_channel_mean) < 5e-3
    assert report.sign_channel_deviation == report.sign_channel_mean


def test_config_validation_and_echo():
    with pytest.raises(ValueError):
        mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, X), trials=0, seed=1)
    config = mcsim.EnsembleConfig(mcsim.SingletExperiment(Z, X), trials=10, seed=77)
    report = mcsim.run_ensemble(config)
    assert report.config["seed"] == 77
    assert report.config["experiment"]["kind"] == "singlet"
    assert report.config["distribution"] == {"kind": "uniform_pm", "weight_plus": 0.5}
    back = mcsim.Experiment.from_json_obj(report.config["experiment"])
    assert back.kind == "singlet"
    assert np.array_equal(back.directions[0], Z)


def test_experiments_compare_and_hash_by_value():
    one, same = mcsim.SingletExperiment(Z, X), mcsim.SingletExperiment(Z.copy(), [1, 0, 0])
    assert one == same and not one != same
    assert hash(one) == hash(same) and len({one, same}) == 1
    # -0.0 == 0.0, so a signed zero component changes neither equality nor hash
    signed = mcsim.SingletExperiment(Z, np.array([1.0, -0.0, 0.0]))
    assert signed == one and hash(signed) == hash(one)
    ghz3 = mcsim.Experiment("ghz3", (Z, X, Z), (0.3, 0.4))
    for other in (mcsim.SingletExperiment(X, Z), mcsim.Experiment("chsh", (Z, X, Z, X)),
                  ghz3, "singlet"):
        assert one != other and not one == other
    assert ghz3 == mcsim.Experiment("ghz3", (Z, X, Z), (0.3, 0.4))
    assert ghz3 != mcsim.Experiment("ghz3", (Z, X, Z), (0.3, 0.5))
    assert ghz3 != mcsim.Experiment("ghz3", (Z, X, X), (0.3, 0.4))


def test_experiment_json_round_trip():
    experiments = [
        mcsim.SingletExperiment(Z, X),
        mcsim.Experiment("chsh", (Z, X, Z, X)),
        mcsim.Experiment("ghz3", (Z, X, Z), (0.3, 0.4)),
        mcsim.Experiment("ghz4", (Z, X, Z, X)),
    ]
    for exp in experiments:
        back = mcsim.Experiment.from_json_obj(exp.to_json_obj())
        assert back.to_json_obj() == exp.to_json_obj()
        assert back == exp
    with pytest.raises(ValueError):
        mcsim.Experiment.from_json_obj({"kind": "bogus"})
    # A missing field, or a number that is not one, is a ValueError naming
    # the field, raised before any ensemble runs.
    ghz3 = mcsim.Experiment("ghz3", (Z, X, Z), (0.3, 0.4)).to_json_obj()
    for bad, field in (({"kind": "singlet", "a": [0, 0, 1]}, "'b'"),
                       ({k: v for k, v in ghz3.items() if k != "delta"}, "'delta'"),
                       (dict(ghz3, alpha="x"), "alpha"),
                       (dict(ghz3, alpha=True), "alpha"),
                       (dict(ghz3, delta=float("nan")), "delta"),
                       ({"kind": "singlet", "a": [0, 0], "b": [1, 0, 0]}, "a must")):
        with pytest.raises(ValueError, match=field):
            mcsim.Experiment.from_json_obj(bad)


# ---------------------------------------------------------------------------
# the integer-threshold draw path against the float reference
# ---------------------------------------------------------------------------

B = mcsim.BLOCK
# Spans that start off a BLOCK boundary, cross one, and (the last) run longer
# than a BLOCK.
SPANS = ((0, 100), (B - 5, B + 11), (2 * B - 1, 2 * B + 1), (17, 2 * B + 40))
SEEDS = (0, 7, -1, 2**64 - 1)
WEIGHTS = (0.0, 1.0, 2.0**-53, 1e-17, 0.3, 0.5, 1.0 - 2.0**-53)


def _reference_signs(seed, start, stop, weight):
    u = mcsim.counter_uniform(seed, np.arange(start, stop, dtype=np.uint64))
    return np.where(u < weight, 1, -1).astype(np.int8)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_threshold_draws_match_the_float_reference(seed):
    for start, stop in SPANS:
        for weight in WEIGHTS:
            stream = mcsim.LambdaStream(seed, mcsim.PlusMinusDistribution(weight))
            block = stream.sample_block(start, stop)
            assert block.dtype == np.int8
            assert np.array_equal(block, _reference_signs(seed, start, stop, weight))


def test_threshold_is_exact_at_a_drawn_value():
    # A weight equal to a drawn u_i puts that trial on the boundary: u_i < w
    # is false there, and true for the next double above w.
    seed, start, stop = 11, B - 3, B + 3
    u = mcsim.counter_uniform(seed, np.arange(start, stop, dtype=np.uint64))
    for weight in (u[2], np.nextafter(u[2], 1.0), np.nextafter(u[2], 0.0)):
        stream = mcsim.LambdaStream(seed, mcsim.PlusMinusDistribution(weight))
        assert np.array_equal(stream.sample_block(start, stop),
                              _reference_signs(seed, start, stop, weight))
    boundary = mcsim.LambdaStream(seed, mcsim.PlusMinusDistribution(u[2]))
    assert boundary.sample_block(start + 2, start + 3)[0] == -1


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("weight", (0.3, 0.5))
def test_orientation_sum_matches_the_sample_block_route(workers, weight):
    trials = 3 * B + 17
    stream = mcsim.LambdaStream(42814, mcsim.PlusMinusDistribution(weight))
    expected = sum(int(stream.sample_block(lo, min(lo + B, trials)).sum(dtype=np.int64))
                   for lo in range(0, trials, B))
    assert expected == int(_reference_signs(42814, 0, trials, weight).sum(dtype=np.int64))
    assert mcsim._orientation_sum(stream, trials, workers) == expected


@pytest.mark.parametrize("cpus, pool_size", [(8, 4), (3, 3), (1, None), (None, None)])
def test_worker_pool_is_clamped_to_spans_and_cpus(cpus, pool_size, monkeypatch):
    sizes = []

    class InlinePool:
        """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    # _orientation_sum imports the pool class when it needs one.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(mcsim.os, "cpu_count", lambda: cpus)
    trials = 3 * B + 17  # 4 spans
    stream = mcsim.LambdaStream(5)
    total = mcsim._orientation_sum(stream, trials, workers=100_000)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert total == int(stream.sample_block(0, trials).sum(dtype=np.int64))


def test_trials_above_the_counter_range_are_rejected():
    exp = mcsim.SingletExperiment(Z, X)
    mcsim.EnsembleConfig(exp, trials=2**64, seed=1)  # built only, never run
    with pytest.raises(ValueError, match="2\\*\\*64"):
        mcsim.EnsembleConfig(exp, trials=2**64 + 1, seed=1)


def test_importing_the_cli_does_not_import_the_thread_pool():
    # Only a run with more than one worker needs concurrent.futures.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spherelab.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
