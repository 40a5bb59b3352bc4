"""Workload inputs, correctness accounting and the speed reference."""

import sys
import time
from types import SimpleNamespace

import numpy as np

import speed
import workloads


def test_seed_zero_reproduces_the_shipped_config():
    assert workloads.sampling_seeds(0) == (2024, 2025, 2026)


def test_same_seed_same_inputs_other_seed_other_inputs():
    a = workloads.query_stream(3).random((50, 2))
    assert np.array_equal(a, workloads.query_stream(3).random((50, 2)))
    assert not np.array_equal(a, workloads.query_stream(4).random((50, 2)))
    assert np.all((a >= 0.0) & (a < 1.0))
    assert workloads.sampling_seeds(1) != workloads.sampling_seeds(2)
    assert len(set(workloads.sampling_seeds(1)) & set(workloads.sampling_seeds(2))) == 0


def test_probe_closed_forms():
    assert workloads.expected_probes("eed", 16) == 152
    assert workloads.expected_probes("ed", 28) == 4088


def _report(errors, failures=None, nan=False):
    traces = np.zeros((4, 1))
    if nan:
        traces[2, 0] = np.nan
    hist = {"time": np.arange(4.0), "traces": traces}
    n = len(errors)
    return SimpleNamespace(
        histories=[{"hfm": hist, "interpolated": hist} for _ in range(n)],
        errors=[{"interpolated": e} for e in errors],
        failures=failures or [{} for _ in range(n)],
        timings=[{"hfm": 1.0, "interpolated": 2.0} for _ in range(n)],
    )


def test_injected_accuracy_miss_counts_as_failed_not_raised():
    score = workloads.score_report(_report([0.01, 0.06, 0.049]), workloads.BenchScore())
    assert (score.attempted, score.failed) == (3, 1)
    assert score.finite
    assert score.solve_times() == (2.0, 1.0, 0.5)


def test_solve_times_average_repeats_without_the_slowest():
    score = workloads.BenchScore()
    for rom_s in [2.0] * 9 + [30.0]:  # one preempted repeat
        report = _report([0.01])
        report.timings = [{"hfm": 1.0, "interpolated": rom_s}]
        workloads.score_report(report, score)
    assert score.solve_times() == (2.0, 1.0, 0.5)


def test_model_failure_and_nan_are_caught():
    score = workloads.score_report(
        _report([0.01], failures=[{"linear": "NonConvergenceError: diverged"}]),
        workloads.BenchScore(),
    )
    assert score.failed == 1
    assert not workloads.score_report(_report([0.01], nan=True), workloads.BenchScore()).finite


def test_failed_adaptation_counts_and_latencies_scale_to_reference_speed():
    class Prom:
        pass

    calls = []

    def flaky(prom, p, structure_check):
        calls.append(p)
        if len(calls) % 2:
            raise workloads.PromforgeError("lost positivity")

    class HalfSpeed(speed.Meter):
        def sample(self, label=None):
            self.times.append(time.perf_counter())
            self.samples.append(2.0 * speed.REFERENCE_S)
            self.labels.append(label)
            return self.samples[-1]

    original = workloads.rbf.evaluate_prom
    workloads.rbf.evaluate_prom = flaky
    try:
        raw, scaled, failed = workloads.adapt_stream(Prom(), np.zeros((5, 2)), "error", HalfSpeed())
    finally:
        workloads.rbf.evaluate_prom = original
    assert (len(raw), failed) == (2, 3)
    assert scaled == [t / 2.0 for t in raw]


def test_speed_factor_uses_samples_taken_during_the_operation():
    n = speed.NEAREST
    meter = speed.Meter()
    meter.times = list(range(2 * n))
    meter.samples = [9e-3] * n + [1e-3] * n
    meter.labels = [None] * (2 * n)
    meter.sample = lambda label=None: None  # no new sample
    assert meter.factor(started=n) == speed.REFERENCE_S / 1e-3
    # too short to hold NEAREST samples: the latest NEAREST are used
    assert meter.factor(started=10.0 * n) == speed.REFERENCE_S / 1e-3
    meter.samples = [1e-3] * 9 + [1.0]  # one preempted sample is dropped
    meter.times, meter.labels = list(range(10)), [None] * 10
    assert meter.factor(started=0.0) == speed.REFERENCE_S / 1e-3


def test_samples_inside_an_integration_carry_its_label():
    def newmark_integrate(kind):
        return speed.integration_label(sys._getframe())

    def run_benchmark():
        for i in range(2):
            for kind in ("hfm", "interpolated"):
                label = newmark_integrate(kind="hfm" if kind == "hfm" else "rom")
        return label

    assert run_benchmark() == ("rom", 1, "interpolated")
    assert newmark_integrate(kind="hfm") == ("hfm", None, None)
    assert speed.integration_label(sys._getframe()) is None

    n = speed.NEAREST
    meter = speed.Meter()
    meter.times = list(range(2 * n + 1))
    meter.samples = [4e-3] * n + [1e-3] * (n + 1)
    meter.labels = [("hfm", 0, "hfm")] * n + [("rom", 0, "interpolated")] * (n - 1) + [None, None]
    assert meter.kind_factor("hfm") == speed.REFERENCE_S / 4e-3
    assert meter.model_factor(0.0, 0, "hfm") == speed.REFERENCE_S / 4e-3
    assert meter.model_factor(1.0, 0, "hfm") is None  # fewer than NEAREST since then
    assert meter.kind_factor("rom") is None


def test_integrations_take_their_own_factor_or_the_fallback():
    score = workloads.BenchScore()
    own = {("0", "interpolated"): 0.5}
    workloads.score_report(_report([0.01]), score, lambda i, model: own.get((str(i), model)))
    assert score.solve_times(rom_factor=3.0, hfm_factor=3.0) == (1.0, 3.0, 3.0)


def test_timer_samples_inside_long_calls_and_is_removed():
    import signal

    with speed.Meter() as meter:
        deadline = time.perf_counter() + 3.5 / speed.SAMPLE_HZ
        while time.perf_counter() < deadline:
            pass
    assert len(meter.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_only_every_second_round_runs_traced():
    from tracing import Tracer

    run = workloads._Run(workloads.WORKLOADS["offline-desk"], None, None, 0, Tracer(), speed.Meter())
    seen = []
    for _ in range(4):
        seen.append(run.unit(lambda: hasattr(workloads.pipeline.build_database, "__wrapped__")))
        run.rounds += 1
    assert seen == [False, True, False, True]
    assert not hasattr(workloads.pipeline.build_database, "__wrapped__")
    assert (len(run.walls[False]), len(run.walls[True])) == (2, 2)
