"""Host speed reference: a fixed kernel timed throughout a run.

The shared 2-vCPU host the benchmark was tuned on changes speed with no
code change: it flips between a fast and a slow state (about 1.75x apart)
every 0.1 to 1 s, and the share of slow time drifts over minutes (README
"Host noise").  The same slowdown stretches this kernel, which mixes the
three kinds of work promforge does: interpreted Python, small numpy calls
and a dense LAPACK solve.  The kernel does not touch promforge, so a change
to promforge cannot move it.

A timer signal runs the kernel SAMPLE_HZ times a second, also inside long
promforge calls, and the workloads add a sample after every timed
operation.  Each end-to-end time is reported at reference speed:
raw time * REFERENCE_S / (mean kernel time over the samples taken while
the operation ran).  A timer sample taken inside `newmark_integrate`
carries a label read from the interrupted stack (`integration_label`), so
that each integration inside `run_benchmark` can be scaled by the samples
taken while it ran.  Every timed interval includes the sampler's share of
it, about 2%, at any host speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one
# OpenBLAS thread); it only fixes the scale of the reported times.
REFERENCE_S = 0.7e-3
SAMPLE_HZ = 50
NEAREST = 3  # samples used for an operation too short to contain that many
TRIM = 0.1

_rng = np.random.default_rng(0)
_A = _rng.random((117, 117)) + 117.0 * np.eye(117)
_b = _rng.random(117)
_v = _rng.random(16)
_T = _rng.random((16, 16, 16))


def _step(i: int, table: dict) -> float:
    table[i % 7] = table.get(i % 7, 0.0) + 0.5 * i
    return table[i % 7]


def kernel() -> float:
    """0.4 to 0.7 ms of mixed work, with a fixed operation count."""
    acc, table = 0.0, {}
    for i in range(300):
        acc += _step(i, table)
    for _ in range(12):
        acc += float(np.einsum("ijk,j,k->i", _T, _v, _v)[0])
        acc += float(np.dot(_v, _v))
    acc += float(np.linalg.solve(_A, _b)[0])
    return acc


def integration_label(frame) -> tuple | None:
    """(kind, point, model) of the integration running in `frame`'s stack.

    `kind` is newmark_integrate's argument ("rom" or "hfm").  Inside
    run_benchmark, `point` and `model` are its loop variables `i` and
    `kind` (test point index, model name); elsewhere they are None.
    Outside an integration the label is None.
    """
    kind = None
    while frame is not None:
        name = frame.f_code.co_name
        if name == "newmark_integrate" and kind is None:
            kind = frame.f_locals.get("kind")
        elif name == "run_benchmark" and kind is not None:
            local = frame.f_locals
            return kind, local.get("i"), local.get("kind")
        frame = frame.f_back
    return (kind, None, None) if kind is not None else None


def trimmed_mean(values, trim: float = TRIM) -> float:
    """Mean of `values` with the slowest `trim` share dropped.

    A mean, not a median: when the host flips between its fast and slow
    states, the mean moves with the share of time spent in each, while a
    median jumps from one state to the other.  Dropping the slowest share
    removes preemptions, which are scheduling events, not host speed.
    """
    kept = sorted(values)[: max(1, round(len(values) * (1.0 - trim)))]
    return sum(kept) / len(kept)


class Meter:
    """Kernel samples with the time each was taken.

    Used as a context manager, it also samples from a SIGALRM timer.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.labels: list[tuple | None] = []
        self._sampling = False
        self._previous = None

    def sample(self, label: tuple | None = None) -> float:
        """Time one kernel call and record it; returns its time."""
        if self._sampling:  # a timer tick during an explicit sample
            return self.samples[-1] if self.samples else REFERENCE_S
        self._sampling = True
        try:
            started = time.perf_counter()
            kernel()
            ended = time.perf_counter()
            self.times.append(ended)
            self.samples.append(ended - started)
            self.labels.append(label)
        finally:
            self._sampling = False
        return ended - started

    def factor(self, started: float) -> float:
        """Scale factor for an operation that ran from `started` until now.

        Takes one sample, then divides REFERENCE_S by the trimmed mean of
        the samples taken since `started`, or of the NEAREST latest ones
        when fewer fell inside.
        """
        self.sample()
        inside = [s for t, s in zip(self.times, self.samples) if t >= started]
        if len(inside) < NEAREST:
            inside = self.samples[-NEAREST:]
        return REFERENCE_S / trimmed_mean(inside)

    def model_factor(self, started: float, point: int, model: str) -> float | None:
        """Scale factor over the timer samples taken since `started` inside
        run_benchmark's integration of `model` at test `point`; None with
        fewer than NEAREST of them."""
        chosen = [
            s for t, s, label in zip(self.times, self.samples, self.labels)
            if t >= started and label and label[1:] == (point, model)
        ]
        return REFERENCE_S / trimmed_mean(chosen) if len(chosen) >= NEAREST else None

    def kind_factor(self, kind: str) -> float | None:
        """Scale factor over the timer samples taken inside integrations of
        `kind` ("rom", "hfm") during the whole run; None with fewer than
        NEAREST of them.  The timer fires uniformly in time, so these
        samples weigh each integration by its length."""
        chosen = [s for s, label in zip(self.samples, self.labels) if label and label[0] == kind]
        return REFERENCE_S / trimmed_mean(chosen) if len(chosen) >= NEAREST else None

    def _tick(self, signum, frame) -> None:
        self.sample(integration_label(frame))

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
