"""Bit-length bound calculator and Monte-Carlo convergence harness.

The bound M > (n+1)^2 A^2 / (eps^2 delta) is evaluated in exact rational
arithmetic on the decimal values of the inputs, so e.g. (n=2, N=10,
eps=0.1, delta=0.1) yields exactly 900001. The sweep and validation
routines verify the predicted convergence behavior empirically on one trial
loop and one row statistic; they are deterministic in the master key,
including under parallel execution.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .bitstream import _DRAW_BLOCK, StreamKey, encode_blocks
from .netcore import ReferenceNetwork, TargetFunction, forward_reference, unit_grid
from .scgates import AccumulationMode, GateCounts, add_counts, counting
from .scnn import M_FEASIBLE_CAP, ScnnConfig, forward_scnn_grid


class InfeasibleBoundError(ValueError):
    """The requested bound is too large to simulate; loosen eps or delta."""


@dataclass(frozen=True)
class BoundQuery:
    n: int
    N: int
    epsilon: float
    delta: float
    alpha_sum: float | None = None  # defaults to N

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"input dimension n must be >= 1, got {self.n}")
        if self.N < 1:
            raise ValueError(f"hidden width N must be >= 1, got {self.N}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.alpha_sum is not None and not (self.alpha_sum > 0 and math.isfinite(self.alpha_sum)):
            raise ValueError(f"alpha_sum must be positive and finite, got {self.alpha_sum!r}")


def _exact(x: float) -> Fraction:
    # str() gives the shortest decimal that round-trips, which is the value
    # the caller wrote; Decimal makes it an exact rational.
    return Fraction(Decimal(str(x)))


def bound_value(q: BoundQuery) -> Fraction:
    """Exact rational value of (n+1)^2 A^2 / (eps^2 delta)."""
    A = _exact(q.alpha_sum) if q.alpha_sum is not None else Fraction(q.N)
    return Fraction((q.n + 1) ** 2) * A * A / (_exact(q.epsilon) ** 2 * _exact(q.delta))


def m_min_bound(q: BoundQuery) -> int:
    """Smallest integer strictly greater than the bound value."""
    return math.floor(bound_value(q)) + 1


@dataclass(frozen=True)
class TailCheck:
    x: float
    M: int
    trials: int
    k: float
    threshold: float  # k / (2 sqrt(M)), from the per-bit variance cap 1/4
    tail_fraction: float
    chebyshev_bound: float  # 1 / k^2
    slack: float
    passed: bool


def chebyshev_stream_bound_check(
    x: float,
    M: int,
    trials: int,
    k: float,
    key: StreamKey,
) -> TailCheck:
    """Empirical tail P(|decode - x| >= k/(2 sqrt(M))) for unipolar streams,
    compared against the Chebyshev bound 1/k^2 plus sampling slack.
    """
    if trials < 1000:
        raise ValueError(f"need trials >= 1000 for a stable tail estimate, got {trials}")
    if k <= 0:
        raise ValueError(f"deviation multiple k must be positive, got {k}")
    threshold = k / (2.0 * math.sqrt(M))
    # Trial t is the unipolar stream of x under key.substream("cheb", t),
    # counted one block of clocks at a time, in groups of trials that hold
    # at most 8 * _DRAW_BLOCK bits per block.
    ones = np.zeros(trials, dtype=np.int64)
    group = 8 * _DRAW_BLOCK // min(M, _DRAW_BLOCK)
    for start in range(0, trials, group):
        t = np.arange(start, min(trials, start + group))
        for block in encode_blocks(np.full(t.size, x), key.substream_keys([("cheb", t, 0)]), M):
            ones[t] += np.bitwise_count(block, out=block).sum(axis=1, dtype=np.int64)
    hits = int(np.count_nonzero(np.abs(ones / M - x) >= threshold))
    fraction = hits / trials
    bound = 1.0 / (k * k)
    slack = 1.0 / math.sqrt(trials)
    return TailCheck(
        x=x,
        M=M,
        trials=trials,
        k=k,
        threshold=threshold,
        tail_fraction=fraction,
        chebyshev_bound=bound,
        slack=slack,
        passed=fraction <= bound + slack,
    )


@dataclass(frozen=True)
class SweepRow:
    M: int
    trials: int
    grid_size: int
    median_vs_reference: float
    max_vs_reference: float
    rms_vs_reference: float
    median_vs_target: float
    max_vs_target: float
    rms_vs_target: float
    failure_rate: float


@dataclass
class ConvergenceReport:
    rows: list[SweepRow]
    epsilon: float
    mode: AccumulationMode
    seed: int
    slope_median: float | None  # log-log slope of median |G_SC - G| vs M; None (null) if undefined
    slope_rms: float | None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "mode": self.mode.value,
            "seed": self.seed,
            "slope_median": self.slope_median,
            "slope_rms": self.slope_rms,
            "rows": [vars(r) for r in self.rows],
        }


def _sweep_task(args) -> tuple[np.ndarray, GateCounts]:
    # Gate tallies are returned with the values: a counting() block in the
    # caller does not reach a worker process.
    net, grid, cfg, indices = args
    with counting() as counts:
        values = forward_scnn_grid(net, grid, cfg, *indices)
    return values, counts


def _run_trials(net: ReferenceNetwork, grid: np.ndarray, runs, jobs: int) -> np.ndarray:
    """The Monte-Carlo trial loop: row r of the (runs, P) result is
    `forward_scnn_grid(net, grid, cfg, *indices)` for the r-th (cfg, indices)."""
    tasks = [(net, grid, cfg, indices) for cfg, indices in runs]
    if jobs > 1:
        # Keyed values do not depend on the worker count, so start no more
        # workers than there are chunks of 8 tasks or usable CPUs.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(jobs, -(-len(tasks) // 8), cpus)) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=8))
    else:
        results = [_sweep_task(t) for t in tasks]
    for _, counts in results:
        add_counts(counts)
    return np.array([values for values, _ in results])


def _median(v: np.ndarray) -> float:
    """`np.median` of a 1-d array by its own arithmetic, the mean of the two
    middle sorted values, without the `numpy.ma` import (about 1.5 MB RSS)
    that `np.median` makes on its first call."""
    s = np.sort(v)
    return float((s[(s.size - 1) // 2] + s[s.size // 2]) / 2)


def _row_statistics(values: np.ndarray, g_ref: np.ndarray, g_target: np.ndarray, epsilon: float) -> dict:
    """The `SweepRow` statistics of a (trials, P) block of SCNN values."""
    vs_reference = np.abs(values - g_ref).ravel()
    vs_target = np.abs(values - g_target).ravel()
    return {
        "median_vs_reference": _median(vs_reference),
        "max_vs_reference": float(vs_reference.max()),
        "rms_vs_reference": float(np.sqrt(np.mean(vs_reference**2))),
        "median_vs_target": _median(vs_target),
        "max_vs_target": float(vs_target.max()),
        "rms_vs_target": float(np.sqrt(np.mean(vs_target**2))),
        "failure_rate": int(np.count_nonzero(vs_target >= epsilon)) / vs_target.size,
    }


def _loglog_slope(Ms: list[int], errs: list[float]) -> float | None:
    if len(Ms) < 2 or any(e <= 0 for e in errs):
        return None
    return float(np.polyfit(np.log(Ms), np.log(errs), 1)[0])


def convergence_sweep(
    net: ReferenceNetwork,
    f: TargetFunction,
    Ms: list[int],
    trials: int,
    grid: np.ndarray,
    mode: AccumulationMode,
    key: StreamKey,
    epsilon: float,
    jobs: int = 1,
) -> ConvergenceReport:
    """Monte-Carlo sweep of SCNN error versus stream length.

    For each M, each trial evaluates the SCNN on the whole grid with fresh
    derived keys; the report carries both error terms (|G_SC - G| and
    |G_SC - f|) and the empirical failure rate P(|G_SC - f| >= epsilon).
    """
    if list(Ms) != sorted(set(Ms)):
        raise ValueError("Ms must be strictly ascending")
    if not Ms:
        raise ValueError("Ms is empty")
    if trials < 30:
        raise ValueError(f"need trials >= 30, got {trials}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    g_ref = np.atleast_1d(forward_reference(net, grid))
    g_target = np.atleast_1d(f(grid))
    runs = [(ScnnConfig(M, key, mode), (mi, t)) for mi, M in enumerate(Ms) for t in range(trials)]
    values = _run_trials(net, grid, runs, jobs)
    rows = [
        SweepRow(M, trials, grid.shape[0], **_row_statistics(block, g_ref, g_target, epsilon))
        for M, block in zip(Ms, np.split(values, len(Ms)))
    ]
    return ConvergenceReport(
        rows=rows,
        epsilon=epsilon,
        mode=mode,
        seed=key.seed,
        slope_median=_loglog_slope(list(Ms), [r.median_vs_reference for r in rows]),
        slope_rms=_loglog_slope(list(Ms), [r.rms_vs_reference for r in rows]),
    )


@dataclass(frozen=True)
class BoundReport:
    M: int
    epsilon: float
    delta: float
    trials: int
    grid_size: int
    samples: int
    failure_rate: float
    threshold: float  # delta + 2 binomial standard errors
    passed: bool


def bound_validation(
    q: BoundQuery,
    net: ReferenceNetwork,
    f: TargetFunction,
    trials: int,
    key: StreamKey,
    grid: np.ndarray | None = None,
    mode: AccumulationMode = AccumulationMode.APC,
) -> BoundReport:
    """Run the SCNN at M = m_min_bound(q) and check that the empirical
    failure rate P(|G_SC - f| >= eps) stays within delta plus two binomial
    standard errors. The bound is Chebyshev-loose, so observed rates land
    far below delta. It covers only networks of the queried n and N whose
    sum |alpha| is at most A; any other network raises ValueError.
    """
    M = m_min_bound(q)
    if M > M_FEASIBLE_CAP:
        raise InfeasibleBoundError(
            f"m_min_bound gives M={M} > 2^26; increase epsilon or delta"
        )
    for name, asked, has in (("n", q.n, net.n), ("N", q.N, net.N)):
        if asked != has:
            raise ValueError(f"--{name} {asked} does not match the network's {name} = {has}")
    A, source = (q.N, "--N") if q.alpha_sum is None else (q.alpha_sum, "--alpha-sum")
    if A < net.alpha_sum:
        raise ValueError(f"A = {A!r} (from {source}) is below the network's sum |alpha| = {net.alpha_sum!r}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if grid is None:
        grid = unit_grid(net.n, 9)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    g_ref, g_target = np.atleast_1d(forward_reference(net, grid)), np.atleast_1d(f(grid))
    values = _run_trials(net, grid, [(ScnnConfig(M, key, mode), (t,)) for t in range(trials)], 1)
    rate = _row_statistics(values, g_ref, g_target, q.epsilon)["failure_rate"]
    samples = values.size
    se = math.sqrt(q.delta * (1.0 - q.delta) / samples)
    threshold = q.delta + 2.0 * se
    return BoundReport(
        M=M,
        epsilon=q.epsilon,
        delta=q.delta,
        trials=trials,
        grid_size=grid.shape[0],
        samples=samples,
        failure_rate=rate,
        threshold=threshold,
        passed=rate <= threshold,
    )
