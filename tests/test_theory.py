import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scbnn import (
    AccumulationMode,
    Activation,
    BoundQuery,
    Encoding,
    InfeasibleBoundError,
    ReferenceNetwork,
    StreamKey,
    bound_validation,
    bound_value,
    chebyshev_stream_bound_check,
    convergence_sweep,
    counting,
    decode,
    fit_reference,
    layer_energy,
    m_min_bound,
    make_target,
    sng_encode,
    unit_grid,
)
from scbnn.netcore import pow2_scale
import scbnn.theory
from scbnn.theory import SweepRow, _median, _row_statistics

KEY = StreamKey(0x7E07)


class TestMinBound:
    def test_reference_value(self):
        assert m_min_bound(BoundQuery(2, 10, 0.1, 0.1)) == 900001

    def test_strict_inequality_on_non_integer(self):
        # bound value 4*9/ (0.25*0.5) = 288 exactly -> 289
        q = BoundQuery(1, 3, 0.5, 0.5)
        assert bound_value(q) == Fraction(288)
        assert m_min_bound(q) == 289

    def test_alpha_sum_form(self):
        q = BoundQuery(2, 10, 0.1, 0.1, alpha_sum=2.5)
        assert bound_value(q) == Fraction(9 * 25, 4) / (Fraction(1, 100) * Fraction(1, 10))
        assert m_min_bound(q) == 56251

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            BoundQuery(0, 10, 0.1, 0.1)

    def test_invalid_epsilon_delta(self):
        with pytest.raises(ValueError):
            BoundQuery(1, 1, 0.0, 0.1)
        with pytest.raises(ValueError):
            BoundQuery(1, 1, 0.1, 0.0)
        with pytest.raises(ValueError):
            BoundQuery(1, 1, 0.1, 1.0)
        with pytest.raises(ValueError):
            BoundQuery(1, 1, 0.1, 0.1, alpha_sum=-1.0)

    @pytest.mark.parametrize(
        "epsilon, delta, alpha_sum",
        [(0.1, 0.1, math.inf), (0.1, 0.1, math.nan), (0.1, math.nan, None), (math.inf, 0.1, None)],
    )
    def test_non_finite_rejected(self, epsilon, delta, alpha_sum):
        with pytest.raises(ValueError):
            BoundQuery(1, 1, epsilon, delta, alpha_sum=alpha_sum)

    def test_halving_epsilon_quadruples_bound_value(self):
        for eps in (0.1, 0.3, 0.07):
            a = bound_value(BoundQuery(2, 5, eps, 0.2))
            b = bound_value(BoundQuery(2, 5, eps / 2, 0.2))
            assert b == 4 * a

    @given(
        st.integers(1, 6),
        st.integers(1, 20),
        st.sampled_from([0.05, 0.1, 0.2, 0.5, 1.0]),
        st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.9]),
    )
    @settings(max_examples=60)
    def test_monotonicity(self, n, N, eps, delta):
        base = m_min_bound(BoundQuery(n, N, eps, delta))
        assert m_min_bound(BoundQuery(n + 1, N, eps, delta)) >= base
        assert m_min_bound(BoundQuery(n, N + 1, eps, delta)) >= base
        assert m_min_bound(BoundQuery(n, N, eps * 2, delta)) <= base
        assert m_min_bound(BoundQuery(n, N, eps, min(delta * 1.5, 0.99))) <= base

    def test_delta_near_one_still_well_formed(self):
        q = BoundQuery(1, 1, 1.0, 0.999)
        assert m_min_bound(q) >= 1


class TestChebyshevCheck:
    def test_worst_case_tail(self):
        tc = chebyshev_stream_bound_check(0.5, 100, 20_000, 2.0, KEY)
        assert tc.passed
        assert tc.tail_fraction <= 0.25 + 0.01
        # the true binomial tail brackets the empirical one: the threshold
        # k/(2 sqrt(M)) = 0.1 sits on a lattice point, so float comparison
        # may include or exclude |ones - 50| = 10 exactly
        strict = stats.binom.cdf(39, 100, 0.5) + stats.binom.sf(60, 100, 0.5)
        loose = stats.binom.cdf(40, 100, 0.5) + stats.binom.sf(59, 100, 0.5)
        se = 3 * math.sqrt(loose * (1 - loose) / 20_000)
        assert strict - se <= tc.tail_fraction <= loose + se

    def test_degenerate_value_has_zero_tail(self):
        tc = chebyshev_stream_bound_check(1.0, 100, 2000, 2.0, KEY)
        assert tc.tail_fraction == 0.0
        assert tc.passed

    def test_k_one_vacuous(self):
        tc = chebyshev_stream_bound_check(0.5, 64, 2000, 1.0, KEY)
        assert tc.chebyshev_bound == 1.0
        assert tc.passed

    def test_memory_is_bounded_in_trials(self):
        # Drawn all at once, 2048 trials of 2^16+8 bits would hold 16 MiB per block.
        tracemalloc.start()
        try:
            tc = chebyshev_stream_bound_check(0.5, 2**16 + 8, 2048, 2.0, KEY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tc.passed
        assert peak <= 2 * 2**20

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            chebyshev_stream_bound_check(0.5, 100, 100, 2.0, KEY)

    # M = 1000 draws its 1000 trials in two groups (524 + 476).
    @pytest.mark.parametrize("x, M, k", [
        (0.5, 100, 2.0), (0.3, 37, 1.5), (0.9, 1, 1.0), (0.0, 8, 2.0), (0.5, 4, 1.0), (0.3, 1000, 1.5),
    ])
    def test_matches_per_stream_draws(self, x, M, k):
        # Oracle: trial t is one sng_encode stream under the key ("cheb", t).
        key = KEY.substream("cheb-oracle", 3)
        threshold = k / (2.0 * math.sqrt(M))
        hits = sum(
            abs(decode(sng_encode(x, M, Encoding.UNIPOLAR, key.substream("cheb", t))) - x) >= threshold
            for t in range(1000)
        )
        tc = chebyshev_stream_bound_check(x, M, 1000, k, key)
        assert tc.threshold == threshold and tc.tail_fraction == hits / 1000
        assert tc.passed == (hits / 1000 <= 1.0 / (k * k) + 1.0 / math.sqrt(1000))


def degenerate_net():
    W = np.array([[0.5]])
    b = np.array([0.2])
    return ReferenceNetwork(
        W, b, np.array([0.0]), Activation.SIGMOID, pow2_scale(max(np.abs(W).max(), np.abs(b).max()))
    )


class TestConvergenceSweep:
    def test_degenerate_net_all_zero_errors(self):
        net = degenerate_net()
        f = make_target("constant", 1, value=0.0)
        rep = convergence_sweep(
            net, f, [4, 16], 30, unit_grid(1, 5), AccumulationMode.APC, KEY, 0.1
        )
        for row in rep.rows:
            assert row.median_vs_reference == 0.0
            assert row.max_vs_target == 0.0
            assert row.failure_rate == 0.0

    def test_rows_carry_both_error_terms(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 8, unit_grid(1, 64), StreamKey(6))
        rep = convergence_sweep(
            net, f, [16, 64], 30, unit_grid(1, 5), AccumulationMode.APC, KEY, 0.5
        )
        assert [r.M for r in rep.rows] == [16, 64]
        for row in rep.rows:
            assert row.rms_vs_reference > 0
            assert row.rms_vs_target > 0
            assert 0.0 <= row.failure_rate <= 1.0

    def test_failure_rate_nonincreasing_within_noise(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 8, unit_grid(1, 64), StreamKey(6))
        rep = convergence_sweep(
            net, f, [32, 128, 512], 40, unit_grid(1, 7), AccumulationMode.APC, KEY, 0.4
        )
        rates = [r.failure_rate for r in rep.rows]
        count = 40 * 7
        for a, b in zip(rates, rates[1:]):
            se = math.sqrt(max(a * (1 - a), 0.25 / count) / count)
            assert b <= a + 2 * se

    def test_deterministic_bytes(self):
        net = degenerate_net()
        f = make_target("constant", 1, value=0.0)
        reps = [
            convergence_sweep(net, f, [4, 8], 30, unit_grid(1, 3), AccumulationMode.APC, StreamKey(3), 0.1)
            for _ in range(2)
        ]
        blobs = [json.dumps(r.to_dict(), sort_keys=True) for r in reps]
        assert blobs[0] == blobs[1]

    def test_parallel_equals_sequential(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 4, unit_grid(1, 32), StreamKey(6))
        kwargs = dict(
            Ms=[8, 16], trials=30, grid=unit_grid(1, 3),
            mode=AccumulationMode.APC, key=StreamKey(4), epsilon=0.3,
        )
        seq = convergence_sweep(net, f, jobs=1, **kwargs)
        par = convergence_sweep(net, f, jobs=2, **kwargs)
        assert json.dumps(seq.to_dict(), sort_keys=True) == json.dumps(par.to_dict(), sort_keys=True)

    def test_gate_counts_cross_worker_processes(self):
        f = make_target("sine", 1)
        net = fit_reference(f, 4, unit_grid(1, 32), StreamKey(6))
        Ms, trials, grid = [8, 16], 30, unit_grid(1, 3)
        tallies = []
        for jobs in (1, 2):
            with counting() as counts:
                convergence_sweep(
                    net, f, Ms, trials, grid, AccumulationMode.APC, StreamKey(4), 0.3, jobs=jobs
                )
            tallies.append(counts.as_dict())
        evaluations = trials * grid.shape[0]
        expected = {
            cls: sum(layer_energy(1, M, 4, AccumulationMode.APC).classes()[cls] for M in Ms) * evaluations
            for cls in tallies[0]
        }
        assert tallies[0] == tallies[1] == expected
        assert expected["xnor_ops"] == (8 + 16) * 4 * evaluations

    def test_validation(self):
        net = degenerate_net()
        f = make_target("constant", 1, value=0.0)
        grid = unit_grid(1, 3)
        with pytest.raises(ValueError, match="ascending"):
            convergence_sweep(net, f, [16, 4], 30, grid, AccumulationMode.APC, KEY, 0.1)
        with pytest.raises(ValueError, match="trials"):
            convergence_sweep(net, f, [4, 16], 10, grid, AccumulationMode.APC, KEY, 0.1)
        with pytest.raises(ValueError, match="jobs"):
            convergence_sweep(net, f, [4, 16], 30, grid, AccumulationMode.APC, KEY, 0.1, jobs=0)

    def test_sweep_row_fields_are_the_row_statistics(self):
        names = [field.name for field in dataclasses.fields(SweepRow)]
        stats = _row_statistics(np.ones((1, 1)), np.ones(1), np.ones(1), 0.1)
        assert names == ["M", "trials", "grid_size", *stats]

    @given(st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_median_is_numpy_median(self, values):
        v = np.array(values)
        assert _median(v) == np.median(v)

    def test_row_statistics_leave_numpy_ma_unloaded(self):
        # np.median imports numpy.ma on its first call, about 1.5 MB of RSS
        # in every sweep and bound-validation process.
        code = (
            "import sys; import numpy as np; from scbnn.theory import _row_statistics; "
            "v = np.arange(12.0).reshape(3, 4); _row_statistics(v, v[0], v[1], 0.5); "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(scbnn.theory.__file__).parents[1])},
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_pool_is_no_larger_than_its_work(self, monkeypatch):
        # 30 tasks are 4 chunks of 8, so jobs=10**6 asks for at most 4 workers.
        # A fake pool records the size and maps serially: none is started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(scbnn.theory, "ProcessPoolExecutor", SerialPool)
        f = make_target("sine", 1)
        net = fit_reference(f, 4, unit_grid(1, 32), StreamKey(6))
        args = (net, f, [16], 30, unit_grid(1, 3), AccumulationMode.APC, StreamKey(4), 0.3)
        reports = [convergence_sweep(*args, jobs=jobs) for jobs in (10**6, 1)]
        assert sizes == [min(4, len(os.sched_getaffinity(0)))]
        assert json.dumps(reports[0].to_dict()) == json.dumps(reports[1].to_dict())


class TestBoundValidation:
    def test_tiny_net_passes(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 256), StreamKey(1))
        q = BoundQuery(1, 2, 0.5, 0.25, alpha_sum=max(2.0, net.alpha_sum))
        rep = bound_validation(q, net, f, trials=20, key=StreamKey(12))
        assert rep.M == m_min_bound(q)
        assert rep.passed
        assert rep.failure_rate <= rep.threshold

    def test_vacuous_epsilon(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 64), StreamKey(1))
        q = BoundQuery(1, 2, 10.0, 0.5, alpha_sum=1.0)
        rep = bound_validation(q, net, f, trials=10, key=KEY)
        assert rep.failure_rate == 0.0

    @pytest.mark.parametrize("query, message", [
        (BoundQuery(2, 2, 0.5, 0.25, alpha_sum=2.0), "--n 2 does not match the network's n = 1"),
        (BoundQuery(1, 3, 0.5, 0.25, alpha_sum=2.0), "--N 3 does not match the network's N = 2"),
        (BoundQuery(1, 2, 0.5, 0.25, alpha_sum=0.5),
         "A = 0.5 (from --alpha-sum) is below the network's sum |alpha| = {}"),
    ], ids=["n", "N", "alpha-sum"])
    def test_refuses_a_network_the_bound_does_not_cover(self, query, message):
        # The library refuses it, not only the CLI: a PASS for such a net would mean nothing.
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 64), StreamKey(1))
        with pytest.raises(ValueError) as raised:
            bound_validation(query, net, f, trials=10, key=KEY)
        assert str(raised.value) == message.format(net.alpha_sum)

    def test_infeasible_guard(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 16), StreamKey(1))
        q = BoundQuery(3, 64, 0.01, 0.01)
        with pytest.raises(InfeasibleBoundError, match="2\\^26"):
            bound_validation(q, net, f, trials=10, key=KEY)
