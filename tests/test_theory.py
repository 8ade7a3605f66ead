import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbnn import (
    AccumulationMode,
    Activation,
    BoundQuery,
    InfeasibleBoundError,
    ReferenceNetwork,
    StreamKey,
    binarize_network,
    bound_validation,
    bound_value,
    convergence_sweep,
    counting,
    fit_reference,
    layer_energy,
    m_min_bound,
    make_target,
    unit_grid,
)
from scbnn.netcore import pow2_scale
import scbnn.bnn
import scbnn.scnn
import scbnn.theory
from scbnn.theory import SweepRow, _median, _row_statistics
from test_golden import TWO_INPUT_NET

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
        with pytest.raises(ValueError, match="hidden width N must be >= 1, got 0"):
            BoundQuery(1, 0, 0.1, 0.1)

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
        with pytest.raises(ValueError, match="^Ms is empty$"):
            convergence_sweep(net, f, [], 30, grid, AccumulationMode.APC, KEY, 0.1)
        with pytest.raises(ValueError, match="trials"):
            convergence_sweep(net, f, [4, 16], 10, grid, AccumulationMode.APC, KEY, 0.1)
        with pytest.raises(ValueError, match="jobs"):
            convergence_sweep(net, f, [4, 16], 30, grid, AccumulationMode.APC, KEY, 0.1, jobs=0)

    def test_empty_grid_is_refused(self):
        with pytest.raises(ValueError, match=r"^grid is empty$"):
            convergence_sweep(degenerate_net(), make_target("constant", 1, value=0.0), [4], 30, np.empty((0, 1)),
                              AccumulationMode.APC, KEY, 0.1)

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

    def test_serial_sweep_leaves_multiprocessing_unloaded(self, tmp_path):
        # A process pool is imported only for --jobs > 1: multiprocessing,
        # socket and subprocess cost about 1.5 MB of RSS in every command.
        code = (
            "import sys; from scbnn.cli import main; "
            "assert main(['fit', '--target', 'sine', '--N', '4', '--seed', '2', '--out-dir', 'net']) == 0; "
            "assert main(['sweep', '--network', 'net/network.json', '--target', 'sine', '--Ms', '16', "
            "'--trials', '30', '--grid-points', '3', '--jobs', '1', '--out-dir', 'sweep']) == 0; "
            "print('multiprocessing' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(scbnn.theory.__file__).parents[1])},
        )
        assert proc.stderr == "False\n", proc.stderr
        assert (tmp_path / "sweep" / "sweep.csv").is_file()

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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

    def test_empty_grid_is_refused(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 64), StreamKey(1))
        q = BoundQuery(1, 2, 10.0, 0.5, alpha_sum=max(2.0, net.alpha_sum))
        with pytest.raises(ValueError, match=r"^grid is empty$"):
            bound_validation(q, net, f, trials=10, key=KEY, grid=np.empty((0, 1)))

    def test_infeasible_guard(self):
        f = make_target("linear", 1)
        net = fit_reference(f, 2, unit_grid(1, 16), StreamKey(1))
        q = BoundQuery(3, 64, 0.01, 0.01)
        with pytest.raises(InfeasibleBoundError, match="2\\^26"):
            bound_validation(q, net, f, trials=10, key=KEY)


class TestEveryKeyIsDistinct:
    """The convergence proofs assume that every stream of a run is
    independent of every other. Streams under distinct Philox keys are, so
    the assumption reduces to one fact: no two streams of a run share a key.
    Every stream and select key of a forward pass comes from
    `scnn.fold_seeds`, and every sign of a binarization from one
    `bnn.encode_many`, so a run's keys are recorded there. The second key
    word is a function of the first, so keys span 2^64 values, and S keys
    collide by chance with probability about S^2/2^65, below 10^-11 for the
    at most 10^4 keys of a run here: a repeat is a fault of the key scheme,
    not bad luck."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        keys = []
        real_fold, real_encode = scbnn.scnn.fold_seeds, scbnn.bnn.encode_many

        def fold(*args):
            out = real_fold(*args)
            keys.append(out.reshape(-1, 2))
            return out

        monkeypatch.setattr(scbnn.scnn, "fold_seeds", fold)
        monkeypatch.setattr(scbnn.bnn, "encode_many", lambda p, k, M: keys.append(k) or real_encode(p, k, M))
        return keys

    @staticmethod
    def assert_distinct(keys, count):
        keys = np.concatenate(keys)
        assert len(keys) == count
        duplicates = count - len(np.unique(keys, axis=0))
        assert duplicates == 0, f"{duplicates} of {count} keys repeat an earlier key"

    @pytest.mark.parametrize("mode", list(AccumulationMode))
    def test_sweep(self, recorded, mode):
        # TWO_INPUT_NET has n = 2 and N = 3: 15 streams a row, and 3 select keys in MUX mode.
        f = make_target("linear", 2)
        convergence_sweep(TWO_INPUT_NET, f, [16, 64], 30, unit_grid(2, 3), mode, StreamKey(12), 0.1)
        per_row = 15 + (3 if mode is AccumulationMode.MUX else 0)
        self.assert_distinct(recorded, 2 * 30 * 9 * per_row)

    def test_mux_bound_validation(self, recorded):
        q = BoundQuery(2, 3, 2.0, 0.5, alpha_sum=2.5)
        bound_validation(q, TWO_INPUT_NET, make_target("linear", 2), trials=30, key=StreamKey(13),
                         grid=unit_grid(2, 3), mode=AccumulationMode.MUX)
        self.assert_distinct(recorded, 30 * 9 * 18)

    def test_binarize_network(self, recorded):
        binarize_network(TWO_INPUT_NET, StreamKey(14))
        self.assert_distinct(recorded, 3 * 2 + 3)
