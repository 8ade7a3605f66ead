"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timing. Every check is deterministic: all randomness flows
from fixed StreamKey seeds.
"""

import math
import time
from fractions import Fraction

import numpy as np

from scbnn import (
    AccumulationMode,
    Activation,
    BinaryNetwork,
    Bitstream,
    BoundQuery,
    Encoding,
    StreamKey,
    and_mult,
    apc_sum,
    binarize,
    bnn_layer_energy,
    bnn_to_scnn,
    bound_validation,
    chunk_bits,
    convergence_sweep,
    counting,
    decode,
    dot_product_sc,
    encode_many,
    fit_reference,
    hard_sigmoid,
    join_bits,
    layer_energy,
    m_min_bound,
    make_target,
    popcount,
    preactivation_equivalence_check,
    scnn_to_bnn,
    sng_encode,
    unit_grid,
    xnor_mult,
)


def report(criterion: str, passed: bool, detail: str, t0: float):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({time.perf_counter() - t0:.1f}s)")
    assert passed, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_c1_encoding_worked_examples(self):
        t0 = time.perf_counter()
        uni = decode(Bitstream.from_bits("0100110100", Encoding.UNIPOLAR))
        bip = decode(Bitstream.from_bits("1011011101", Encoding.BIPOLAR))
        report(
            "1 encoding examples",
            uni == 0.4 and bip == 0.4,
            f"unipolar 0100110100 -> {uni!r}, bipolar 1011011101 -> {bip!r}",
            t0,
        )

    def test_c2_gate_identities(self):
        t0 = time.perf_counter()
        M = 2**14
        pairs = 10_000
        bound = 3.0 * (1.0 / (2.0 * math.sqrt(M))) * 2.0
        key = StreamKey(0xC2)
        gen = key.substream("values").generator()
        xs_u = gen.uniform(0.0, 1.0, pairs)
        ys_u = gen.uniform(0.0, 1.0, pairs)
        xs_b = gen.uniform(-1.0, 1.0, pairs)
        ys_b = gen.uniform(-1.0, 1.0, pairs)
        and_err = 0.0
        xnor_err = 0.0
        for t in range(pairs):
            a = sng_encode(xs_u[t], M, Encoding.UNIPOLAR, key.substream("au", t))
            b = sng_encode(ys_u[t], M, Encoding.UNIPOLAR, key.substream("bu", t))
            and_err += decode(and_mult(a, b)) - xs_u[t] * ys_u[t]
            c = sng_encode(xs_b[t], M, Encoding.BIPOLAR, key.substream("ab", t))
            d = sng_encode(ys_b[t], M, Encoding.BIPOLAR, key.substream("bb", t))
            xnor_err += decode(xnor_mult(c, d)) - xs_b[t] * ys_b[t]
        and_err = abs(and_err / pairs)
        xnor_err = abs(xnor_err / pairs)

        apc_exact = True
        igen = np.random.default_rng(0xC2)
        for _ in range(1000):
            k = int(igen.integers(1, 6))
            m = int(igen.integers(1, 65))
            streams = [
                Bitstream.from_bits(igen.integers(0, 2, m), Encoding.BIPOLAR)
                for _ in range(k)
            ]
            lhs = Fraction(2 * apc_sum(streams) - k * m, m)
            rhs = sum(Fraction(2 * popcount(s) - m, m) for s in streams)
            apc_exact = apc_exact and lhs == rhs
        report(
            "2 gate identities",
            and_err < bound and xnor_err < bound and apc_exact,
            f"|mean AND err|={and_err:.2e}, |mean XNOR err|={xnor_err:.2e} "
            f"(bound {bound:.2e}); APC exact on 10^3 instances: {apc_exact}",
            t0,
        )

    def test_c3_variance_cap(self):
        # One stream's count of ones is Bin(M, x), so Chebyshev's step in the
        # bit-length bound is P(|ones/M - x| >= k/(2 sqrt(M))) <= 1/k^2. The
        # exact tail is checked against 1/k^2, and the keyed streams' tail
        # against the exact one. The bar, fixed before the run: each
        # empirical tail lies within 4 binomial standard errors of the exact.
        t0 = time.perf_counter()
        key, trials, z_bar = StreamKey(0xC3), 20_000, 4.0
        var_ratio, worst_z, bounded = 0.0, 0.0, True
        # x = 0.5 has the largest per-bit variance; M = 37 is not byte-aligned.
        for label, x, M, checked in (("v", 0.5, 1000, 500), ("a", 0.3, 37, 100)):
            # Stream t is sng_encode(x, M, unipolar, key.substream(label, t)),
            # all drawn in one call; the first `checked` are checked against it.
            rows = encode_many(np.full(trials, x), key.substream_keys([(label, np.arange(trials), 0)]), M)
            for t in range(checked):
                assert np.array_equal(rows[t], sng_encode(x, M, Encoding.UNIPOLAR, key.substream(label, t)).bits)
            ones = np.bitwise_count(rows).sum(axis=1)
            var_ratio = max(var_ratio, float((ones / M).var()) * 4 * M)  # capped by 4 x (1 - x) <= 1
            hist = np.bincount(ones, minlength=M + 1).tolist()
            xf = Fraction(x)
            pmf = [math.comb(M, c) * xf**c * (1 - xf) ** (M - c) for c in range(M + 1)]
            for k in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
                # |c/M - x| >= k/(2 sqrt(M)), decided in exact arithmetic
                tail = [c for c in range(M + 1) if (c - M * xf) ** 2 >= k * k * M / 4]
                exact = sum((pmf[c] for c in tail), Fraction(0))
                bounded &= exact <= 1 / k**2
                p = float(exact)
                z = (sum(hist[c] for c in tail) / trials - p) / math.sqrt(p * (1 - p) / trials)
                worst_z = max(worst_z, abs(z))
        report(
            "3 variance cap",
            var_ratio <= 1.1 and bounded and worst_z <= z_bar,
            f"empirical var {var_ratio:.3f} / (4M) <= 1.1 / (4M); exact Bin(M, x) tails <= 1/k^2: {bounded}; "
            f"empirical tails within |z| = {worst_z:.2f} of them (bar {z_bar})",
            t0,
        )

    def test_c4_universal_approximation_desk_scale(self):
        t0 = time.perf_counter()
        f = make_target("sine", 1)
        net = fit_reference(
            f, 32, unit_grid(1, 256), StreamKey(2), edge_fraction=0.75, noise_penalty=1e-2
        )
        fit_ok = net.fit_sup_error < 0.05
        rep = convergence_sweep(
            net,
            f,
            [64, 256, 1024, 4096],
            200,
            unit_grid(1, 17),
            AccumulationMode.APC,
            StreamKey(0xC4),
            epsilon=0.15,
        )
        medians = [r.median_vs_reference for r in rep.rows]
        decreasing = all(a > b for a, b in zip(medians, medians[1:]))
        slope_ok = -0.65 <= rep.slope_median <= -0.35
        fail_rate = rep.rows[-1].failure_rate
        rate_ok = fail_rate < 0.05
        report(
            "4 universal approximation",
            fit_ok and decreasing and slope_ok and rate_ok,
            f"fit sup={net.fit_sup_error:.4f} (<0.05), medians={['%.4f' % m for m in medians]} "
            f"strictly decreasing={decreasing}, slope={rep.slope_median:.3f} in [-0.65,-0.35], "
            f"failure@M=4096={fail_rate:.4f} (<0.05)",
            t0,
        )

    def test_c5_bit_length_bound(self):
        t0 = time.perf_counter()
        ref = m_min_bound(BoundQuery(2, 10, 0.1, 0.1))
        bound_ok = ref == 900001
        f = make_target("linear", 1)
        tiny = fit_reference(f, 2, unit_grid(1, 256), StreamKey(1))
        q = BoundQuery(1, 2, 0.5, 0.25, alpha_sum=max(2.0, tiny.alpha_sum))
        val = bound_validation(q, tiny, f, trials=40, key=StreamKey(0xC5), grid=unit_grid(1, 9))
        report(
            "5 bit-length bound",
            bound_ok and val.passed,
            f"m_min_bound(2,10,0.1,0.1)={ref} (=900001); tiny-net validation at M={val.M}: "
            f"failure_rate={val.failure_rate:.4f} <= delta+2se={val.threshold:.4f}",
            t0,
        )

    def test_c6_bnn_scnn_equivalence(self):
        t0 = time.perf_counter()
        gen = np.random.default_rng(0xC6)
        nets = 1000
        all_ok = True
        checks = 0
        for _ in range(nets):
            m = int(gen.integers(1, 65))
            N = int(gen.integers(1, 4))
            bnet = BinaryNetwork(
                np.packbits(np.array([gen.choice([-1, 1], m) for _ in range(N)]) == 1, axis=1),
                m,
                gen.choice([-1, 1], N),
                gen.normal(size=N),
                Activation.SIGMOID,
            )
            x = Bitstream.from_signs(gen.choice([-1, 1], m))
            for M in range(1, m + 1):
                if m % M:
                    continue
                bundle = bnn_to_scnn(bnet, M)
                back = scnn_to_bnn(bundle)
                x_chunks = chunk_bits(x.bits, m, M)
                round_trip = (
                    bundle.weights.shape == (N, m // M, (M + 7) // 8)
                    and bundle.biases.shape == (N, (M + 7) // 8)
                    and x_chunks.shape == (m // M, (M + 7) // 8)
                    and Bitstream(join_bits(x_chunks, M), m, Encoding.BIPOLAR) == x
                    and np.array_equal(back.binary_biases, bnet.binary_biases)
                    and np.array_equal(back.binary_weights, bnet.binary_weights)
                )
                equiv = preactivation_equivalence_check(bnet, x, M).all_passed
                all_ok = all_ok and round_trip and equiv
                checks += 1
        report(
            "6 BNN<->SCNN equivalence",
            all_ok,
            f"{nets} random networks, {checks} (network, divisor) checks: "
            f"round trip bit-exact and preactivation identity exact",
            t0,
        )

    def test_c7_binarization_law(self):
        t0 = time.perf_counter()
        key = StreamKey(0xC7)
        trials = 100_000
        ok = True
        details = []
        for w in (-2.0, -0.5, 0.0, 0.3, 2.0):
            p = hard_sigmoid(w)
            # Draw t is binarize(w, key.substream(f"w{w}", t)), all of them
            # drawn as one-bit streams in one call; the first 2000 are
            # checked against it.
            keys = key.substream_keys([(f"w{w}", np.arange(trials), 0)])
            signs = 2 * (encode_many(np.full(trials, p), keys, 1)[:, 0] >> 7).astype(int) - 1
            assert signs[:2000].tolist() == [binarize(w, key.substream(f"w{w}", t)) for t in range(2000)]
            if p in (0.0, 1.0):
                want = 1 if p == 1.0 else -1
                const_ok = bool((signs[:1000] == want).all())
                ok = ok and const_ok
                details.append(f"w={w}: deterministic {want:+d}")
                continue
            draws = int(signs.sum())
            mean = draws / trials
            expect = 2.0 * p - 1.0
            se = 2.0 * math.sqrt(p * (1.0 - p) / trials)
            ok = ok and abs(mean - expect) < 4.0 * se
            details.append(f"w={w}: mean={mean:+.4f} vs {expect:+.2f} (4se={4*se:.4f})")
        report("7 binarization law", ok, "; ".join(details), t0)

    def test_c8_energy_model(self):
        t0 = time.perf_counter()
        key = StreamKey(0xC8)
        agree = True
        budget_equal = True
        configs = 0
        for mode in (AccumulationMode.MUX, AccumulationMode.APC):
            for n in range(1, 17):
                for M in (8, 64):
                    for N in range(1, 9):
                        with counting() as counts:
                            for i in range(N):
                                unit_key = key.derive(n, M, N, i)
                                w = [
                                    sng_encode(0.25, M, Encoding.BIPOLAR, unit_key.substream("w", i, j))
                                    for j in range(n)
                                ]
                                x = [
                                    sng_encode(0.5, M, Encoding.BIPOLAR, unit_key.substream("x", i, j))
                                    for j in range(n)
                                ]
                                b = sng_encode(-0.5, M, Encoding.BIPOLAR, unit_key.substream("b", i))
                                dot_product_sc(w, x, b, mode, unit_key.substream("sel", i))
                        closed = layer_energy(n, M, N, mode)
                        agree = agree and closed.classes() == counts.as_dict()
                        budget_equal = budget_equal and (
                            closed.classes() == bnn_layer_energy(n * M, N, mode).classes()
                        )
                        configs += 1
        report(
            "8 energy model",
            agree and budget_equal,
            f"{configs} (n, M, N, mode) configs: instrumented counters == closed form "
            f"and layer_energy(n,M,N) == bnn_layer_energy(n*M,N) classwise",
            t0,
        )

    def test_c8_energy_counted_on_both_sides_of_the_bridge(self):
        # c8's closed forms agree by construction; here the scalar gates are
        # counted on a BNN (M = 1) and on every chunking of it at once.
        t0 = time.perf_counter()
        gen = np.random.default_rng(0xC8)
        m, N = 12, 3
        bnet = BinaryNetwork(
            np.packbits(gen.integers(0, 2, (N, m)), axis=1), m, gen.choice([-1, 1], N),
            gen.normal(size=N), Activation.SIGMOID,
        )
        x = Bitstream.from_signs(gen.choice([-1, 1], m))
        Ms = [M for M in range(1, m + 1) if m % M == 0]
        ok, details = True, []
        for mode in (AccumulationMode.APC, AccumulationMode.MUX):
            counted = []
            for M in Ms:
                bundle = bnn_to_scnn(bnet, M)
                xs = [Bitstream(row, M, Encoding.BIPOLAR) for row in chunk_bits(x.bits, m, M)]
                with counting() as counts:
                    for i in range(N):
                        ws = [Bitstream(row, M, Encoding.BIPOLAR) for row in bundle.weights[i]]
                        b = Bitstream(bundle.biases[i], M, Encoding.BIPOLAR)
                        dot_product_sc(ws, xs, b, mode, StreamKey(0xC8).substream("sel", i))
                counted.append(counts.as_dict())
            ok = ok and all(c == bnn_layer_energy(m, N, mode).classes() for c in counted)
            details.append(f"{mode.value} {counted[0]}")
        report("8 energy model, counted", ok, f"m={m}, N={N}, M in {Ms}: every split counts "
               f"bnn_layer_energy(m, N): " + "; ".join(details), t0)

    def test_c9_sweep_determinism(self, tmp_path):
        t0 = time.perf_counter()
        from scbnn.cli import main

        fit_dir = tmp_path / "fit"
        assert (
            main(
                ["fit", "--target", "sine", "--N", "8", "--grid-points", "64",
                 "--seed", "6", "--out-dir", str(fit_dir)]
            )
            == 0
        )
        base = [
            "sweep", "--network", str(fit_dir / "network.json"), "--target", "sine",
            "--Ms", "16,64", "--trials", "30", "--epsilon", "0.3",
            "--grid-points", "5", "--seed", "12345",
        ]
        dirs = [tmp_path / d for d in ("a", "b", "par")]
        assert main(base + ["--out-dir", str(dirs[0])]) == 0
        assert main(base + ["--out-dir", str(dirs[1])]) == 0
        assert main(base + ["--jobs", "2", "--out-dir", str(dirs[2])]) == 0
        blobs = [(d / "sweep.csv").read_bytes() for d in dirs]
        report(
            "9 sweep determinism",
            blobs[0] == blobs[1] == blobs[2],
            "same-seed reruns and parallel (--jobs 2) produce byte-identical CSV",
            t0,
        )
