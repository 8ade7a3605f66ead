"""Mutation ledger: each case patches one named defect into the package,
in process, and shows that the checks meant to catch it fail under it. The
same checks then run unpatched and must pass, so no case passes because its
check always fails.

    defect                                         checks that fail
    A: all units share one input stream            distinct keys of an APC sweep
                                                   (2160 of 8100 repeat)
    B: all units share one bias stream             the same (1080 of 8100)
    C: pairs of units share input streams          the same (1080 of 8100)
    select keys reuse the "weights" role           distinct keys of a MUX sweep
                                                   (1620 of 9720)
    each bias sign-extended with the wrong sign    preactivation_equivalence_check
    Philox resumed one block late past clock 0     encode_blocks against generator_rows
    the bound with n^2 in place of (n + 1)^2       TestMinBound's 900001, c5
    apc_ones without its bias term                 forward_scnn against the scalar
                                                   composition (APC), and
                                                   preactivation_equivalence_check
    the k = 2 MUX select bit inverted              a golden MUX pin of the n = 1 sine
                                                   net, TestMuxSelect at k = 2
    mux_add tallying k select cells, not k - 1     the counted gates against the
                                                   closed form (TestCounterAgreement),
                                                   c8 counted on both sides of the bridge

Expected survivors, each a gap that no check closes yet:
    the bound with n^2 in place of (n + 1)^2       c5's Monte-Carlo half (see
                                                   `test_n_squared_bound_survives_c5_validation`)
    the k = 2 MUX select bit inverted              forward_scnn against the scalar
                                                   composition, whose `mux_add` shares
                                                   `_mux_select` (see
                                                   `test_inverted_select_survives_the_scalar_oracle`)
    accumulator_width one bit too wide             every energy-row check: the counted
                                                   `apc_sum` and the closed form
                                                   `layer_energy` share the width (see
                                                   `test_wide_accumulator_survives_the_energy_checks`)
"""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import scbnn.bitstream
import scbnn.energy
import scbnn.scgates
import scbnn.scnn
import scbnn.theory
import scbnn.transform
import test_acceptance as acceptance_tests
import test_bitstream as bitstream_tests
import test_energy as energy_tests
import test_golden as golden_tests
import test_scgates as scgates_tests
import test_scnn as scnn_tests
import test_theory as theory_tests
from scbnn import (AccumulationMode, Activation, BinaryNetwork, Bitstream, Encoding, GateCounts, ScnnConfig,
                   StreamKey, preactivation_equivalence_check)
from scbnn.bitstream import _DRAW_BLOCK, key_layout


def distinct_sweep_keys(mode):
    """The distinct-key check of `TestEveryKeyIsDistinct` on its sweep in `mode`."""
    with pytest.MonkeyPatch.context() as recorder:
        theory_tests.TestEveryKeyIsDistinct().test_sweep(theory_tests.record_keys(recorder), mode)


def shared_streams(inputs, bias):
    """A mutant `scnn._key_layout` that keys unit i's input streams as unit
    inputs(i)'s and its bias stream as unit bias(i)'s."""
    def layout(N, n):
        unit, coord = np.arange(N)[:, None], np.arange(n)
        return key_layout([("weights", unit, coord), ("inputs", inputs(unit), coord), ("bias", bias(unit), 0)])
    return lambda patch: patch.setattr(scbnn.scnn, "_key_layout", layout)


def select_as_weights(patch):
    real = scbnn.scnn.key_layout
    renamed = lambda groups: real([("weights" if role == "select" else role, i, j) for role, i, j in groups])
    patch.setattr(scbnn.scnn, "key_layout", renamed)


def wrong_bias_sign(patch):
    real = scbnn.transform.bnn_to_scnn
    patch.setattr(scbnn.transform, "bnn_to_scnn",
                  lambda bnet, M: real(replace(bnet, binary_biases=-bnet.binary_biases), M))


def equivalence_holds():
    """`preactivation_equivalence_check` on a BNN with both bias signs, at every chunk length."""
    gen = np.random.default_rng(31)
    bnet = BinaryNetwork(np.packbits(gen.integers(0, 2, (2, 12), dtype=np.uint8), axis=1), 12,
                         np.array([1, -1]), np.ones(2), Activation.SIGMOID)
    x = Bitstream.from_signs(gen.choice([-1, 1], 12))
    for M in (1, 2, 3, 4, 6, 12):
        report = preactivation_equivalence_check(bnet, x, M)
        assert report.all_passed, f"units {np.flatnonzero(~report.passed).tolist()} fail at M={M}"


def late_resume(patch):
    # The re-keyed path sets the Philox counter to lo/4, so lo + 4 resumes one block late.
    real = scbnn.bitstream._encode_rekeyed
    patch.setattr(scbnn.bitstream, "_encode_rekeyed",
                  lambda probs, keys, lo, width, out: real(probs, keys, lo + 4 if lo else 0, width, out))


def blocks_equal_one_shot_draw():
    # Three blocks past clock 0: a full one (one stream fills it) and a 5-clock tail (a shared block).
    bitstream_tests.TestEncodeBlocks().test_blocks_equal_one_shot_draw(Encoding.BIPOLAR, 1, 3 * _DRAW_BLOCK + 5)


def n_squared_bound(patch):
    real = scbnn.theory.bound_value
    patch.setattr(scbnn.theory, "bound_value", lambda q: real(q) * Fraction(q.n**2, (q.n + 1) ** 2))


def apc_without_bias(patch):
    # The kernel is patched where each caller reads it.
    real = scbnn.scgates.apc_ones
    for module in (scbnn.scgates, scbnn.scnn, scbnn.transform):
        patch.setattr(module, "apc_ones", lambda w_bits, x_bits, b_bits, M: real(w_bits, x_bits, 0 * b_bits, M))


def apc_matches_scalar():
    golden_tests.forward_matches_scalar(golden_tests.TWO_INPUT_NET, [0.3, 0.9],
                                        ScnnConfig(64, StreamKey(11), AccumulationMode.APC))


def inverted_select(patch):
    # At k = 2, taking the rows in reverse order inverts every select bit.
    real = scbnn.scgates._mux_select
    for module in (scbnn.scgates, scbnn.scnn):
        patch.setattr(module, "_mux_select",
                      lambda rows, width, gen: real(rows[::-1] if len(rows) == 2 else rows, width, gen))


def sine_mux_pin():
    golden_tests.TestGoldenBytes().test_sine_forward(golden_tests.readme_sine_net(), AccumulationMode.MUX, 64)


def select_per_input(patch):
    # One select cell per input stream: k per clock, where a k-input MUX needs k - 1.
    real = scbnn.scgates.mux_add

    def mux_add(streams, key):
        scbnn.scgates.add_counts(GateCounts(mux_select_ops=streams[0].length))
        return real(streams, key)
    patch.setattr(scbnn.scgates, "mux_add", mux_add)


def wide_accumulator(patch):
    # One bit too wide except where input_bits + 1 is a power of two; both readers patched.
    for module in (scbnn.scgates, scbnn.energy):
        patch.setattr(module, "accumulator_width", lambda input_bits: input_bits.bit_length() + 1)


def counters_match_closed_form():
    """TestCounterAgreement's check in both modes at one layer size, its
    inner test called without Hypothesis."""
    check = energy_tests.TestCounterAgreement.test_counters_match_closed_form.hypothesis.inner_test
    for mode in AccumulationMode:
        check(energy_tests.TestCounterAgreement(), 3, 8, 2, mode)


counted_on_both_sides = acceptance_tests.TestAcceptance().test_c8_energy_counted_on_both_sides_of_the_bridge


MUTATIONS = [
    pytest.param(shared_streams(lambda unit: 0 * unit, lambda unit: unit),
                 [(lambda: distinct_sweep_keys(AccumulationMode.APC), "2160 of 8100 keys repeat")], id="A"),
    pytest.param(shared_streams(lambda unit: unit, lambda unit: 0 * unit),
                 [(lambda: distinct_sweep_keys(AccumulationMode.APC), "1080 of 8100 keys repeat")], id="B"),
    pytest.param(shared_streams(lambda unit: unit // 2, lambda unit: unit),
                 [(lambda: distinct_sweep_keys(AccumulationMode.APC), "1080 of 8100 keys repeat")], id="C"),
    pytest.param(select_as_weights,
                 [(lambda: distinct_sweep_keys(AccumulationMode.MUX), "1620 of 9720 keys repeat")],
                 id="select-keys-reuse-weights"),
    pytest.param(wrong_bias_sign, [(equivalence_holds, r"units \[0, 1\] fail at M=1")], id="wrong-bias-sign"),
    pytest.param(late_resume, [(blocks_equal_one_shot_draw, "generator_rows")], id="late-philox-resume"),
    pytest.param(n_squared_bound, [
        (theory_tests.TestMinBound().test_reference_value, "400001 == 900001"),
        (acceptance_tests.TestAcceptance().test_c5_bit_length_bound, "m_min_bound.2,10,0.1,0.1.=400001"),
    ], id="n-squared-bound"),
    # Unit 1's bias stream, the sign extension of -1, has no ones to lose.
    pytest.param(apc_without_bias, [(apc_matches_scalar, "the scalar composition"),
                                    (equivalence_holds, r"units \[0\] fail at M=1")], id="apc-without-bias"),
    pytest.param(inverted_select, [
        (sine_mux_pin, re.escape(golden_tests.SINE_FORWARD[("mux", 64)])),
        (lambda: scgates_tests.TestMuxSelect().test_chunked_draws_equal_one_shot_draw(2, 7), "array_equal"),
    ], id="inverted-k2-select"),
    pytest.param(select_per_input, [
        (counters_match_closed_form, "mux_select_ops"),
        (counted_on_both_sides, "criterion 8 energy model, counted"),
    ], id="mux-select-per-input"),
]


@pytest.mark.parametrize("mutate, checks", MUTATIONS)
def test_mutation_fails_its_checks(mutate, checks):
    with pytest.MonkeyPatch.context() as patch:
        mutate(patch)
        for check, failure in checks:
            with pytest.raises(AssertionError, match=failure):
                check()
    for check, _ in checks:
        check()


def test_n_squared_bound_survives_c5_validation():
    # Expected survivor: at a quarter of the stream length (M = 65 for 257)
    # the failure rate is 0.042, still far inside c5's bar delta + 2se =
    # 0.296. Only c5's pinned M_min catches the defect; an exact law of the
    # units' counts of ones would give the Monte-Carlo half a bar that sees it.
    assert acceptance_tests.c5_validation().passed
    with pytest.MonkeyPatch.context() as patch:
        n_squared_bound(patch)
        validation = acceptance_tests.c5_validation()
    assert validation.M == 65 and validation.passed


def test_inverted_select_survives_the_scalar_oracle():
    # Expected survivor: the oracle's `mux_add` selects through the same
    # `_mux_select` as `forward_scnn`, so the comparison agrees with itself
    # under the mutation. The MUX golden pins and TestMuxSelect's one-shot
    # `integers` draw are what see it.
    cfg = ScnnConfig(64, StreamKey(7), AccumulationMode.MUX)
    with pytest.MonkeyPatch.context() as patch:
        inverted_select(patch)
        golden_tests.forward_matches_scalar(golden_tests.readme_sine_net(), [0.25], cfg)


def test_wide_accumulator_survives_the_energy_checks():
    # Expected survivor: the counted `apc_sum` and the closed form
    # `layer_energy` read one `accumulator_width`, so every count the energy
    # row compares agrees with itself under the mutation. A pinned count
    # (TestClosedForm's APC neuron, the energy golden pin) is what sees it.
    with pytest.MonkeyPatch.context() as patch:
        wide_accumulator(patch)
        counters_match_closed_form()
        acceptance_tests.TestAcceptance().test_c8_energy_model()
        counted_on_both_sides()
        with pytest.MonkeyPatch.context() as recorder:
            scnn_tests.TestForwardScnnGrid().test_one_forward_call_and_one_layer_of_gates_per_point(recorder)
        with pytest.raises(AssertionError, match="apc_bit_adds"):
            energy_tests.TestClosedForm().test_apc_neuron()
