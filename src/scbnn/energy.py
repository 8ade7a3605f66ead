"""Gate-operation energy model: exact closed-form counters matching the
instrumented simulator, plus asymptotic labels.

Model (per hidden unit, n inputs of M bits, bit budget m = n*M):
  - every product bit passes one XNOR gate: n*M ops (the constant bias
    stream needs no multiplier);
  - MUX accumulation over the n+1 terms uses n binary select cells per
    clock: n*M select ops;
  - APC accumulation adds each product bit into a counter of width
    ceil(log2(n*M + 2)): n*M*width bit-adds (the constant bias is folded
    into the readout for free).

Every class depends on (n, M) only through m = n*M, which is what makes a
BNN layer with m = n*M binary inputs cost exactly the same gate ops as the
equivalent SCNN layer. Units are abstract gate-ops; no joules are claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .scgates import AccumulationMode, GateCounts, accumulator_width


@dataclass(kw_only=True)
class EnergyReport(GateCounts):
    """Closed-form gate-op counts of one neuron or layer, with the
    parameterization they were computed for."""

    n: int
    M: int
    N: int
    mode: AccumulationMode
    asymptotic_label: str

    classes = GateCounts.as_dict

    def matches(self, counts: GateCounts) -> bool:
        """Exact classwise agreement with instrumented simulator tallies."""
        return self.classes() == counts.as_dict()

    def to_dict(self) -> dict:
        return {
            **self.classes(),
            "total": self.total,
            "n": self.n,
            "M": self.M,
            "N": self.N,
            "mode": self.mode.value,
            "asymptotic_label": self.asymptotic_label,
        }


def neuron_energy(n: int, M: int, mode: AccumulationMode) -> EnergyReport:
    """Gate ops for one hidden unit."""
    if n < 1 or M < 1:
        raise ValueError(f"need n >= 1 and M >= 1, got n={n}, M={M}")
    return _report(n, M, 1, mode, per_layer=False)


def layer_energy(n: int, M: int, N: int, mode: AccumulationMode) -> EnergyReport:
    """Gate ops for a hidden layer of N units; classwise N x neuron_energy."""
    if n < 1 or M < 1 or N < 1:
        raise ValueError(f"need n, M, N >= 1, got n={n}, M={M}, N={N}")
    return _report(n, M, N, mode, per_layer=True)


def bnn_layer_energy(m: int, N: int, mode: AccumulationMode) -> EnergyReport:
    """Gate ops for a BNN layer with m binary inputs.

    Identical classwise to layer_energy(n, M, N, mode) for any split with
    n*M = m; reported against the BNN parameterization (M = 1, n = m).
    """
    if m < 1:
        raise ValueError(f"bit budget m must be >= 1, got {m}")
    if N < 1:
        raise ValueError(f"layer width N must be >= 1, got {N}")
    label = "O(m·N)" if mode is AccumulationMode.MUX else "O(m·log(m)·N)"
    return replace(_report(m, 1, N, mode, per_layer=True), asymptotic_label=label)


def _report(n: int, M: int, N: int, mode: AccumulationMode, per_layer: bool) -> EnergyReport:
    m = n * M
    xnor = m * N
    mux_sel = m * N if mode is AccumulationMode.MUX else 0
    apc = m * accumulator_width(m) * N if mode is AccumulationMode.APC else 0
    if mode is AccumulationMode.MUX:
        label = "O(n·M·N)" if per_layer else "O(n·M)"
    else:
        label = "O(n·M·log(n·M)·N)" if per_layer else "O(n·M·log(n·M))"
    return EnergyReport(
        xnor_ops=xnor,
        mux_select_ops=mux_sel,
        apc_bit_adds=apc,
        n=n,
        M=M,
        N=N,
        mode=mode,
        asymptotic_label=label,
    )
