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

`layer_energy` is this closed form for a layer of N units: each class N
times the unit's. Every class depends on (n, M) only through m = n*M, so
`bnn_layer_energy`, a BNN layer with m binary inputs, is `layer_energy` at
n = m, M = 1 under its own label: exactly the gate ops of the equivalent
SCNN layer. Units are abstract gate-ops; no joules are claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bitstream import _is_length
from .scgates import AccumulationMode, GateCounts, accumulator_width


@dataclass(kw_only=True)
class EnergyReport(GateCounts):
    """Closed-form gate-op counts of one layer, with the
    parameterization they were computed for."""

    n: int
    M: int
    N: int
    mode: AccumulationMode
    asymptotic_label: str

    classes = GateCounts.as_dict

    def to_dict(self) -> dict:
        return {**self.classes(), "total": self.total, **vars(self), "mode": self.mode.value}


def layer_energy(n: int, M: int, N: int, mode: AccumulationMode) -> EnergyReport:
    """Gate ops for a hidden layer of N units with n inputs of M bits each."""
    if not (_is_length(n) and _is_length(M) and _is_length(N)):
        raise ValueError(f"need integers n, M, N >= 1, got n={n!r}, M={M!r}, N={N!r}")
    m = n * M
    apc = mode is AccumulationMode.APC
    return EnergyReport(
        xnor_ops=m * N,
        mux_select_ops=0 if apc else m * N,
        apc_bit_adds=m * accumulator_width(m) * N if apc else 0,
        n=n,
        M=M,
        N=N,
        mode=mode,
        asymptotic_label="O(n·M·log(n·M)·N)" if apc else "O(n·M·N)",
    )


def bnn_layer_energy(m: int, N: int, mode: AccumulationMode) -> EnergyReport:
    """Gate ops for a BNN layer with m binary inputs.

    Identical classwise to layer_energy(n, M, N, mode) for any split with
    n*M = m; reported against the BNN parameterization (M = 1, n = m).
    """
    if not _is_length(m):
        raise ValueError(f"bit budget m must be an integer >= 1, got {m!r}")
    if not _is_length(N):
        raise ValueError(f"layer width N must be an integer >= 1, got {N!r}")
    label = "O(m·N)" if mode is AccumulationMode.MUX else "O(m·log(m)·N)"
    return replace(layer_energy(m, 1, N, mode), asymptotic_label=label)
