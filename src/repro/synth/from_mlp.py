"""Pruned MLP -> LUT network -> AIG (Team 3's neuron-to-LUT step).

Each neuron of a connection-pruned MLP has a small surviving fanin
set; enumerating all fanin assignments and thresholding the activation
at 0.5 turns the neuron into a truth table (the paper's Fig. 15),
which is realized as a LUT over the literals of its fanin neurons.

Exactness contract: the truth table is the one the per-pattern scalar
evaluation ``_act(activation, float(weights @ bits + bias)) >= 0.5``
gives, bit for bit.  All ``2**k`` patterns are evaluated at once (one
pattern matrix times the weights, one activation call), and a BLAS or
SIMD kernel may round that differently from the scalar expression.
The two differ by far less than the guard band
``1e-9 * (1 + |bias| + sum|weights|)`` around the 0.5 threshold, so
every pattern whose batched activation lies inside the band is
re-evaluated with the scalar expression, and every pattern outside it
is already decided the same way by both.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG
from repro.aig.build import lut
from repro.ml.mlp import MLP, _act

MAX_FANIN_FOR_SYNTH = 16


def _neuron_table(weights: np.ndarray, bias: float, activation: str) -> int:
    """Truth table of one neuron over its fanin bits (threshold 0.5)."""
    k = weights.shape[0]
    if k > MAX_FANIN_FOR_SYNTH:
        raise ValueError(
            f"neuron fanin {k} too large to enumerate; prune the network "
            f"to <= {MAX_FANIN_FOR_SYNTH} first"
        )
    # Row p holds the bits of pattern p, input 0 first.
    patterns = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    act = _act(activation, patterns.astype(float) @ weights + bias)
    fires = act >= 0.5
    guard = 1e-9 * (1.0 + abs(bias) + float(np.abs(weights).sum()))
    for pattern in np.flatnonzero(np.abs(act - 0.5) <= guard).tolist():
        bits = np.array([(pattern >> i) & 1 for i in range(k)], dtype=float)
        z = float(weights @ bits + bias)
        fires[pattern] = _act(activation, np.array(z)) >= 0.5
    return int.from_bytes(
        np.packbits(fires, bitorder="little").tobytes(), "little"
    )


def mlp_to_aig(model: MLP) -> AIG:
    """Compile a fitted (and pruned) MLP into an AIG."""
    if not model.layers or model.n_inputs is None:
        raise RuntimeError("MLP is not fitted")
    aig = AIG(model.n_inputs)
    prev_lits: list[int] = aig.input_lits()
    for layer in model.layers:
        masked = layer.W * layer.mask
        new_lits: list[int] = []
        for j in range(masked.shape[1]):
            alive = np.nonzero(layer.mask[:, j])[0]
            table = _neuron_table(
                masked[alive, j], float(layer.b[j]), layer.activation
            )
            leaves = [prev_lits[i] for i in alive]
            if not leaves:
                # Dead neuron: constant from the bias alone.
                value = _act(layer.activation, np.array(float(layer.b[j])))
                new_lits.append(1 if value >= 0.5 else 0)
                continue
            new_lits.append(lut(aig, table, leaves))
        prev_lits = new_lits
    aig.set_output(prev_lits[0])
    return aig
