"""The compiled simulation engine: one program plus its slot arena.

See :mod:`repro.sim` for the compile/evaluate lifecycle.
:class:`~repro.sim.program.SimProgram` is the levelized program
(gather vectors, complement runs, output spec): immutable, picklable
and independent of the source :class:`AIG`.  :class:`CompiledAIG`
pairs one program with a preallocated value arena that every run
reuses, and keeps the historical ``run*`` API bit for bit.  The
AIG-side cache (:meth:`repro.aig.aig.AIG.compiled`) keeps one engine
per ``(structural version, outputs)``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.program import ALL_ONES, SimProgram
from repro.utils.bitops import pack_bits, unpack_bits


def _run_levels(
    program: SimProgram,
    values: np.ndarray,
    scratch: np.ndarray,
    packed_inputs: np.ndarray,
) -> np.ndarray:
    """Evaluate ``program`` level by level into the slot arena.

    Every slot row is written (const row, input rows, then node
    ranges level by level), so the arena needs no zero-fill.  Each
    level is a handful of in-place whole-array ops: a fused
    ``np.take`` of both fanin row sets, scalar XORs over the
    contiguous complement runs set up by the compiler, and an AND
    written straight into the level's contiguous slot range.
    """
    values[0] = 0
    values[1 : 1 + program.n_inputs] = packed_inputs
    for lo, hi, idx01, c0_start, c1_lo, c1_hi in program.level_ops:
        k = hi - lo
        buf = scratch[: 2 * k]
        np.take(values, idx01, axis=0, out=buf)
        if c0_start < k:
            part = buf[c0_start:k]
            np.bitwise_xor(part, ALL_ONES, out=part)
        if c1_lo < c1_hi:
            part = buf[k + c1_lo : k + c1_hi]
            np.bitwise_xor(part, ALL_ONES, out=part)
        np.bitwise_and(buf[:k], buf[k:], out=values[lo:hi])
    return values


class CompiledAIG:
    """A :class:`SimProgram` plus the value arena it runs in.

    ``source`` is an :class:`~repro.aig.aig.AIG` (compiled here) or an
    already-built :class:`SimProgram` (shared, no recompile).  The
    slot arena and gather scratch are allocated on the first run and
    rebuilt only when the word count changes, so a warm run allocates
    nothing but its result.  One engine serves one caller at a time,
    which is the lifecycle of :meth:`repro.aig.aig.AIG.compiled` and
    the serving LRU.
    """

    def __init__(self, source: SimProgram | object):
        if isinstance(source, SimProgram):
            self.program = source
        else:
            self.program = SimProgram(source)
        self._values: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # -- program delegation (the historical public attributes) ---------
    @property
    def n_inputs(self) -> int:
        return self.program.n_inputs

    @property
    def num_vars(self) -> int:
        return self.program.num_vars

    @property
    def num_outputs(self) -> int:
        return self.program.num_outputs

    @property
    def var_levels(self) -> np.ndarray:
        return self.program.var_levels

    @property
    def depth(self) -> int:
        return self.program.depth

    @property
    def level_widths(self) -> list[int]:
        """Number of AND nodes on each logic level ``>= 1``."""
        return self.program.level_widths

    @property
    def level_ops(self):
        return self.program.level_ops

    @property
    def out_var(self) -> np.ndarray:
        return self.program.out_var

    @property
    def out_mask(self) -> np.ndarray:
        return self.program.out_mask

    # ------------------------------------------------------------------
    # Packed evaluation
    # ------------------------------------------------------------------
    def _run_slots(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate into the slot layout (borrowed buffer — copy out)."""
        p = self.program
        packed = p.validate_packed(packed_inputs)
        n_words = packed.shape[1]
        values, scratch = self._values, self._scratch
        if values is None or scratch is None or values.shape[1] != n_words:
            values = np.empty((p.num_vars, n_words), dtype=np.uint64)
            scratch = np.empty((2 * p.max_width, n_words), dtype=np.uint64)
            self._values, self._scratch = values, scratch
        return _run_levels(p, values, scratch, packed)

    def run_packed_all(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Values of *every* variable, shape ``(num_vars, n_words)``.

        Bit-exact drop-in for the seed ``AIG.simulate_packed_all``.
        """
        values = self._run_slots(packed_inputs)
        # Permute back from slot layout to variable order (also copies
        # out of the reused arena).
        return values.take(self.program.slot, axis=0)

    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Packed output values, shape ``(num_outputs, n_words)``."""
        values = self._run_slots(packed_inputs)
        if not self.num_outputs:
            return np.zeros((0, values.shape[1]), dtype=np.uint64)
        out = values.take(self.program.out_slot, axis=0)
        np.bitwise_xor(out, self.program.out_mask[:, None], out=out)
        return out

    # ------------------------------------------------------------------
    # Sample-matrix convenience
    # ------------------------------------------------------------------
    def run(self, samples: np.ndarray) -> np.ndarray:
        """Evaluate a ``(n_samples, n_inputs)`` 0/1 matrix.

        Returns ``(n_samples, n_outputs)`` uint8, like ``AIG.simulate``.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim == 1:
            samples = samples[None, :]
        if samples.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input columns, "
                f"got {samples.shape[1]}"
            )
        out = self.run_packed(pack_bits(samples))
        return unpack_bits(out, samples.shape[0])


def compile_aig(aig) -> CompiledAIG:
    """Compile ``aig`` into its levelized form."""
    return CompiledAIG(aig)


def reference_simulate_packed_all(aig, packed_inputs: np.ndarray) -> np.ndarray:
    """The seed per-node simulation loop, kept verbatim as the oracle.

    Property tests and ``benchmarks/bench_sim_engine.py`` compare the
    levelized engine against this implementation bit for bit.
    """
    packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
    if packed_inputs.shape[0] != aig.n_inputs:
        raise ValueError(
            f"expected {aig.n_inputs} input rows, got {packed_inputs.shape[0]}"
        )
    n_words = packed_inputs.shape[1] if packed_inputs.ndim == 2 else 1
    values = np.zeros((aig.num_vars, n_words), dtype=np.uint64)
    values[1 : 1 + aig.n_inputs] = packed_inputs
    f0 = aig._fanin0
    f1 = aig._fanin1
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        a, b = f0[j], f1[j]
        va = values[a >> 1]
        if a & 1:
            va = va ^ ALL_ONES
        vb = values[b >> 1]
        if b & 1:
            vb = vb ^ ALL_ONES
        values[base + j] = va & vb
    return values
