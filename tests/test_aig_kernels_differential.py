"""Differential tests: the AIG kernels against frozen oracles.

``tests/reference_aig_kernels.py`` keeps the full-width ISOP, the
tuple-and-set cut enumeration, the per-pattern neuron truth table, the
numpy-mask cone extraction and the ``compress`` round loop without
the rejected-pass memo.  The word-level, bitmask and vectorized
kernels must reproduce them exactly.  ``tests/reference_seed_opt.py``
keeps the seed's rollback-capable builder, tested here too, and its
cube-by-cube SOP builder, which the program-based one must replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.aig.opt.passes as passes
from repro.aig.aig import AIG, CONST1, lit_not, lit_var
from repro.aig.build import sop_over_leaves
from repro.aig.cuts import enumerate_cuts, enumerate_cuts_with_truths
from repro.aig.isop import cover_table, full_mask, isop
from repro.aig.opt.traverse import ffc_cone
from repro.synth.from_mlp import _neuron_table
from tests.conftest import random_aig
from tests.reference_aig_kernels import (
    reference_compress_rounds,
    reference_enumerate_cuts,
    reference_enumerate_cuts_with_truths,
    reference_extract_cone,
    reference_ffc_cone,
    reference_isop,
    reference_neuron_table,
    reference_reachable_vars,
)
from tests.reference_seed_opt import RollbackAIG
from tests.reference_seed_opt import sop_over_leaves as seed_sop_over_leaves

ACTIVATIONS = ("relu", "sigmoid", "tanh", "sine", "identity")


def _structure(aig: AIG):
    return aig.n_inputs, aig._fanin0, aig._fanin1, aig.outputs


@st.composite
def strashed_aigs(draw, max_inputs=8, max_nodes=80):
    n_inputs = draw(st.integers(1, max_inputs))
    n_nodes = draw(st.integers(0, max_nodes))
    seed = draw(st.integers(0, 2**32 - 1))
    n_outputs = draw(st.integers(1, 3))
    return random_aig(n_inputs, n_nodes, seed=seed, n_outputs=n_outputs)


# ---------------------------------------------------------------------
# ISOP
# ---------------------------------------------------------------------


@st.composite
def intervals(draw):
    k = draw(st.integers(0, 10))
    fm = full_mask(k)
    lower = draw(st.integers(0, fm))
    if draw(st.booleans()):
        # Sparse onsets exercise the empty-lower short cuts.
        lower &= draw(st.integers(0, fm))
    dont_care = draw(st.sampled_from([0, fm])) if draw(st.booleans()) else (
        draw(st.integers(0, fm))
    )
    return lower, lower | dont_care, k


@given(intervals())
@settings(max_examples=300, deadline=None)
def test_isop_matches_full_width_oracle(interval):
    lower, upper, k = interval
    cover, table = isop(lower, upper, k)
    assert (cover, table) == reference_isop(lower, upper, k)
    assert lower & ~table == 0 and table & ~upper == 0
    assert cover_table(cover, k) == table


def test_isop_rejects_infeasible_interval():
    with pytest.raises(ValueError, match="infeasible"):
        isop(0b1010, 0b0010, 2)


@given(intervals(), st.lists(st.integers(0, 31), max_size=12))
@settings(max_examples=100, deadline=None)
def test_sop_over_leaves_matches_seed_builder(interval, leaf_seed):
    # The recorded program must make the same add_and calls as the
    # seed's cube-by-cube builder, including folds and strash hits.
    lower, _, k = interval
    cover, _ = isop(lower, lower, k)
    leaves = [
        (leaf_seed[i] if i < len(leaf_seed) else 2 * (i + 1)) % (2 * (k + 3))
        for i in range(k)
    ]
    built, replayed = AIG(k + 2), AIG(k + 2)
    for aig in (built, replayed):
        aig.add_and(2, 4)
    lit = seed_sop_over_leaves(built, cover, leaves)
    assert sop_over_leaves(replayed, cover, leaves) == lit
    assert _structure(replayed) == _structure(built)


# ---------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------


@given(strashed_aigs(), st.integers(2, 6), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_cuts_match_tuple_oracle(aig, k, max_cuts):
    assert enumerate_cuts(aig, k, max_cuts) == reference_enumerate_cuts(
        aig, k, max_cuts
    )
    assert enumerate_cuts_with_truths(
        aig, k, max_cuts
    ) == reference_enumerate_cuts_with_truths(aig, k, max_cuts)


@given(strashed_aigs(max_nodes=120), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_ffc_cone_is_the_three_walks(aig, max_leaves):
    fanout = aig.fanout_counts()
    flat = fanout.tolist()
    for var in range(aig.n_inputs + 1, aig.num_vars):
        assert ffc_cone(aig, var, flat, max_leaves) == reference_ffc_cone(
            aig, var, fanout, max_leaves
        )


# ---------------------------------------------------------------------
# Neuron tables
# ---------------------------------------------------------------------


@given(
    st.sampled_from(ACTIVATIONS),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
)
@settings(max_examples=120, deadline=None)
def test_neuron_table_matches_per_pattern_oracle(activation, k, seed, scale):
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, scale, size=k)
    bias = float(rng.normal(0.0, scale))
    assert _neuron_table(weights, bias, activation) == reference_neuron_table(
        weights, bias, activation
    )


# Bias values that put the activation exactly (or within an ulp) on
# 0.5 when the weights cancel: the guard band must send these patterns
# through the scalar expression.
THRESHOLD_BIAS = {
    "relu": 0.5,
    "sigmoid": 0.0,
    "tanh": float(np.arctanh(0.5)),
    "sine": float(np.arcsin(0.5)),
    "identity": 0.5,
}


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_neuron_table_exact_on_the_threshold(activation):
    bias = THRESHOLD_BIAS[activation]
    cases = [
        np.array([1.0, -1.0]),
        np.array([0.1, 0.2, -0.3]),
        np.array([0.7, -0.35, -0.35, 1e-17]),
        np.array([2.5, -1.25, -1.25, 3.0, -3.0, 0.0]),
    ]
    for weights in cases:
        for b in (bias, np.nextafter(bias, 1.0), np.nextafter(bias, -1.0)):
            assert _neuron_table(
                weights, float(b), activation
            ) == reference_neuron_table(weights, float(b), activation)


# ---------------------------------------------------------------------
# Cone extraction
# ---------------------------------------------------------------------


@given(strashed_aigs(), st.data())
@settings(max_examples=80, deadline=None)
def test_cone_extraction_matches_numpy_oracle(aig, data):
    lits = data.draw(
        st.lists(st.integers(0, 2 * aig.num_vars - 1), max_size=4)
    )
    for sel in (None, lits):
        assert np.array_equal(
            aig.reachable_vars(sel), reference_reachable_vars(aig, sel)
        )
        assert _structure(aig.extract_cone(sel)) == _structure(
            reference_extract_cone(aig, sel)
        )
    assert aig.count_used_ands() == int(
        reference_reachable_vars(aig)[aig.n_inputs + 1:].sum()
    )


def _assert_plain_ints(aig: AIG):
    for lit in aig._fanin0 + aig._fanin1 + aig.outputs:
        assert type(lit) is int, type(lit)
    for key, lit in aig._strash.items():
        assert type(key[0]) is int and type(key[1]) is int, key
        assert type(lit) is int, type(lit)


def test_extracted_and_passed_graphs_hold_plain_ints():
    aig = AIG(3)
    x = aig.add_and(aig.input_lit(0), aig.input_lit(1))
    aig.set_output(aig.add_and(x, lit_not(aig.input_lit(2))))
    _assert_plain_ints(aig.extract_cone())
    big = random_aig(6, 60, seed=3, n_outputs=2)
    for graph in (big, big.extract_cone()):
        for pass_fn in (passes.balance, passes.rewrite, passes.refactor,
                        passes.fraig_lite, passes.compress):
            _assert_plain_ints(pass_fn(graph))


# ---------------------------------------------------------------------
# compress: the rejected-pass memo
# ---------------------------------------------------------------------


def _counting(calls):
    wrapped = []
    for pass_fn in (passes.balance, passes.rewrite, passes.refactor,
                    passes.fraig_lite):
        def counted(aig, _fn=pass_fn):
            calls.append(_fn.__name__)
            return _fn(aig)

        wrapped.append(counted)
    return wrapped


def test_compress_skips_rejected_passes_and_matches_plain_loop(monkeypatch):
    memo_calls: list[str] = []
    plain_calls: list[str] = []
    plain_passes = _counting(plain_calls)
    for name, fn in zip(("balance", "rewrite", "refactor", "fraig_lite"),
                        _counting(memo_calls), strict=True):
        monkeypatch.setattr(passes, name, fn)
    for seed in range(6):
        aig = random_aig(7, 90, seed=seed, n_outputs=2)
        for rounds in (1, 3, 5):
            got = passes.compress(aig, max_rounds=rounds)
            want = reference_compress_rounds(aig, rounds, plain_passes)
            assert _structure(got) == _structure(want)
    # Each memo call is a call the plain loop also makes, and some of
    # the plain loop's repeats on an unchanged graph were skipped.
    assert len(memo_calls) < len(plain_calls)
    assert set(memo_calls) <= set(plain_calls)


@given(strashed_aigs(max_nodes=60))
@settings(max_examples=25, deadline=None)
def test_compress_matches_plain_round_loop(aig):
    assert _structure(passes.compress(aig)) == _structure(
        reference_compress_rounds(aig)
    )


# ---------------------------------------------------------------------
# The seed baseline's rollback-capable builder
# ---------------------------------------------------------------------


class TestRollbackBuilder:
    def test_rollback_removes_nodes_and_strash(self):
        aig = RollbackAIG(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        aig.add_and(a, b)
        state = aig.checkpoint()
        aig.add_and(a, c)
        aig.add_and(b, c)
        aig.set_output(CONST1)
        aig.rollback(state)
        assert aig.num_ands == 1
        assert aig.num_outputs == 0
        # Strash entries for rolled-back nodes must be gone: re-adding
        # must create a fresh (valid) node, not a dangling literal.
        lit = aig.add_and(a, c)
        assert lit_var(lit) < aig.num_vars

    def test_rollback_keeps_prior_strash(self):
        aig = RollbackAIG(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        x = aig.add_and(a, b)
        state = aig.checkpoint()
        aig.add_and(a, lit_not(b))
        aig.rollback(state)
        assert aig.add_and(a, b) == x
