"""Unit tests for circuit builders (arithmetic ground truth)."""

import numpy as np
import pytest

from repro.aig.aig import AIG
from repro.aig.build import (
    comparator_greater,
    comparator_less,
    equality,
    from_truth_table,
    lut,
    maj5_tree,
    majority_n,
    multiplier,
    mux_tree_from_table,
    ones_counter,
    parity,
    ripple_adder,
    ripple_subtractor,
    symmetric_function,
)
from repro.utils.bitops import rows_to_ints


def _word_values(X, k):
    return rows_to_ints(X[:, :k]), rows_to_ints(X[:, k:])


@pytest.fixture
def samples(rng):
    def make(n_inputs, n=200):
        return rng.integers(0, 2, size=(n, n_inputs)).astype(np.uint8)

    return make


class TestAdders:
    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_ripple_adder(self, samples, k):
        aig = AIG(2 * k)
        lits = aig.input_lits()
        for bit in ripple_adder(aig, lits[:k], lits[k:]):
            aig.set_output(bit)
        X = samples(2 * k)
        a, b = _word_values(X, k)
        out = aig.simulate(X)
        for row, av, bv in zip(out, a, b, strict=True):
            got = sum(int(v) << i for i, v in enumerate(row))
            assert got == av + bv

    def test_subtractor_borrow_is_a_less_than_b(self, samples):
        k = 6
        aig = AIG(2 * k)
        lits = aig.input_lits()
        _, borrow = ripple_subtractor(aig, lits[:k], lits[k:])
        aig.set_output(borrow)
        X = samples(2 * k)
        a, b = _word_values(X, k)
        out = aig.simulate(X)[:, 0]
        for got, av, bv in zip(out, a, b, strict=True):
            assert got == (1 if av < bv else 0)


class TestComparators:
    def test_greater_and_less(self, samples):
        k = 7
        aig = AIG(2 * k)
        lits = aig.input_lits()
        aig.set_output(comparator_greater(aig, lits[:k], lits[k:]))
        aig.set_output(comparator_less(aig, lits[:k], lits[k:]))
        X = samples(2 * k)
        a, b = _word_values(X, k)
        out = aig.simulate(X)
        for row, av, bv in zip(out, a, b, strict=True):
            assert row[0] == (1 if av > bv else 0)
            assert row[1] == (1 if av < bv else 0)

    def test_equality(self, samples):
        k = 4
        aig = AIG(2 * k)
        lits = aig.input_lits()
        aig.set_output(equality(aig, lits[:k], lits[k:]))
        X = samples(2 * k)
        # Force some equal pairs.
        X[:20, k:] = X[:20, :k]
        a, b = _word_values(X, k)
        out = aig.simulate(X)[:, 0]
        for got, av, bv in zip(out, a, b, strict=True):
            assert got == (1 if av == bv else 0)


class TestMultiplier:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_product_bits(self, samples, k):
        aig = AIG(2 * k)
        lits = aig.input_lits()
        for bit in multiplier(aig, lits[:k], lits[k:]):
            aig.set_output(bit)
        X = samples(2 * k, n=100)
        a, b = _word_values(X, k)
        out = aig.simulate(X)
        for row, av, bv in zip(out, a, b, strict=True):
            got = sum(int(v) << i for i, v in enumerate(row))
            assert got == av * bv


class TestCountersAndSymmetric:
    def test_ones_counter(self, samples):
        n = 11
        aig = AIG(n)
        for bit in ones_counter(aig, aig.input_lits()):
            aig.set_output(bit)
        X = samples(n)
        out = aig.simulate(X)
        for row, x in zip(out, X, strict=True):
            got = sum(int(v) << i for i, v in enumerate(row))
            assert got == int(x.sum())

    def test_parity(self, samples):
        aig = AIG(9)
        aig.set_output(parity(aig, aig.input_lits()))
        X = samples(9)
        out = aig.simulate(X)[:, 0]
        assert np.array_equal(out, X.sum(axis=1) % 2)

    @pytest.mark.parametrize(
        "signature", ["0110", "1001", "00111", "010101010"]
    )
    def test_symmetric_function(self, samples, signature):
        n = len(signature) - 1
        aig = AIG(n)
        aig.set_output(
            symmetric_function(aig, aig.input_lits(), signature)
        )
        X = samples(n)
        out = aig.simulate(X)[:, 0]
        for got, x in zip(out, X, strict=True):
            assert got == (1 if signature[int(x.sum())] == "1" else 0)

    def test_symmetric_rejects_bad_signature(self):
        aig = AIG(4)
        with pytest.raises(ValueError):
            symmetric_function(aig, aig.input_lits(), "01")

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_majority_n(self, samples, n):
        aig = AIG(n)
        aig.set_output(majority_n(aig, aig.input_lits()))
        X = samples(n)
        out = aig.simulate(X)[:, 0]
        want = (X.sum(axis=1) >= (n // 2 + 1)).astype(np.uint8)
        assert np.array_equal(out, want)

    def test_majority_rejects_even(self):
        aig = AIG(4)
        with pytest.raises(ValueError):
            majority_n(aig, aig.input_lits())

    def test_maj5_tree_is_exact_for_five(self, samples):
        aig = AIG(5)
        aig.set_output(maj5_tree(aig, aig.input_lits()))
        X = samples(5)
        want = (X.sum(axis=1) >= 3).astype(np.uint8)
        assert np.array_equal(aig.simulate(X)[:, 0], want)

    def test_maj5_tree_monotone_approximation_for_25(self, samples):
        aig = AIG(25)
        aig.set_output(maj5_tree(aig, aig.input_lits()))
        X = samples(25, n=500)
        got = aig.simulate(X)[:, 0]
        # The tree is an approximation but must agree on extremes and
        # strongly correlate with the true majority overall.
        counts = X.sum(axis=1)
        want = (counts >= 13).astype(np.uint8)
        assert np.array_equal(got[counts >= 20], want[counts >= 20])
        assert np.array_equal(got[counts <= 5], want[counts <= 5])
        assert (got == want).mean() > 0.8


class TestLUTs:
    def test_lut_matches_table(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 5))
            table = int(rng.integers(0, 1 << (1 << k)))
            aig = AIG(k)
            aig.set_output(lut(aig, table, aig.input_lits()))
            assert aig.truth_tables()[0] == table

    def test_lut_builds_winning_polarity_exactly_once(self, rng):
        # Satellite regression: the seed built the positive cover,
        # rolled it back to price the negative one, and rebuilt the
        # winner — so winning polarities were constructed twice and
        # every call left checkpoint/rollback churn behind.  Now every
        # mutation of the graph must be a kept node: the structural
        # version advances exactly once per appended AND node (plus
        # one for set_output), and no dead garbage is left over.
        # The seed implementation (build-rollback-rebuild) is pinned
        # once, in the reference baseline module.
        from tests.reference_seed_opt import RollbackAIG, _seed_lut as seed_lut

        for trial in range(40):
            k = int(rng.integers(1, 5))
            table = int(rng.integers(0, 1 << (1 << k)))
            aig = AIG(k)
            version_before = aig._version
            lit = lut(aig, table, aig.input_lits())
            # Returned literal and node count unchanged vs the seed.
            oracle = RollbackAIG(k)
            assert lit == seed_lut(oracle, table, oracle.input_lits())
            assert aig.num_ands == oracle.num_ands
            # Each polarity built at most once: no rollbacks, no
            # rebuilds — one version bump per kept node, zero churn.
            assert aig._version - version_before == aig.num_ands
            aig.set_output(lit)
            assert aig.truth_tables()[0] == table & ((1 << (1 << k)) - 1)
            # Nothing dead left behind by the losing polarity.
            assert aig.count_used_ands() == aig.num_ands

    def test_mux_tree_equals_sop(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 7))
            table = int(rng.integers(0, 2**32)) & ((1 << (1 << k)) - 1)
            sop = from_truth_table(table, k, "sop")
            mux = from_truth_table(table, k, "mux")
            assert sop.truth_tables() == mux.truth_tables()

    def test_from_truth_table_rejects_bad_method(self):
        with pytest.raises(ValueError):
            from_truth_table(1, 2, "nope")

    def test_mux_tree_constant_tables(self):
        aig = AIG(3)
        assert mux_tree_from_table(aig, 0, aig.input_lits()) == 0
        full = (1 << 8) - 1
        assert mux_tree_from_table(aig, full, aig.input_lits()) == 1
