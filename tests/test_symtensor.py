import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from closure14.errors import ArityError, ParityError
from closure14.symtensor import (
    SymMatrix,
    SymTensor,
    contract,
    delta_contract,
    deviator,
    sym_delta,
    sym_delta_bruteforce,
)


def rand_vec(rng):
    return rng.standard_normal(3)


def rand_mat(rng):
    return SymMatrix(rng.standard_normal((3, 3)))


class TestSymTensor:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            SymTensor(2, {(0, 0): 1.0})

    def test_multiset_indexing(self):
        t = SymTensor.from_function(2, lambda k: k[0] + 10 * k[1])
        assert t[(1, 0)] == t[(0, 1)]

    def test_rank_zero(self):
        t = SymTensor(0, {(): 7.0})
        assert t[()] == 7.0


class TestSymMatrix:
    def test_symmetrizes_input(self):
        m = SymMatrix([[0, 1, 0], [3, 0, 0], [0, 0, 0]])
        assert m[0, 1] == m[1, 0] == 2.0

    def test_trace_and_identity(self):
        assert SymMatrix.identity().trace() == 3.0

    def test_deviator_traceless(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = deviator(rand_mat(rng))
            assert abs(d.trace()) <= 1e-15 * max(1.0, d.norm())


class TestSymDelta:
    @pytest.mark.parametrize("rank", [0, 2, 4, 6])
    def test_matches_permutation_average(self, rank):
        fast = sym_delta(rank)
        brute = sym_delta_bruteforce(rank)
        assert fast.values == brute.values

    def test_exact_rational_entries(self):
        t = sym_delta(4)
        assert t[(0, 0, 1, 1)] == Fraction(1, 3)
        assert t[(0, 0, 0, 0)] == Fraction(1)
        assert t[(0, 0, 0, 1)] == 0

    def test_odd_rank_rejected(self):
        with pytest.raises(ParityError):
            sym_delta(3)

    def test_pair_trace_ratio(self):
        # the double-trace of the rank n+2 tensor is (n+3)/(n+1) times the
        # rank-n tensor; this ratio is what the coefficient recursion uses
        for n in (0, 2, 4):
            big = sym_delta(n + 2)
            small = sym_delta(n)
            for key in small.values:
                traced = sum(big[key + (a, a)] for a in range(3))
                assert traced == Fraction(n + 3, n + 1) * small[key]


class TestContract:
    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(1)
        for nv, nm in [
            (2, 0), (0, 2), (2, 1), (4, 0), (0, 3), (2, 2),
            (4, 2), (2, 4), (6, 2), (0, 6), (4, 4),
        ]:
            vecs = [rand_vec(rng) for _ in range(nv)]
            mats = [rand_mat(rng) for _ in range(nm)]
            rank = nv + 2 * nm
            slow = contract(sym_delta(rank), vecs + mats)
            fast = delta_contract(vecs, mats)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_free_index_agrees_with_bruteforce(self):
        rng = np.random.default_rng(2)
        for nv, nm in [(1, 1), (3, 1), (1, 2), (5, 1), (3, 2)]:
            vecs = [rand_vec(rng) for _ in range(nv)]
            mats = [rand_mat(rng) for _ in range(nm)]
            rank = nv + 2 * nm + 1
            slow = contract(sym_delta(rank), vecs + mats, free_indices=1)
            fast = delta_contract(vecs, mats, free=True)
            np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_two_vectors_is_dot_product(self):
        rng = np.random.default_rng(3)
        a, b = rand_vec(rng), rand_vec(rng)
        assert delta_contract([a, b], []) == pytest.approx(float(a @ b))

    def test_single_vector_free_index(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(delta_contract([v], [], free=True), v)

    def test_empty_is_one(self):
        assert delta_contract([], []) == 1.0

    def test_odd_rank_is_zero(self):
        assert delta_contract([np.ones(3)], [SymMatrix.identity()]) == 0.0

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityError):
            contract(sym_delta(4), [np.ones(3)])
        with pytest.raises(ArityError):
            contract(sym_delta(2), [np.ones(4)])

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 1000),
    )
    def test_multilinear_in_each_vector(self, c, seed):
        rng = np.random.default_rng(seed)
        a, b, extra = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        m = rand_mat(rng)
        lhs = delta_contract([a + c * b, extra], [m])
        rhs = delta_contract([a, extra], [m]) + c * delta_contract([b, extra], [m])
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_slot_order_irrelevant(self):
        rng = np.random.default_rng(4)
        vecs = [rand_vec(rng), rand_vec(rng)]
        mats = [rand_mat(rng), rand_mat(rng)]
        assert delta_contract(vecs, mats) == pytest.approx(
            delta_contract(vecs[::-1], mats[::-1]), rel=1e-12
        )
