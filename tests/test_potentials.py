import itertools
import math
import warnings
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from closure14.coeffs import (
    CoeffSeries,
    EquilibriumPoint,
    GeneratingFamily,
    k00,
    k_pq,
    make_family,
    tensor_series,
)
from closure14.errors import ClosureError, DomainError, TruncationError
from closure14.numdiff import central_diff, rel_residual_sym
from closure14 import potentials
from closure14.potentials import (
    LAB,
    BoostVelocity,
    MomentSet,
    MultiplierState,
    eval_h_hat,
    eval_phi_hat,
    hat_multipliers,
    lab_moments_from_rest,
    lab_potentials,
    moments_from_potentials,
    boost_jacobian,
    _field,
    _grids,
    _node_pass,
)
from closure14.symtensor import SymMatrix, delta_contract, deviator
from oracles import field_einsum

K00_EQ = 28.933881011162246  # h at the unit equilibrium state, exponential family

N, S = 6, 4

BLOCKS = ("m", "m_i", "m_ij", "m_ill", "m_iill", "f_k", "f_ki", "f_kij", "f_kill", "f_kiill")


@pytest.fixture(scope="module")
def fam():
    return make_family("exponential")


def hatted_state(seed, eps=1e-2):
    rng = np.random.default_rng(seed)
    base = np.eye(3) / 3.0 + eps * SymMatrix(rng.uniform(-1, 1, (3, 3))).as_array()
    return MultiplierState(
        frame="hatted",
        lam=rng.uniform(-0.5, 0.5),
        lam_i=eps * rng.uniform(-1, 1, 3),
        lam_ij=SymMatrix(base),
        lam_ill=eps * rng.uniform(-1, 1, 3),
        lam_iill=eps * rng.uniform(0, 0.5),
    )


class TestMultiplierState:
    def test_equilibrium_scalars(self):
        st = MultiplierState.equilibrium(0.2, 1.5, 0.01)
        assert st.lam_ll == pytest.approx(1.5)
        assert st.scalar_point() == EquilibriumPoint(0.2, 1.5, 0.01)

    def test_dict_round_trip(self):
        st = hatted_state(0)
        again = MultiplierState.from_dict(st.to_dict())
        assert again.lam == st.lam
        np.testing.assert_array_equal(again.lam_i, st.lam_i)
        assert again.lam_ij == st.lam_ij
        assert again.lam_iill == st.lam_iill

    def test_asymmetric_lam_ij_rejected(self):
        # it was averaged with its transpose, silently
        d = hatted_state(0).to_dict()
        d["lam_ij"] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="^lam_ij must be symmetric"):
            MultiplierState.from_dict(d)

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError):
            MultiplierState.equilibrium(0.0, 1.0, frame="comoving")

    def test_bad_velocity_rejected(self):
        with pytest.raises(ValueError):
            BoostVelocity([1.0, 2.0])
        with pytest.raises(ValueError):
            BoostVelocity([np.nan, 0.0, 0.0])


class TestPotentialEvaluation:
    def test_equilibrium_values(self, fam):
        st = MultiplierState.equilibrium(0.0, 1.0)
        assert eval_h_hat(fam, st, N, S) == pytest.approx(K00_EQ, rel=1e-13)
        np.testing.assert_allclose(eval_phi_hat(fam, st, N, S), 0.0, atol=1e-15)

    def test_linear_response_in_lam_i(self, fam):
        # to first order phi^k = k_{1,0} lam_k
        eps = 1e-6
        st = MultiplierState.equilibrium(0.0, 1.0)
        st = MultiplierState(
            frame="hatted",
            lam=st.lam,
            lam_i=np.array([eps, 0.0, 0.0]),
            lam_ij=st.lam_ij,
            lam_ill=st.lam_ill,
            lam_iill=0.0,
        )
        phi = eval_phi_hat(fam, st, N, S)
        k10 = k_pq(fam, 1, 0, EquilibriumPoint(0.0, 1.0, 0.0), S)
        assert phi[0] == pytest.approx(k10 * eps, rel=1e-9)
        np.testing.assert_allclose(phi[1:], 0.0, atol=1e-18)

    @pytest.mark.parametrize("free", [False, True])
    def test_matches_term_by_term_contraction(self, fam, free):
        # reference: each (p, q, r) term contracted on its own by delta_contract
        st = hatted_state(2)
        dev = deviator(st.lam_ij)
        want = np.zeros(3) if free else 0.0
        for p in range(N + 1):
            for q in range(N + 1 - p):
                if (p + q) % 2 != free:
                    continue
                for r in range((N - p - q) // 2 + 1):
                    coef = tensor_series(p, q, r, S)(fam, st.scalar_point())
                    geom = delta_contract([st.lam_i] * p + [st.lam_ill] * q, [dev] * r, free=free)
                    want = want + coef * geom / (factorial(p) * factorial(q) * factorial(r))
        got = (eval_phi_hat if free else eval_h_hat)(fam, st, N, S)
        assert rel_residual_sym(got, want) <= 1e-13

    def test_domain_guard(self, fam):
        st = MultiplierState.equilibrium(0.0, -1.0)
        with pytest.raises(DomainError):
            eval_h_hat(fam, st, N, S)

    def test_negative_quartic_rejected(self, fam):
        st = replace(hatted_state(0), lam_iill=-1e-3)
        for evaluate in (eval_h_hat, eval_phi_hat, moments_from_potentials):
            with pytest.raises(DomainError):
                evaluate(fam, st, N, S)

    def test_overflow_is_typed(self, fam):
        with pytest.raises(ClosureError):
            eval_h_hat(fam, MultiplierState.equilibrium(-1000.0, 1.0), N, S)


class TestCompiledGrid:
    """The compiled coefficient grids against the per-series route, bit for bit."""

    POINT = EquilibriumPoint(0.3, 1.2, 0.02)
    # each grid's coefficient shift, and the step rule that builds its series independently
    STEPS = {(0, 0, 0): None, (1, 0, 0): CoeffSeries.d_lam, (0, 1, 0): CoeffSeries.d_ll,
             (0, 0, 1): CoeffSeries.d_ppqq}
    SPECS = tuple(itertools.product((False, True), STEPS))

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_every_cell_matches_its_series(self, kind):
        # each grid alone and as one of the eight grids of a shared plan; the
        # derived grids against the step rules applied to each cell
        f, S_grid = make_family(kind), 6
        for N in range(9):
            shared = _grids(f, self.POINT, N, S_grid, self.SPECS)
            for g, (free, shift) in enumerate(self.SPECS):
                step = self.STEPS[shift]
                want = np.zeros((N + 1, N + 1, N // 2 + 1))
                for p in range(N + 1):
                    for q in range((p + free) % 2, N + 1 - p, 2):
                        for r in range((N - p - q) // 2 + 1):
                            series = tensor_series(p, q, r, S_grid)
                            if step is not None:
                                series = step(series)
                            rank1 = p + q + 2 * r + free + 1
                            want[p, q, r] = rank1 * series(f, self.POINT)
                alone = _grids(f, self.POINT, N, S_grid, ((free, shift),))
                assert alone.shape == (1, *want.shape)
                assert alone[0].tobytes() == want.tobytes(), (N, free, shift)
                assert shared[g].tobytes() == want.tobytes(), (N, free, shift)

    def test_one_member_lookup_per_state(self, fam, monkeypatch):
        # the eight grids of a moment set share one member table
        st = hatted_state(5)
        wanted = {
            key
            for free, shift in self.SPECS
            for p in range(N + 1)
            for q in range((p + free) % 2, N + 1 - p, 2)
            for r in range((N - p - q) // 2 + 1)
            for _, key, _, _ in tensor_series(p, q, r, S).derivative(*shift).plan
        }
        calls = []
        true_deriv = GeneratingFamily.ktilde_deriv

        def counted(self, s, n, lam):
            calls.append((s, n))
            return true_deriv(self, s, n, lam)

        monkeypatch.setattr(GeneratingFamily, "ktilde_deriv", counted)
        moments_from_potentials(fam, st, N, S)
        assert sorted(calls) == sorted(wanted)

    def test_phi_hat_at_order_zero_is_zero(self, fam):
        # phi_hat at N = 0 has no term, so its grid has no cells
        got = eval_phi_hat(fam, hatted_state(3), 0, S)
        assert got.shape == (3,) and np.array_equal(got, np.zeros(3))

    def test_exhausted_order_raises_every_call(self, fam):
        # at N = 2, S = 1 the value grid compiles but its d_ppqq grid cannot
        st = hatted_state(4)
        assert math.isfinite(eval_h_hat(fam, st, 2, 1))
        for _ in range(3):
            with pytest.raises(TruncationError):
                moments_from_potentials(fam, st, 2, 1)


class TestPotentialPair:
    """h_hat and phi_hat come from one node pass per (family, state, N, S)."""

    @staticmethod
    def count_node_passes(monkeypatch):
        passes = []
        true_pass = potentials._node_pass

        def counted(state, N):
            passes.append((state, N))
            return true_pass(state, N)

        monkeypatch.setattr(potentials, "_node_pass", counted)
        return passes

    def test_one_node_pass_per_arguments(self, fam, monkeypatch):
        passes = self.count_node_passes(monkeypatch)
        st = hatted_state(6)
        eval_h_hat(fam, st, N, S)
        eval_phi_hat(fam, st, N, S)
        eval_h_hat(fam, st, N, S)
        assert len(passes) == 1
        other = make_family("exponential")
        for args in ((fam, N - 1, S), (fam, N, S + 1), (other, N, S)):
            eval_phi_hat(args[0], st, *args[1:])
            eval_h_hat(args[0], st, *args[1:])
        assert len(passes) == 4
        assert set(st._pairs) == {(fam, N, S), (fam, N - 1, S), (fam, N, S + 1),
                                  (other, N, S)}

    def test_lab_potentials_make_one_node_pass(self, fam, monkeypatch):
        passes = self.count_node_passes(monkeypatch)
        lab_potentials(fam, replace(hatted_state(6), frame=LAB), BoostVelocity([0.1, 0, 0]), N, S)
        assert len(passes) == 1

    @pytest.mark.parametrize("kind", ["exponential", "poly_exponential"])
    def test_bits_match_a_fresh_state_in_both_orders(self, kind):
        f, S_pair = make_family(kind), 6
        for order in range(9):
            st = hatted_state(order, eps=5e-2)
            h_first = replace(st)
            h = eval_h_hat(f, h_first, order, S_pair).hex()
            phi = eval_phi_hat(f, h_first, order, S_pair).tobytes()
            phi_first = replace(st)
            assert eval_phi_hat(f, phi_first, order, S_pair).tobytes() == phi, order
            assert eval_h_hat(f, phi_first, order, S_pair).hex() == h, order
            assert eval_h_hat(f, replace(st), order, S_pair).hex() == h, order
            assert eval_phi_hat(f, replace(st), order, S_pair).tobytes() == phi, order

    def test_returned_phi_is_a_new_array(self, fam):
        st = hatted_state(7)
        phi = eval_phi_hat(fam, st, N, S)
        want = phi.copy()
        again = eval_phi_hat(fam, st, N, S)
        assert again is not phi and np.array_equal(again, want)
        phi[:] = 0.0
        again[:] = np.nan
        assert eval_phi_hat(fam, st, N, S).tobytes() == want.tobytes()

    def test_state_arrays_are_read_only_copies(self, fam):
        lam_i, lam_ill = np.array([1e-2, -2e-2, 3e-3]), np.array([2e-3, 1e-2, -1e-2])
        st = replace(hatted_state(8), lam_i=lam_i, lam_ill=lam_ill)
        h = eval_h_hat(fam, st, N, S)
        for name in ("lam_i", "lam_ill"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(st, name)[0] = 1.0
        lam_i[0] = lam_ill[0] = 0.5
        assert st.lam_i[0] == 1e-2 and st.lam_ill[0] == 2e-3
        assert eval_h_hat(fam, replace(st), N, S).hex() == h.hex()

    def test_phi_overflow_spares_h(self, fam, monkeypatch):
        st = hatted_state(9)
        want = eval_h_hat(fam, replace(st), N, S)
        true_field = potentials._field

        def inf_phi(grid, powers, shift=(0, 0, 0)):
            out = true_field(grid, powers, shift)
            out[1] = math.inf
            return out

        monkeypatch.setattr(potentials, "_field", inf_phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_h_hat(fam, st, N, S).hex() == want.hex()
            with pytest.raises(DomainError, match=r"^phi_hat overflows$"):
                eval_phi_hat(fam, st, N, S)
            with pytest.raises(DomainError, match=r"^phi_hat overflows$"):
                lab_potentials(fam, replace(st, frame=LAB), BoostVelocity([0, 0, 0]), N, S)
        assert st._pairs == {}

    def test_a_call_that_raises_stores_nothing(self, fam):
        st = replace(hatted_state(0), lam_iill=-1e-3)
        for evaluate in (eval_h_hat, eval_phi_hat):
            with pytest.raises(DomainError):
                evaluate(fam, st, N, S)
        assert st._pairs == {}

    def test_h_hat_where_phi_hat_has_no_order_left(self, fam):
        # at odd N phi_hat needs one lam_ppqq order more than h_hat
        st = hatted_state(10)
        point, _, weights, powers = _node_pass(st, 3)
        want = float(weights @ _field(_grids(fam, point, 3, 1, potentials._PAIR[:1]), powers)[0])
        assert eval_h_hat(fam, st, 3, 1).hex() == want.hex()
        with pytest.raises(TruncationError):
            eval_phi_hat(fam, st, 3, 1)
        assert st._pairs == {}


class TestStagedField:
    """The staged node contraction against one unstaged einsum."""

    SHIFTS = tuple(itertools.product((0, 1), repeat=3))

    @pytest.mark.parametrize("order", range(13))
    def test_matches_one_einsum(self, fam, order):
        # every shift, h and phi grids alone and stacked on one or two axes;
        # at N <= 1 a shift in c leaves no r cell, and phi at N = 0 has no term
        st = hatted_state(order, eps=5e-2)
        point, _, _, powers = _node_pass(st, order)
        grids = _grids(fam, point, order, 6, potentials._PAIR)
        for shift in self.SHIFTS:
            for grid in (grids[0], grids[1], grids, np.stack([grids, 2.0 * grids])):
                got, want = _field(grid, powers, shift), field_einsum(grid, powers, shift)
                assert got.shape == want.shape, (order, shift)
                if not np.any(want):
                    assert not np.any(got), (order, shift)
                else:
                    assert rel_residual_sym(got, want) <= 1e-13, (order, shift)


class TestTruncationArguments:
    """N and S are checked before any cached lookup, whatever ran before."""

    V = BoostVelocity([0.1, -0.2, 0.05])
    CALLS = {
        "eval_h_hat": lambda f, st, n, s: eval_h_hat(f, st, n, s),
        "eval_phi_hat": lambda f, st, n, s: eval_phi_hat(f, st, n, s),
        "lab_potentials": lambda f, st, n, s: lab_potentials(
            f, replace(st, frame=LAB), TestTruncationArguments.V, n, s),
        "boost_jacobian": lambda f, st, n, s: boost_jacobian(
            f, replace(st, frame=LAB), TestTruncationArguments.V, n, s),
        "moments_from_potentials": lambda f, st, n, s: moments_from_potentials(f, st, n, s),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("bad", [-1, 2.0, 2.5])
    @pytest.mark.parametrize("which", ["N", "S"])
    def test_rejected_before_and_after_a_valid_call(self, fam, name, which, bad):
        # N = -1 raised IndexError and N = 2.0 numpy's TypeError; S = 2.0 raised
        # ValueError on a fresh state but returned the value kept by S = 2
        call, st = self.CALLS[name], hatted_state(7)
        n, s = (bad, 2) if which == "N" else (2, bad)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{which} must be an integer >= 0, got {bad!r}$"):
                call(fam, st, n, s)
            call(fam, st, 2, 2)


class TestNonFiniteMultipliers:
    @staticmethod
    def spoiled(field, value):
        st = hatted_state(5)
        if field == "lam_ij":
            L = st.lam_ij.as_array().copy()
            L[0, 1] = L[1, 0] = value
            return replace(st, lam_ij=SymMatrix(L))
        vec = getattr(st, field).copy()
        vec[1] = value
        return replace(st, **{field: vec})

    @staticmethod
    def potential_calls(fam, st):
        lab = replace(st, frame="lab")
        return (
            lambda: eval_h_hat(fam, st, N, S),
            lambda: eval_phi_hat(fam, st, N, S),
            lambda: moments_from_potentials(fam, st, N, S),
            lambda: lab_potentials(fam, lab, BoostVelocity([0.1, -0.2, 0.05]), N, S),
            lambda: lab_potentials(fam, lab, BoostVelocity([0.0, 0.0, 0.0]), N, S),
        )

    @staticmethod
    def assert_domain_errors(calls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError):
                    call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lam_i", "lam_ill", "lam_ij"])
    def test_rejected_without_warnings(self, fam, field, value):
        # NaN gave NaN potentials, inf a RuntimeWarning as well, and
        # hat_multipliers a hatted state that was not finite
        st = self.spoiled(field, value)
        lab = replace(st, frame="lab")
        self.assert_domain_errors((
            *self.potential_calls(fam, st),
            lambda: hat_multipliers(lab, BoostVelocity([0.1, -0.2, 0.05])),
            lambda: hat_multipliers(lab, BoostVelocity([0.0, 0.0, 0.0])),
        ))

    @pytest.mark.parametrize("field", ["lam_i", "lam_ill", "lam_ij"])
    def test_overflow_rejected_without_warnings(self, fam, field):
        # finite, but the node powers overflowed into NaN potentials and
        # moments with a RuntimeWarning
        self.assert_domain_errors(self.potential_calls(fam, self.spoiled(field, 1e200)))

    def test_lam_ll_power_overflow_rejected_without_warnings(self, fam):
        # lambda_ll ** e overflows for the negative exponents of the high orders
        st = MultiplierState.equilibrium(0.0, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (eval_h_hat, eval_phi_hat, moments_from_potentials):
                with pytest.raises(DomainError, match=r"^coefficient overflows at "):
                    evaluate(fam, st, N, S)


class TestBoostLaw:
    def test_scalar_multiplier_transforms(self):
        lab = MultiplierState(
            frame="lab",
            lam=2.0,
            lam_i=np.array([1.0, 0.0, 0.0]),
            lam_ij=SymMatrix(np.eye(3) / 3.0),
            lam_ill=np.zeros(3),
            lam_iill=0.0,
        )
        hat = hat_multipliers(lab, BoostVelocity([1.0, 0.0, 0.0]))
        # lam_hat = lam + lam_i v_i + lam_ij v_i v_j = 2 + 1 + 1/3
        assert hat.lam == pytest.approx(2.0 + 1.0 + 1.0 / 3.0)
        # lam_i_hat = lam_i + 2 lam_ij v_j
        np.testing.assert_allclose(hat.lam_i, [1.0 + 2.0 / 3.0, 0.0, 0.0])
        assert hat.lam_iill == 0.0

    def test_quartic_multiplier_invariant(self):
        st = hatted_state(3)
        lab = MultiplierState(frame="lab", lam=st.lam, lam_i=st.lam_i,
                              lam_ij=st.lam_ij, lam_ill=st.lam_ill,
                              lam_iill=st.lam_iill)
        hat = hat_multipliers(lab, BoostVelocity([0.2, -0.1, 0.05]))
        assert hat.lam_iill == lab.lam_iill
        np.testing.assert_allclose(
            hat.lam_ill, lab.lam_ill + 4.0 * lab.lam_iill * np.array([0.2, -0.1, 0.05])
        )

    def test_requires_lab_frame(self):
        with pytest.raises(ValueError):
            hat_multipliers(hatted_state(0), BoostVelocity(np.zeros(3)))

    def test_lab_potentials_at_zero_velocity(self, fam):
        st = hatted_state(1)
        lab = MultiplierState(frame="lab", lam=st.lam, lam_i=st.lam_i,
                              lam_ij=st.lam_ij, lam_ill=st.lam_ill,
                              lam_iill=st.lam_iill)
        pair = lab_potentials(fam, lab, BoostVelocity(np.zeros(3)), N, S)
        assert pair.h == pytest.approx(eval_h_hat(fam, st, N, S), rel=1e-14)
        np.testing.assert_allclose(pair.phi, eval_phi_hat(fam, st, N, S), rtol=1e-14)

    def test_boosted_equilibrium_flux_cancels(self, fam):
        # at a boosted equilibrium the hatted flux potential cancels h*v
        lab = MultiplierState.equilibrium(0.1, 1.2, frame="lab")
        v = BoostVelocity([0.05, -0.02, 0.03])
        hat = hat_multipliers(lab, v)
        phi_hat = eval_phi_hat(fam, hat, N, S)
        h = eval_h_hat(fam, hat, N, S)
        np.testing.assert_allclose(phi_hat, -h * v.v, rtol=1e-6)

    @pytest.mark.parametrize("lam_ill", [[0, 5, 0], [0, 1e200, 0]], ids=["5", "1e200"])
    def test_boosted_lam_ll_named(self, lam_ill):
        # the lam_ill terms of the boost turn the lab's lambda_ll = 1 negative
        lab = MultiplierState(frame=LAB, lam=0.0, lam_i=np.zeros(3),
                              lam_ij=SymMatrix(np.eye(3) / 3.0),
                              lam_ill=np.array(lam_ill, dtype=float), lam_iill=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"boosted lambda_ll .* lab lambda_ll 1\.0"):
                hat_multipliers(lab, BoostVelocity([0.1, -0.2, 0.05]))


def _pairing_terms(state, blocks, lead=()):
    """The products lam_A m_A of sum_A lam_A m_A, one row per leading index."""
    lams = (state.lam, state.lam_i, state.lam_ij.as_array(), state.lam_ill, state.lam_iill)
    return np.concatenate(
        [np.reshape(np.asarray(m) * lam, (*lead, -1)) for m, lam in zip(blocks, lams)], axis=-1
    )


def test_boost_laws_are_adjoint():
    """sum_A lam_A F_A(v) = sum_B lam_hat_B(v) m_B, and per flux row k with
    m_B replaced by f_kB + v_k m_B: the moment boost and the multiplier boost
    are one Galilean law.  The moments are random, not from the potentials.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        sym = rng.uniform(-1, 1, (3, 3))
        f_kij = rng.uniform(-1, 1, (3, 3, 3))
        rest = MomentSet(
            "rest", rng.uniform(-1, 1), rng.uniform(-1, 1, 3), sym + sym.T,
            rng.uniform(-1, 1, 3), rng.uniform(-1, 1), rng.uniform(-1, 1, 3),
            rng.uniform(-1, 1, (3, 3)), f_kij + f_kij.transpose(0, 2, 1),
            rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3),
        )
        lab = MultiplierState(
            frame=LAB, lam=rng.uniform(-1, 1), lam_i=rng.uniform(-1, 1, 3),
            # 20 I keeps the boosted lambda_ll positive for every v in [-1, 1]^3
            lam_ij=SymMatrix(rng.uniform(-1, 1, (3, 3)) + 20.0 * np.eye(3)),
            lam_ill=rng.uniform(-1, 1, 3), lam_iill=rng.uniform(-1, 1),
        )
        v = BoostVelocity(rng.uniform(-1, 1, 3))
        hat = hat_multipliers(lab, v)
        moved = lab_moments_from_rest(rest, v)
        blocks = [getattr(rest, name) for name in BLOCKS]
        rows = [flux + np.multiply.outer(v.v, m) for flux, m in zip(blocks[5:], blocks[:5])]
        for lead, lab_blocks, rest_blocks in (
            ((), [getattr(moved, name) for name in BLOCKS[:5]], blocks[:5]),
            ((3,), [getattr(moved, name) for name in BLOCKS[5:]], rows),
        ):
            lhs = _pairing_terms(lab, lab_blocks, lead)
            rhs = _pairing_terms(hat, rest_blocks, lead)
            scale = np.abs(lhs).sum(-1) + np.abs(rhs).sum(-1)
            worst = max(worst, np.max(np.abs(lhs.sum(-1) - rhs.sum(-1)) / scale))
    assert worst <= 1e-13


class TestMoments:
    def test_rest_frame_required(self, fam):
        st = MultiplierState.equilibrium(0.0, 1.0, frame="lab")
        with pytest.raises(ValueError):
            moments_from_potentials(fam, st, N, S)

    def test_symmetries_and_traces(self, fam):
        st = hatted_state(5)
        ms = moments_from_potentials(fam, st, N, S)
        np.testing.assert_allclose(ms.m_ij, ms.m_ij.T, atol=1e-12)
        np.testing.assert_allclose(
            ms.f_kij, np.transpose(ms.f_kij, (0, 2, 1)), atol=1e-12
        )

    def test_equilibrium_moment_values(self, fam):
        # at equilibrium m = d k00/d lam and m_ij is isotropic with
        # trace 3 * dk00/dlam_ll
        st = MultiplierState.equilibrium(0.1, 1.4, 0.0)
        ms = moments_from_potentials(fam, st, N, S)
        pt = st.scalar_point()
        want_m = CoeffSeries.k00(S).d_lam()(fam, pt)
        want_trace = 3.0 * CoeffSeries.k00(S).d_ll()(fam, pt)
        assert ms.m == pytest.approx(want_m, rel=1e-12)
        assert np.trace(ms.m_ij) == pytest.approx(want_trace, rel=1e-7)
        np.testing.assert_allclose(ms.m_i, 0.0, atol=1e-9)
        np.testing.assert_allclose(ms.f_k, 0.0, atol=1e-12)

    def test_equilibrium_trace_exact(self, fam):
        st = MultiplierState.equilibrium(0.1, 1.4, 0.0)
        ms = moments_from_potentials(fam, st, N, S)
        want_trace = 3.0 * CoeffSeries.k00(S).d_ll()(fam, st.scalar_point())
        assert np.trace(ms.m_ij) == pytest.approx(want_trace, rel=1e-12)

    def test_exhausted_quartic_order_raises(self, fam):
        # S = 3 leaves the q = 6 term of h no lam_iill order for m_iill;
        # the values themselves need none
        st = MultiplierState.equilibrium(0.1, 1.2, 0.01)
        eval_h_hat(fam, st, N, 3)
        with pytest.raises(TruncationError):
            moments_from_potentials(fam, st, N, 3)

    def test_boost_of_moments_zero_velocity_is_identity(self, fam):
        st = hatted_state(7)
        rest = moments_from_potentials(fam, st, N, S)
        lab = lab_moments_from_rest(rest, BoostVelocity(np.zeros(3)))
        assert lab.m == rest.m
        np.testing.assert_array_equal(lab.m_ij, rest.m_ij)
        np.testing.assert_array_equal(lab.f_kij, rest.f_kij)
        assert lab.frame == "lab"

    def test_boost_requires_rest_frame(self, fam):
        st = hatted_state(7)
        rest = moments_from_potentials(fam, st, N, S)
        lab = lab_moments_from_rest(rest, BoostVelocity(np.zeros(3)))
        with pytest.raises(ValueError):
            lab_moments_from_rest(lab, BoostVelocity(np.zeros(3)))

    def test_boost_overflow_is_a_domain_error(self, fam):
        rest = moments_from_potentials(fam, hatted_state(7), N, S)
        huge = replace(rest, m_ij=1e300 * rest.m_ij)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                lab_moments_from_rest(huge, BoostVelocity([1e10, 0.0, 0.0]))

    def test_mass_density_boost_invariant(self, fam):
        st = hatted_state(9)
        rest = moments_from_potentials(fam, st, N, S)
        lab = lab_moments_from_rest(rest, BoostVelocity([0.3, 0.1, -0.2]))
        assert lab.m == rest.m  # rank-0 density is Galilean invariant
        np.testing.assert_allclose(
            lab.m_i, rest.m_i + rest.m * np.array([0.3, 0.1, -0.2])
        )


# --- finite-difference oracle for the analytic gradient blocks ---------------


def _grad_vector(fn, vec: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros((3,) + np.shape(fn(vec)))
    for k in range(3):
        def g(x, k=k):
            w = vec.copy()
            w[k] = x
            return fn(w)

        out[k] = central_diff(g, float(vec[k]), h)
    return out


def _grad_symmatrix(fn, mat: SymMatrix, h: float) -> np.ndarray:
    """Gradient w.r.t. a symmetric matrix in the 9-component convention.

    Off-diagonal entries are perturbed jointly (keeping symmetry) and the
    result halved, matching d h = G_ij d lam_ij summed over all nine
    components with G symmetric.
    """
    a = mat.as_array()
    out = np.zeros((3, 3) + np.shape(fn(mat)))
    for i in range(3):
        for j in range(i, 3):
            def g(x, i=i, j=j):
                w = a.copy()
                w[i, j] = x
                w[j, i] = x
                return fn(SymMatrix(w))

            d = central_diff(g, float(a[i, j]), h)
            if i == j:
                out[i, i] = d
            else:
                out[i, j] = out[j, i] = 0.5 * np.asarray(d)
    return out


def _diff_in_domain(fn, x: float, h: float):
    """4th-order first derivative whose stencil stays at x >= 0.

    Central where x - 2h >= 0, else forward: lam_iill < 0 is outside the
    domain, so a central stencil at a small lam_iill would raise.
    """
    if x >= 2 * h:
        return central_diff(fn, x, h)
    f0, f1, f2, f3, f4 = (np.asarray(fn(x + k * h), dtype=float) for k in range(5))
    return (-25 * f0 + 48 * f1 - 36 * f2 + 16 * f3 - 3 * f4) / (12 * h)


def fd_moments(potentials_at, state, h):
    """All ten blocks by 4th-order differences of ``potentials_at(state)``.

    ``potentials_at`` returns the 4-vector (h, phi^1, phi^2, phi^3); its
    gradients in the five multipliers of ``state`` are the ten blocks.
    """

    def at(**kw):
        return potentials_at(replace(state, **kw))

    d_lam = central_diff(lambda x: at(lam=x), state.lam, h)
    d_i = _grad_vector(lambda w: at(lam_i=w), state.lam_i, h)
    d_ij = _grad_symmatrix(lambda w: at(lam_ij=w), state.lam_ij, h)
    d_ill = _grad_vector(lambda w: at(lam_ill=w), state.lam_ill, h)
    d_iill = _diff_in_domain(lambda x: at(lam_iill=x), state.lam_iill, h)
    return {
        "m": d_lam[0],
        "m_i": d_i[:, 0],
        "m_ij": d_ij[..., 0],
        "m_ill": d_ill[:, 0],
        "m_iill": d_iill[0],
        "f_k": d_lam[1:],
        "f_ki": d_i[:, 1:].T,
        "f_kij": np.transpose(d_ij[..., 1:], (2, 0, 1)),
        "f_kill": d_ill[:, 1:].T,
        "f_kiill": d_iill[1:],
    }


# The step keeps the oracle's own O(h^4) error far below the tolerance: at
# the default step (7.4e-4) it reaches 3.3e-5 on m_ill of state 4 at 1e-2,
# where the high-q coefficients make the lam_ill direction steep.
FD_STEP = 1e-4


@pytest.mark.parametrize("eps", [1e-2, 5e-4])
@pytest.mark.parametrize("seed", [0, 1, 4])
def test_analytic_blocks_match_finite_differences(fam, seed, eps):
    st = hatted_state(seed, eps)
    ms = moments_from_potentials(fam, st, N, S)
    fd = fd_moments(lambda s: np.array([eval_h_hat(fam, s, N, S), *eval_phi_hat(fam, s, N, S)]),
                    st, FD_STEP)
    for name in BLOCKS:
        assert rel_residual_sym(getattr(ms, name), fd[name]) <= 1e-5, name


def test_boosted_blocks_match_lab_gradients(fam, noneq_lab_state):
    # the moment boost law: each lab block is the gradient of the lab
    # potentials in the lab multipliers
    v = BoostVelocity([0.1, -0.2, 0.05])
    rest = moments_from_potentials(fam, hat_multipliers(noneq_lab_state, v), N, S)
    lab = lab_moments_from_rest(rest, v)

    def lab_pair(st):
        pair = lab_potentials(fam, st, v, N, S)
        return np.array([pair.h, *pair.phi])

    fd = fd_moments(lab_pair, noneq_lab_state, FD_STEP)
    for name in BLOCKS:
        assert rel_residual_sym(getattr(lab, name), fd[name]) <= 1e-5, name


# --- isotropy -----------------------------------------------------------------


def _rotation(quat) -> np.ndarray:
    w, x, y, z = np.asarray(quat) / np.linalg.norm(quat)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _rotated(R, st: MultiplierState) -> MultiplierState:
    return replace(
        st,
        lam_i=R @ st.lam_i,
        lam_ij=SymMatrix(R @ st.lam_ij.as_array() @ R.T),
        lam_ill=R @ st.lam_ill,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    eps=hst.sampled_from([5e-4, 1e-2, 5e-2]),
    n_trunc=hst.integers(0, 8),
)
def test_zero_boost_is_the_hatted_potentials(seed, eps, n_trunc):
    """lab_potentials at v = 0 are h_hat and phi_hat of the same multipliers."""
    fam = make_family("exponential")
    st = hatted_state(seed, eps)
    pair = lab_potentials(fam, replace(st, frame=LAB), BoostVelocity(np.zeros(3)), n_trunc, S)
    assert pair.h == pytest.approx(eval_h_hat(fam, st, n_trunc, S), rel=1e-14)
    assert rel_residual_sym(pair.phi, eval_phi_hat(fam, st, n_trunc, S)) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=hst.integers(0, 2**16), scale=hst.sampled_from([1e-3, 1.0, 1e3]))
def test_zero_boost_keeps_every_moment_block(seed, scale):
    """lab_moments_from_rest at v = 0 returns the rest blocks, whatever they hold."""
    rng = np.random.default_rng(seed)
    shapes = [(), (3,), (3, 3), (3,), (), (3,), (3, 3), (3, 3, 3), (3, 3), (3,)]
    rest = MomentSet(
        "rest", *(scale * (rng.standard_normal(shape) if shape else rng.standard_normal())
                  for shape in shapes)
    )
    lab = lab_moments_from_rest(rest, BoostVelocity(np.zeros(3)))
    assert lab.frame == LAB
    for name in BLOCKS:
        np.testing.assert_array_equal(getattr(lab, name), getattr(rest, name), err_msg=name)


# At odd N the flux terms reach degree N + 1 on the sphere, at even N only N.
# Beyond eps = 1e-2 the terms of m_iill can cancel by 1e4, and the rounding
# of any summation order then exceeds 1e-12.
@pytest.mark.parametrize("n_trunc", [5, 6])
@settings(max_examples=15, deadline=None)
@given(
    quat=hst.tuples(*[hst.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1
    ),
    seed=hst.integers(0, 2**16),
    eps=hst.sampled_from([5e-4, 1e-2]),
)
def test_isotropy(n_trunc, quat, seed, eps):
    """h is invariant; phi and every gradient block rotate covariantly."""
    fam = make_family("exponential")
    R = _rotation(quat)
    st = hatted_state(seed, eps)
    rot = _rotated(R, st)
    h = eval_h_hat(fam, st, n_trunc, S)
    assert eval_h_hat(fam, rot, n_trunc, S) == pytest.approx(h, rel=1e-12)
    phi = eval_phi_hat(fam, st, n_trunc, S)
    assert rel_residual_sym(eval_phi_hat(fam, rot, n_trunc, S), R @ phi) <= 1e-12

    ms = moments_from_potentials(fam, st, n_trunc, S)
    mr = moments_from_potentials(fam, rot, n_trunc, S)
    want = {
        "m": ms.m,
        "m_i": R @ ms.m_i,
        "m_ij": R @ ms.m_ij @ R.T,
        "m_ill": R @ ms.m_ill,
        "m_iill": ms.m_iill,
        "f_k": R @ ms.f_k,
        "f_ki": R @ ms.f_ki @ R.T,
        "f_kij": np.einsum("ka,ib,jc,abc->kij", R, R, R, ms.f_kij),
        "f_kill": R @ ms.f_kill @ R.T,
        "f_kiill": R @ ms.f_kiill,
    }
    for name in BLOCKS:
        assert rel_residual_sym(getattr(mr, name), want[name]) <= 1e-12, name
