import math
import sys
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from mixdisc.core import InvalidWeight, iter_seeds
from mixdisc.discriminant import MatrixTuple, eval_polarized, exchange_value, gradient
from mixdisc import genaf
from mixdisc.genaf import (
    ConvexCombination,
    af_lower_bound_experiment,
    check_theorem52,
    classical_af_combination,
    column_repeated,
    expand_tuple,
    validate_weight,
)

from helpers import m_alpha, random_psd


def random_tuple(n, seed):
    return MatrixTuple([random_psd(n, s) for s in islice(iter_seeds(seed), n)])


class TestWeights:
    def test_validate_accepts(self):
        np.testing.assert_array_equal(validate_weight([2, 0, 1], 3), [2, 0, 1])

    def test_validate_rejects(self):
        with pytest.raises(InvalidWeight):
            validate_weight([1, 1], 3)
        with pytest.raises(InvalidWeight):
            validate_weight([2, 2, -1], 3)
        with pytest.raises(InvalidWeight):
            validate_weight([1.0, 1.0, 1.0], 3)

    def test_combination_must_close(self):
        with pytest.raises(InvalidWeight):
            ConvexCombination.build([0.5, 0.5], [[2, 0], [2, 0]], [1, 1], 2)

    def test_classical_combination(self):
        c = classical_af_combination(4)
        np.testing.assert_array_equal(c.target, np.ones(4, dtype=np.int64))


class TestExpansion:
    def test_expand_orders_by_index(self):
        t = random_tuple(3, 1)
        e = expand_tuple(t, [2, 0, 1])
        np.testing.assert_array_equal(e[0], t[0])
        np.testing.assert_array_equal(e[1], t[0])
        np.testing.assert_array_equal(e[2], t[2])

    def test_m_alpha_at_e_is_d(self):
        t = random_tuple(3, 2)
        assert m_alpha(t, [1, 1, 1]) == pytest.approx(eval_polarized(t), rel=1e-12)


class TestPairwiseAf:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_af_inequality(self, n):
        for seed in range(5):
            t = random_tuple(n, 200 + 7 * seed)
            d = eval_polarized(t)
            g = gradient(t)
            scale = max(1.0, d * d)
            for i in range(n):
                for j in range(i + 1, n):
                    d_ij, d_ji = exchange_value(t, i, j, grad=g)
                    assert d * d >= d_ij * d_ji - 1e-8 * scale


class TestTheorem52:
    def test_classical_combination_holds(self):
        for seed in range(3):
            t = random_tuple(3, 300 + seed)
            rep = check_theorem52(t, classical_af_combination(3))
            assert rep.holds
            assert rep.cap_slack >= -1e-6
            assert rep.m_slack >= -1e-6

    def test_degenerate_combination_zero_slack(self):
        # target equal to the single vector: both slacks collapse to the constant.
        t = random_tuple(3, 310)
        e = np.ones(3, dtype=np.int64)
        comb = ConvexCombination.build([1.0], [e], e, 3)
        rep = check_theorem52(t, comb)
        assert rep.cap_slack == pytest.approx(0.0, abs=1e-9)
        assert rep.m_slack == pytest.approx(math.log(27.0 / 6.0), rel=1e-9)

    def test_an_unconverged_capacity_call_fails_the_check(self, monkeypatch):
        # Same values, one capacity call flagged as stalled: the slacks stay
        # and ``holds`` goes False, with the stop reason on record.
        t = random_tuple(3, 300)
        comb = classical_af_combination(3)
        good = check_theorem52(t, comb)
        assert good.holds
        assert len(good.cap_stop_reasons) == 3
        assert set(good.cap_stop_reasons) <= {"roundoff"}
        mod = sys.modules["mixdisc.genaf"]
        real = mod.capacity
        calls = []

        def second_stalls(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res)
            return replace(res, converged=False, stop_reason="stalled") if len(calls) == 2 else res

        monkeypatch.setattr(mod, "capacity", second_stalls)
        rep = check_theorem52(t, comb)
        assert (rep.cap_slack, rep.m_slack) == (good.cap_slack, good.m_slack)
        assert not rep.holds
        assert rep.cap_stop_reasons[1] == "stalled"

    @pytest.mark.parametrize(
        "n, comb",
        [
            (3, classical_af_combination(3)),
            (3, ConvexCombination.build([1 / 3] * 3, 3 * np.eye(3, dtype=np.int64), [1, 1, 1], 3)),
            (4, classical_af_combination(4)),
            (8, classical_af_combination(8)),
        ],
        ids=["classical-3", "three-vectors-3", "classical-4", "classical-8"],
    )
    def test_m_values_are_m_alpha_bit_for_bit(self, n, comb, monkeypatch):
        # The M values come from one stacked kernel call; each must be what
        # m_alpha gives its weight vector alone (at n = 8 the kernel groups
        # the repeated slots of every expansion).
        seen = {}
        log_positive = genaf._log_positive

        def recording(value, what):
            seen[what] = value
            return log_positive(value, what)

        monkeypatch.setattr(genaf, "_log_positive", recording)
        t = random_tuple(n, 330 + n)
        check_theorem52(t, comb)
        expected = {f"M^{tuple(v)}": m_alpha(t, v) for v in comb.vectors}
        expected["M(target)"] = m_alpha(t, comb.target)
        assert {k: seen[k].hex() for k in expected} == {k: v.hex() for k, v in expected.items()}


class TestPermanentExperiment:
    def test_column_repeated(self):
        b = np.arange(9.0).reshape(3, 3)
        r = column_repeated(b, [2, 1, 0])
        np.testing.assert_array_equal(r[:, 0], b[:, 0])
        np.testing.assert_array_equal(r[:, 1], b[:, 0])
        np.testing.assert_array_equal(r[:, 2], b[:, 1])

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_cyclic_shift_values(self, n):
        res = af_lower_bound_experiment(n)
        assert res.per_e == 2.0
        assert res.per_alpha1 == float(2 ** (n // 2))
        assert res.per_alpha2 == float(2 ** (n // 2))
        assert res.log_deficit == pytest.approx((n / 2 - 1) * math.log(2.0), rel=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidWeight):
            af_lower_bound_experiment(5)
