"""Release acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).  The
sample counts and tolerances here are the release gate; do not reduce them.
"""

import math
import sys
import time
from itertools import islice

import numpy as np
import pytest

from mixdisc.capacity import (
    capacity,
    capacity_bound_report,
    capacity_via_scaling,
    n_pow_n_over_factorial,
    scale_to_doubly_stochastic,
)
from mixdisc.core import DEFAULT_TOL, NonConvergence, iter_seeds, make_rng, random_psd
from mixdisc.discriminant import (
    MatrixTuple,
    _discriminants,
    diagonal_tuple,
    euler_identity_residual,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
    exchange_value,
    gradient,
    permanent,
)
from mixdisc.extremal import (
    _random_ds_stack,
    bapat_bound,
    lemma36_family,
    minimize_search,
    random_ds_tuple,
)
from mixdisc.genaf import ConvexCombination, af_lower_bound_experiment, check_theorem52
from mixdisc.hyperbolic import (
    HyperbolicPencil,
    axis_vectors,
    mixed_value,
    pencil_from_tuple,
    roots,
)
from mixdisc.pascal import (
    BlockMatrix,
    qp_block,
    qp_tensor,
    sample_separable_ds,
)


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def random_tuple(n, seed):
    return MatrixTuple([random_psd(n, s) for s in islice(iter_seeds(seed), n)])


def test_criterion_01_bapat_value_at_minimizer():
    # The permutation-sum evaluator is cancellation-free when all slots are
    # equal and meets 1e-12; the inclusion-exclusion route alternates terms
    # ~1000x larger than the result at n = 8, so it is held to 1e-10.
    t0 = time.monotonic()
    worst = 0.0
    worst_pol = 0.0
    for n in range(1, 9):
        t = MatrixTuple([np.eye(n) / n] * n)
        expected = bapat_bound(n)
        worst = max(worst, abs(eval_sigma_det(t) - expected) / expected)
        worst_pol = max(worst_pol, abs(eval_polarized(t) - expected) / expected)
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst <= 1e-12 and worst_pol <= 1e-10 and elapsed < 1.0,
        f"D(I/n,..) = n!/n^n for n = 1..8, max rel err {worst:.2e} "
        f"(polarized {worst_pol:.2e}), {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for k in range(125):
            t = random_tuple(n, 1000 * n + k)
            vals = [
                eval_polarized(t),
                eval_sigma_det(t),
                eval_double_perm(t),
                eval_signed_permanent(t),
                eval_tensor(t),
            ]
            ref = vals[0]
            spread = (max(vals) - min(vals)) / (1.0 + abs(ref))
            worst = max(worst, spread)
            count += 1
    elapsed = time.monotonic() - t0
    _report(
        2,
        count == 500 and worst <= 1e-8 and elapsed < 60.0,
        f"5 evaluators agree on {count} tuples, max rel spread {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_permanent_bridge():
    rng = make_rng(77)
    worst = 0.0
    for _ in range(200):
        c = rng.random((6, 6))
        p = permanent(c)
        d = eval_polarized(diagonal_tuple(c))
        worst = max(worst, abs(p - d) / abs(p))
    _report(3, worst <= 1e-9, f"per(C) = D(diag tuple) on 200 matrices, max rel err {worst:.2e}")


def test_criterion_04_euler_identity():
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for k in range(50):
            t = random_tuple(n, 4000 * n + k)
            d = eval_polarized(t)
            res = euler_identity_residual(t)
            worst = max(worst, res / (1.0 + abs(d)))
            count += 1
    _report(
        4,
        count == 200 and worst <= 1e-8,
        f"sum A_i Q_i = D I on {count} tuples, max scaled residual {worst:.2e}",
    )


def test_criterion_05_bound_falsification():
    t0 = time.monotonic()
    min_margin = math.inf
    sampled = 0
    for n in (2, 3, 4, 5):
        # One stack drawn and one stacked read of D per n: the tuples of
        # random_ds_tuple and the values of eval_polarized, bit for bit.
        samples = _random_ds_stack(n, islice(iter_seeds(5000 + n), 1000), DEFAULT_TOL)
        d = _discriminants(samples)
        min_margin = min(min_margin, float(d.min()) - (bapat_bound(n) - 1e-7))
        sampled += len(samples)
    ok_samples = min_margin >= 0.0
    rec2 = minimize_search(2, trials=100, seed=52)
    rec3 = minimize_search(3, trials=100, seed=53)
    ok_search = (
        not rec2.below_bound
        and not rec3.below_bound
        and abs(rec2.best_value - 0.5) <= 1e-4
    )
    elapsed = time.monotonic() - t0
    _report(
        5,
        ok_samples and ok_search and sampled == 4000 and elapsed < 600.0,
        f"{sampled} samples + 200 descents never beat n!/n^n; "
        f"n=2 search best {rec2.best_value:.6f}, {elapsed:.0f}s",
    )


def _random_admissible_slot(n, rng):
    """Random Hermitian A1 with 0 <= A1 <= 2/n I and unit trace."""
    while True:
        w = rng.uniform(0.0, 2.0 / n, size=n)
        w *= 1.0 / w.sum()
        if np.all(w <= 2.0 / n):
            g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            q, _ = np.linalg.qr(g)
            return (q * w) @ q.conj().T


def test_criterion_06_lemma_closed_form():
    rng = make_rng(6)
    worst = 0.0
    for n in (3, 4):
        for _ in range(100):
            a1 = _random_admissible_slot(n, rng)
            _, predicted, actual = lemma36_family(n, a1)
            worst = max(worst, abs(predicted - actual) / (1.0 + abs(actual)))
    _report(
        6,
        worst <= 1e-9,
        f"commuting-family closed form matches on 200 inputs, max rel err {worst:.2e}",
    )


def test_criterion_07_capacity_sandwich():
    worst_ok = True
    checked = 0
    for n in (2, 3, 4, 5):
        for seed in islice(iter_seeds(7000 + n), 25):
            ratio, within = capacity_bound_report(random_ds_tuple(n, seed))
            worst_ok = worst_ok and within
            checked += 1
    n = 4
    diag = MatrixTuple(
        [np.diag([1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    )
    r_lo, _ = capacity_bound_report(diag)
    jn = MatrixTuple([np.eye(n) / n] * n)
    r_hi, _ = capacity_bound_report(jn)
    extremes = (
        abs(r_lo - 1.0) <= 1e-6
        and abs(r_hi - n_pow_n_over_factorial(n)) <= 1e-6 * n_pow_n_over_factorial(n)
    )
    _report(
        7,
        worst_ok and extremes and checked == 100,
        f"1 <= Cap/D <= n^n/n! on {checked} DS tuples; extremes {r_lo:.8f} and "
        f"{r_hi:.8f} attained",
    )


def test_criterion_08_scaling():
    fixture = MatrixTuple([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
    res = scale_to_doubly_stochastic(fixture)
    fixture_ok = (
        res.ds_defect < 1e-10
        and np.max(np.abs(res.transform_X - np.eye(2) / math.sqrt(3.0))) < 1e-12
    )
    worst_defect = 0.0
    worst_rel = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for seed in islice(iter_seeds(8000 + n), 25):
            t = random_tuple(n, seed)
            r = scale_to_doubly_stochastic(t)
            worst_defect = max(worst_defect, r.ds_defect)
            direct = capacity(t).value
            via = capacity_via_scaling(t)
            worst_rel = max(worst_rel, abs(via - direct) / abs(direct))
            count += 1
    _report(
        8,
        fixture_ok and worst_defect < 1e-8 and worst_rel <= 1e-6 and count == 100,
        f"fixture exact; {count} random tuples scaled (max defect {worst_defect:.2e}), "
        f"two capacity routes agree to {worst_rel:.2e}",
    )


def _random_combination(n, rng):
    """target +- an integer perturbation, weights (1/2, 1/2); always closes."""
    target = np.ones(n, dtype=np.int64)
    while True:
        delta = np.zeros(n, dtype=np.int64)
        i, j = rng.choice(n, size=2, replace=False)
        delta[i], delta[j] = 1, -1
        a1 = target + delta
        a2 = target - delta
        if np.all(a1 >= 0) and np.all(a2 >= 0):
            return ConvexCombination.build([0.5, 0.5], [a1, a2], target, n)


def test_criterion_09_alexandrov_fenchel():
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5):
        for k in range(125):
            t = random_tuple(n, 9000 * n + k)
            d = eval_polarized(t)
            g = gradient(t)
            scale = max(1.0, d * d)
            for i in range(n):
                for j in range(i + 1, n):
                    d_ij, d_ji = exchange_value(t, i, j, grad=g)
                    worst = max(worst, (d_ij * d_ji - d * d) / scale)
            count += 1
    pairwise_ok = worst <= 1e-8 and count == 500
    rng = make_rng(9)
    gen_ok = True
    gen_count = 0
    for n in (3, 4):
        for k in range(50):
            t = random_tuple(n, 9500 * n + k)
            rep = check_theorem52(t, _random_combination(n, rng))
            gen_ok = gen_ok and rep.holds
            gen_count += 1
    _report(
        9,
        pairwise_ok and gen_ok and gen_count == 100,
        f"D^2 >= D^ij D^ji on 500 tuples (worst excess {worst:.2e}); "
        f"generalized checks hold on {gen_count} combinations",
    )


def test_criterion_10_cyclic_shift_permanents():
    ok = True
    details = []
    for n_dim in (4, 6, 8, 10, 12):
        res = af_lower_bound_experiment(n_dim)
        expected_deficit = (n_dim / 2 - 1) * math.log(2.0)
        ok = ok and res.per_e == 2.0
        ok = ok and res.per_alpha1 == float(2 ** (n_dim // 2))
        ok = ok and res.per_alpha2 == float(2 ** (n_dim // 2))
        ok = ok and abs(res.log_deficit - expected_deficit) <= 1e-12
        details.append(f"N={n_dim}:{int(res.per_alpha1)}")
    _report(
        10,
        ok,
        "per = 2 vs 2^(N/2) exact (" + ", ".join(details) + "), deficit (N/2-1)log2",
    )


def test_criterion_11_pascal():
    worst = 0.0
    count = 0
    rng = make_rng(11)
    for n in (2, 3):
        for _ in range(100):
            g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal(
                (n * n, n * n)
            )
            bm = BlockMatrix.from_assembled((g + g.conj().T) / 2.0, n)
            b, t = qp_block(bm), qp_tensor(bm)
            worst = max(worst, abs(b - t) / (1.0 + abs(b)))
            count += 1
    agreement_ok = worst <= 1e-8 and count == 200
    n = 3
    mats = [random_psd(n, 1100 + i) for i in range(n)]
    z = np.zeros((n, n))
    bm = BlockMatrix([[mats[i] if i == j else z for j in range(n)] for i in range(n)])
    d = eval_polarized(MatrixTuple(mats))
    reduction_ok = abs(qp_block(bm) - d) <= 1e-9 * (1.0 + abs(d))
    min_qp = math.inf
    drawn = 0
    for seed in islice(iter_seeds(1111), 10000):
        try:
            bm, _ = sample_separable_ds(2, seed)
        except NonConvergence:
            continue
        min_qp = min(min_qp, qp_block(bm))
        drawn += 1
    sampling_ok = min_qp >= 0.5 - 1e-6 and drawn >= 9000
    _report(
        11,
        agreement_ok and reduction_ok and sampling_ok,
        f"qp_block = qp_tensor on {count} blocks ({worst:.2e}); block-diagonal "
        f"reduction exact; {drawn} separable draws, min QP {min_qp:.8f} >= 1/2",
    )


def test_criterion_12_hyperbolic():
    worst_mv = 0.0
    worst_root = 0.0
    count = 0
    rng = make_rng(12)
    for n in (2, 3, 4, 5):
        for k in range(50):
            t = random_tuple(n, 12000 * n + k)
            p = pencil_from_tuple(t)
            d = eval_polarized(t)
            mv = mixed_value(p, axis_vectors(n))
            worst_mv = max(worst_mv, abs(mv - d) / (1.0 + abs(d)))
            x = rng.standard_normal(n)
            worst_root = max(worst_root, roots(p, x).residual)
            count += 1
    _report(
        12,
        worst_mv <= 1e-8 and worst_root <= 1e-8 and count == 200,
        f"M_p(axes) = D on {count} pencils ({worst_mv:.2e}); root-product "
        f"identity holds ({worst_root:.2e})",
    )
