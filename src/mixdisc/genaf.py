"""Generalized Alexandrov-Fenchel inequalities over weight vectors.

A weight vector alpha (nonnegative integers summing to n) selects repetition
multiplicities; the inequalities compare log Cap and log D of the repeated
tuples across convex combinations of weight vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, InvalidWeight, SingularPencil, Tolerances
from .capacity import capacity, n_pow_n_over_factorial
from .discriminant import MatrixTuple, _as_real, _polarized_raw, eval_polarized, permanent

_VALUE_FLOOR = 1e-300


def validate_weight(alpha, n: int) -> np.ndarray:
    a = np.asarray(alpha)
    if a.shape != (n,) or not np.issubdtype(a.dtype, np.integer):
        raise InvalidWeight(f"weight vector must be {n} integers, got {alpha!r}")
    if np.any(a < 0) or int(a.sum()) != n:
        raise InvalidWeight(f"weight vector must be nonnegative and sum to {n}")
    return a.astype(np.int64)


@dataclass(frozen=True)
class ConvexCombination:
    """target = sum_i weights[i] * vectors[i] with weights on the simplex."""

    weights: np.ndarray
    vectors: tuple
    target: np.ndarray

    @staticmethod
    def build(weights, vectors, target, n: int) -> "ConvexCombination":
        w = np.asarray(weights, dtype=float)
        vecs = tuple(validate_weight(v, n) for v in vectors)
        tgt = validate_weight(target, n)
        if w.ndim != 1 or len(w) != len(vecs):
            raise InvalidWeight("one weight per vector required")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidWeight("weights must be nonnegative and sum to 1")
        combo = sum(wi * vi.astype(float) for wi, vi in zip(w, vecs))
        if np.max(np.abs(combo - tgt)) > 1e-12:
            raise InvalidWeight("weights do not combine to the target vector")
        return ConvexCombination(weights=w, vectors=vecs, target=tgt)


@dataclass(frozen=True)
class Theorem52Report:
    cap_slack: float
    m_slack: float
    holds: bool
    cap_stop_reasons: tuple  # of the capacity calls: each vector, then the target


@dataclass(frozen=True)
class AfExperimentResult:
    per_e: float
    per_alpha1: float
    per_alpha2: float
    ratio: float
    log_deficit: float


def expand_tuple(t: MatrixTuple, alpha) -> MatrixTuple:
    """The n-tuple with A_i repeated alpha_i times, in index order."""
    a = validate_weight(alpha, t.n)
    return MatrixTuple(t.matrices[np.repeat(np.arange(t.n), a)])


def m_alpha(t: MatrixTuple, alpha) -> float:
    """Mixed discriminant of the repeated tuple."""
    return eval_polarized(expand_tuple(t, alpha))


def _log_positive(value: float, what: str) -> float:
    if value < _VALUE_FLOOR:
        raise SingularPencil(f"{what} = {value:.3e} is numerically zero; combination skipped")
    return math.log(value)


def check_theorem52(
    t: MatrixTuple, comb: ConvexCombination, tol: Tolerances = DEFAULT_TOL
) -> Theorem52Report:
    """Slacks of the two generalized AF inequalities for one combination.

    cap_slack = log Cap(target) - sum gamma_i log Cap(alpha^i)        (>= 0)
    m_slack   = log D(target) - sum gamma_i log D(alpha^i) + log(n^n/n!)
    Both must be >= -1e-6, and every capacity call must have converged, for
    ``holds``.
    """
    n = t.n
    expanded = [expand_tuple(t, vec) for vec in (*comb.vectors, comb.target)]
    caps = [capacity(e, tol) for e in expanded]
    log_caps = [
        _log_positive(cap.value, f"Cap^{tuple(vec)}")
        for cap, vec in zip(caps, comb.vectors)
    ]
    cap_slack = _log_positive(caps[-1].value, "Cap(target)") - float(
        np.dot(comb.weights, log_caps)
    )
    ms = _as_real(_polarized_raw(np.array([e.matrices for e in expanded]))).tolist()
    log_ms = [_log_positive(m, f"M^{tuple(vec)}") for m, vec in zip(ms, comb.vectors)]
    m_target = _log_positive(ms[-1], "M(target)")
    m_slack = (
        m_target
        - float(np.dot(comb.weights, log_ms))
        + math.log(n_pow_n_over_factorial(n))
    )
    return Theorem52Report(
        cap_slack=cap_slack,
        m_slack=m_slack,
        holds=cap_slack >= -1e-6 and m_slack >= -1e-6 and all(c.converged for c in caps),
        cap_stop_reasons=tuple(c.stop_reason for c in caps),
    )


def column_repeated(b, alpha) -> np.ndarray:
    """Matrix with alpha_j copies of column j of b, in index order."""
    b = np.asarray(b)
    n = b.shape[0]
    a = validate_weight(alpha, n)
    return b[:, np.repeat(np.arange(n), a)]


def af_lower_bound_experiment(n_dim: int) -> AfExperimentResult:
    """The B = I + cyclic-shift permanent experiment bounding AF(N) from below.

    Splits e = (alpha^1 + alpha^2)/2 with alpha^1 doubling the odd-indexed
    columns and alpha^2 the even-indexed ones; per(B) = 2 against 2^(N/2)
    on each side, so the ratio decays like 2^(1 - N/2).
    """
    if n_dim % 2 != 0 or n_dim < 2 or n_dim > 20:
        raise InvalidWeight("the experiment needs an even N with 2 <= N <= 20")
    b = np.eye(n_dim)
    for i in range(n_dim):
        b[i, (i + 1) % n_dim] = 1.0
    alpha1 = np.array([2, 0] * (n_dim // 2))
    alpha2 = np.array([0, 2] * (n_dim // 2))
    per_e = float(permanent(b))
    per_1 = float(permanent(column_repeated(b, alpha1)))
    per_2 = float(permanent(column_repeated(b, alpha2)))
    ratio = per_e / math.sqrt(per_1 * per_2)
    return AfExperimentResult(
        per_e=per_e,
        per_alpha1=per_1,
        per_alpha2=per_2,
        ratio=ratio,
        log_deficit=-math.log(ratio),
    )


def classical_af_combination(n: int) -> ConvexCombination:
    """The classical AF instance: e = (alpha^1 + alpha^2)/2 with doubled slots 1, 2."""
    if n < 2:
        raise InvalidWeight("needs n >= 2")
    a1 = np.array([2, 0] + [1] * (n - 2))
    a2 = np.array([0, 2] + [1] * (n - 2))
    e = np.ones(n, dtype=np.int64)
    return ConvexCombination.build([0.5, 0.5], [a1, a2], e, n)
