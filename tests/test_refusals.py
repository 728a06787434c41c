"""Malformed arguments to the library's public constructors and functions
are refused with the documented exception, not computed on."""

import numpy as np
import pytest

from mixdisc.core import InvalidWeight, PreconditionViolated
from mixdisc.discriminant import MatrixTuple, permanent
from mixdisc.extremal import bapat_bound, lemma36_family
from mixdisc.genaf import ConvexCombination, classical_af_combination
from mixdisc.hyperbolic import HyperbolicPencil
from mixdisc.pascal import SeparableSpec, assemble_separable

from helpers import diagonal_tuple, from_assembled, m_matrix

J2 = MatrixTuple([np.eye(2) / 2] * 2)
PENCIL = HyperbolicPencil([np.eye(2), np.diag([1.0, 2.0])], [1.0, 1.0])


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: ConvexCombination.build([1.0], [[2, 0], [0, 2]], [1, 1], 2), InvalidWeight, "one weight per vector"),
        (lambda: ConvexCombination.build([0.7, 0.7], [[2, 0], [0, 2]], [1, 1], 2), InvalidWeight, "sum to 1"),
        (lambda: ConvexCombination.build([1.5, -0.5], [[2, 0], [0, 2]], [2, 0], 2), InvalidWeight, "nonnegative"),
        (lambda: classical_af_combination(1), InvalidWeight, "n >= 2"),
        (lambda: bapat_bound(0), ValueError, "n must be >= 1"),
        (lambda: lemma36_family(1, np.eye(1)), PreconditionViolated, "n >= 2"),
        (lambda: from_assembled(np.eye(3), 2), ValueError, "must be 4 x 4"),
        (lambda: assemble_separable(SeparableSpec(terms=())), ValueError, "at least one separable term"),
        (lambda: assemble_separable(SeparableSpec(terms=((np.ones((2, 3)),) * 2,))), ValueError, "share one dimension"),
        (
            lambda: assemble_separable(SeparableSpec(terms=((np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))))),
            ValueError,
            "all factors must share one dimension",
        ),
        (lambda: m_matrix(J2, np.eye(3)), ValueError, "W must be 2 x 2"),
        (lambda: permanent(np.ones((2, 3))), ValueError, "square matrix"),
        (lambda: diagonal_tuple(np.ones((2, 3))), ValueError, "square matrix"),
        (lambda: MatrixTuple(np.zeros((0, 2, 2))), ValueError, "nonempty stack"),
        (lambda: HyperbolicPencil(np.zeros((0, 2, 2)), []), ValueError, "nonempty stack"),
        (lambda: HyperbolicPencil([np.eye(2), np.eye(2)], [1.0]), ValueError, "one entry per pencil matrix"),
        (lambda: PENCIL.at([1.0, 1.0, 1.0]), ValueError, "real 2-vector"),
    ],
    ids=[
        "weights-vs-vectors", "weights-off-simplex-sum", "negative-weight", "classical-n1", "bapat-n0",
        "lemma36-n1", "assembled-shape", "no-separable-terms", "non-square-factors", "mixed-dimensions", "w-shape",
        "permanent-non-square", "diagonal-tuple-non-square", "empty-tuple", "empty-pencil",
        "direction-length", "point-length",
    ],
)
def test_refused(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
