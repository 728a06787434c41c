"""Values and terms beyond the float range raise ``OutOfRange`` (exit 2),
not ``ValueError``, ``OverflowError`` or an overflow ``RuntimeWarning``;
pytest turns every warning into an error here."""

import json
import math
import re

import numpy as np
import pytest

import mixdisc
from mixdisc.capacity import capacity, capacity_via_scaling
from mixdisc.cli import main, tuple_to_doc
from mixdisc.core import MixdiscError, OutOfRange, _wishart
from mixdisc.discriminant import MatrixTuple, eval_polarized, eval_sigma_det, gradient, permanent

# (1 + j/64) 2^600 I/4, j = 0..3: D = (4!/4^4) Cap and Cap = 2^2400 prod_j (1 + j/64).
_WEIGHTS = 1 + np.arange(4) / 64
_HUGE = MatrixTuple([w * 2.0**600 * np.eye(4) / 4 for w in _WEIGHTS])
_HUGE_LOG2_CAP = 2400 + math.log2(math.prod(_WEIGHTS))


def _unbalanced():
    """A seeded Wishart 4-tuple, slot 0 times 2^400 and the others times
    2^-400, beside the unscaled tuple: D and Cap are 2^-800 times the
    unscaled ones, within the float range, while the polarization's terms
    det(sum eps_i A_i) are near 2^1600."""
    mats = _wishart((4, 4, 4), 3)
    scales = np.array([2.0**400, 2.0**-400, 2.0**-400, 2.0**-400])
    return MatrixTuple(mats * scales[:, None, None]), MatrixTuple(mats)


def test_out_of_range_is_an_exported_library_error():
    assert issubclass(OutOfRange, MixdiscError)
    assert mixdisc.OutOfRange is OutOfRange


@pytest.mark.parametrize(
    "route",
    [eval_polarized, eval_sigma_det, gradient, lambda t: permanent(t.matrices[0] * 4)],
    ids=["eval_polarized", "eval_sigma_det", "gradient", "permanent"],
)
def test_terms_beyond_the_float_range_raise(route):
    with pytest.raises(OutOfRange, match="beyond the float range") as info:
        route(_HUGE)
    assert "may lie within it" in str(info.value)


@pytest.mark.parametrize("route", [capacity, capacity_via_scaling])
def test_cap_beyond_the_float_range_names_its_base_2_exponent(route):
    with pytest.raises(OutOfRange) as info:
        route(_HUGE)
    exponent = float(re.fullmatch(r"Cap = 2\^(\S+) is beyond the float range", str(info.value))[1])
    assert exponent == pytest.approx(_HUGE_LOG2_CAP, abs=0.01)


def test_a_term_overflow_does_not_claim_the_value_is_out_of_range():
    # The kernel's terms overflow, and it used to return NaN; its message
    # says the value may lie in range, which the permutation sum, whose
    # terms stay near D, and both capacity routes confirm.
    t, plain = _unbalanced()
    with pytest.raises(OutOfRange, match="may lie within it"):
        eval_polarized(t)
    expected = math.ldexp(eval_polarized(plain), -800)
    assert 0.0 < expected < 1e-200
    assert eval_sigma_det(t) == pytest.approx(expected, rel=1e-12)
    cap = math.ldexp(capacity(plain).value, -800)
    assert capacity(t).value == pytest.approx(cap, rel=1e-9)
    assert capacity_via_scaling(t) == pytest.approx(cap, rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [["eval"], ["eval", "--cross-check"], ["eval", "--algorithm", "sigma-det"], ["capacity"], ["scale"]],
    ids=["eval", "cross-check", "sigma-det", "capacity", "scale"],
)
def test_cli_exits_2_with_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(tuple_to_doc(_HUGE)))
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "beyond the float range" in lines[0]
