"""Bit digests of seeded outputs: one sha256 per family, for before/after checks.

    python tests/digests.py

prints one ``<family> <sha256>`` line per family:

- ``conjecture``: the ``conjecture_experiment(n, 200, seed)`` reports for
  n = 2..6 and seeds 0-59 (n, samples, min_ratio, bound and violations;
  each run's four pencils drawn from the first four children of
  ``iter_seeds(seed)``), each as the line
  ``json.dumps(asdict(report), sort_keys=True)``;
- ``random_ds_tuples``: the bytes of every slot stack of
  ``random_ds_tuples(n, range(60))`` for n = 2..6;
- ``check_hd_membership``: the fields (floats as hex) of ``check_hd_membership``
  on seeded pencils (doubly stochastic, complex Wishart and indefinite ones)
  against mixtures scaled by 1, 1 + 1e-7, 2 and -1 and the axis vectors;
- ``gen_random_psd``: the ``mixdisc gen-random n --kind psd --seed s``
  documents for n = 2..6 and seeds 0-9;
- ``random_psd``: the bytes of ``random_psd(n, s)`` (``helpers.py``) for
  n = 1..6 and seeds 0-19;
- ``pascal_samplers``: the bytes of rho from ``sample_block_ds`` and
  ``sample_separable_ds`` for n = 2, 3 and seeds 0-9 (``None`` where the
  sampler raises ``NonConvergence`` at its step cap);
- ``decompose``: the parts (slots, basis and tuple bytes) and product check of
  ``decompose`` on fixed decomposable doubly stochastic tuples: scaled
  ``random_psd`` blocks, set on complementary coordinates, conjugated by a
  seeded unitary and permuted, so the rank tests draw their generic vectors;
- ``capacity``: ``capacity(t).value`` as hex, its stop reason and
  iterations, and ``capacity_via_scaling(t)`` as hex, on the seeded Wishart
  tuples ``_wishart((n, n, n), s)`` for n = 2..6 and seeds 0-19, and on the
  near-boundary tuples (two Wishart slots and a rank-one + 1e-6 I slot) and
  repeated near-boundary tuples (that slot twice and a Wishart slot) of
  seeds 0-29, drawn as tests/test_capacity.py draws them;
- ``minimize_search``: the trial bests and stop reasons of
  ``minimize_search(n, 1, seed)`` for n = 2..6 and seeds 0-19, each as the
  line ``json.dumps([trial_bests, stop_reasons])``.

A change that should keep the bits leaves every line as it was.  The bits
depend on the numpy build and the CPU, so compare two runs on one host only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from mixdisc.capacity import (  # noqa: E402
    capacity,
    capacity_via_scaling,
    scale_to_doubly_stochastic,
)
from mixdisc.cli import main as cli_main  # noqa: E402
from mixdisc.core import (  # noqa: E402
    NonConvergence,
    _wishart,
    iter_seeds,
    make_rng,
    random_complex_gaussian,
)
from mixdisc.discriminant import MatrixTuple  # noqa: E402
from mixdisc.extremal import minimize_search, random_ds_tuple, random_ds_tuples  # noqa: E402
from mixdisc.hyperbolic import (  # noqa: E402
    HyperbolicPencil,
    _random_ds_matrices,
    axis_vectors,
    check_hd_membership,
    conjecture_experiment,
    pencil_from_tuple,
)
from mixdisc.pascal import sample_block_ds, sample_separable_ds  # noqa: E402
from mixdisc.structure import decompose  # noqa: E402

from helpers import random_psd  # noqa: E402

DIMENSIONS = range(2, 7)
SEEDS = range(60)


def _conjecture_lines():
    for n in DIMENSIONS:
        for seed in SEEDS:
            yield json.dumps(asdict(conjecture_experiment(n, 200, seed)), sort_keys=True)


def _tuple_lines():
    for n in DIMENSIONS:
        for t in random_ds_tuples(n, SEEDS):
            yield t.matrices.tobytes().hex()


def _pencils(n: int):
    """A doubly stochastic pencil, a complex Wishart one and an indefinite
    real one with a mixed direction, each of n slots of degree n."""
    yield pencil_from_tuple(random_ds_tuple(n, 40 + n))
    yield HyperbolicPencil([random_psd(n, s) for s in islice(iter_seeds(70 + n), n)], np.ones(n))
    sym = [(g + g.T) / 2 for g in make_rng(77 + n).standard_normal((n, n, n))]
    sym[0] = sym[0] + 3 * n * np.eye(n)
    e = np.zeros(n)
    e[0] = 1.0
    yield HyperbolicPencil(sym, e)


def _membership_lines():
    for n in range(1, 6):
        mixes = _random_ds_matrices(6, n, make_rng(n))
        for pencil in _pencils(n):
            tuples = [list(scale * mix.T) for scale in (1.0, 1.0 + 1e-7, 2.0, -1.0) for mix in mixes]
            for xs in tuples + [axis_vectors(n)]:
                rep = check_hd_membership(pencil, xs)
                fields = (rep.nonneg_violation, rep.trace_violation, rep.sum_violation)
                yield " ".join(v.hex() for v in fields) + f" {rep.passes}"


def _psd_document_lines():
    for n in DIMENSIONS:
        for seed in range(10):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["gen-random", str(n), "--kind", "psd", "--seed", str(seed)])
            yield f"{code} {out.getvalue()}"


def _random_psd_lines():
    for n in range(1, 7):
        for seed in range(20):
            yield random_psd(n, seed).tobytes().hex()


def _sampler_lines():
    for n in (2, 3):
        for seed in range(10):
            for draw in (sample_block_ds, lambda n, seed: sample_separable_ds(n, seed)[0]):
                try:
                    yield draw(n, seed).blocks.tobytes().hex()
                except NonConvergence:
                    yield "None"


def _decomposable(sizes, seed):
    """A doubly stochastic tuple of blocks of ``sizes`` slots on complementary
    coordinates: each block the scaling of ``random_psd`` slots, the whole
    conjugated by a seeded unitary and its slots permuted."""
    n = sum(sizes)
    mats = np.zeros((n, n, n), dtype=np.complex128)
    first = 0
    for k, size in enumerate(sizes):
        block = MatrixTuple([random_psd(size, 10 * seed + k * size + i) for i in range(size)])
        part = slice(first, first + size)
        mats[part, part, part] = scale_to_doubly_stochastic(block).scaled.matrices
        first += size
    rng = make_rng(seed)
    u = np.linalg.qr(random_complex_gaussian(n, rng))[0]
    return MatrixTuple(u @ mats[rng.permutation(n)] @ u.conj().T)


def _decompose_lines():
    for seed, sizes in enumerate([(1, 1), (2, 1), (2, 3), (1, 2, 3), (3, 3), (2, 2, 2)]):
        res = decompose(_decomposable(sizes, seed))
        for slots, basis, sub in res.parts:
            yield f"{list(slots)} {basis.tobytes().hex()} {sub.matrices.tobytes().hex()}"
        yield res.product_check.hex()


def _gram(rng):
    g = random_complex_gaussian(3, rng)
    return g @ g.conj().T


def _capacity_tuples():
    for n in DIMENSIONS:
        for seed in range(20):
            yield MatrixTuple(_wishart((n, n, n), seed))
    for repeated in (False, True):
        for seed in range(30):
            rng = make_rng(seed)
            w = [_gram(rng) for _ in range(1 if repeated else 2)]
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r = np.outer(v, v.conj()) + 1e-6 * np.eye(3)
            yield MatrixTuple([r, r, *w] if repeated else [*w, r])


def _capacity_lines():
    for t in _capacity_tuples():
        res, via = capacity(t), capacity_via_scaling(t)
        yield f"{res.value.hex()} {res.stop_reason} {res.iterations} {via.hex()}"


def _search_lines():
    for n in DIMENSIONS:
        for seed in range(20):
            rec = minimize_search(n, 1, seed)
            yield json.dumps([rec.trial_bests, rec.stop_reasons])


FAMILIES = {
    "conjecture": _conjecture_lines,
    "random_ds_tuples": _tuple_lines,
    "check_hd_membership": _membership_lines,
    "gen_random_psd": _psd_document_lines,
    "random_psd": _random_psd_lines,
    "pascal_samplers": _sampler_lines,
    "decompose": _decompose_lines,
    "capacity": _capacity_lines,
    "minimize_search": _search_lines,
}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    for name, lines in FAMILIES.items():
        print(name, digest(lines()))


if __name__ == "__main__":
    main()
