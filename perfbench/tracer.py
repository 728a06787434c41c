"""Span tracing of mixdisc from outside the package.

``Tracer.install()`` wraps every public function of the nine mixdisc modules
at every binding site (the defining module's attribute, each ``from .x
import`` copy in sibling modules and in the package namespace, and values of
module-level dict tables such as ``cli._ALGORITHMS``), plus
``MatrixTuple.__init__`` and ``numpy.linalg.det/slogdet/eigh/solve``.
``Tracer.restore()`` puts every original object back.  Nothing under
``src/`` is edited; untraced runs install nothing, which
``check_untraced()`` verifies.

A span is one call of a wrapped function: name, size tag, start, end and the
span that was open when it started.  Numpy calls are counted on the
innermost open span.  Spans are kept in flat arrays and turned into
per-layer metrics once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = (
    "core",
    "discriminant",
    "structure",
    "capacity",
    "extremal",
    "genaf",
    "pascal",
    "hyperbolic",
    "cli",
)
NUMPY_FUNCS = ("det", "slogdet", "eigh", "solve")
_MARK = "__perfbench_original__"

# Outcome codes stored per span.
OK, RAISED, NONCONVERGED, REJECTED = 0, 1, 2, 3


def det_flops(n: int) -> float:
    """Real flops of one complex n x n LU determinant: n^3/3 complex
    multiply-adds of 8 real flops each, plus the diagonal product."""
    return 8.0 * n**3 / 3.0 + 6.0 * n


def det_bytes(n: int) -> float:
    """Bytes of one complex128 n x n determinant: the input is read once and
    copied once into the LU work buffer (caches ignored)."""
    return 2.0 * 16.0 * n * n


def _size_tag(args):
    """Problem size of a call, read from its first argument."""
    if not args:
        return -1
    a = args[0]
    if isinstance(a, bool):
        return -1
    if isinstance(a, int):
        return a
    for attr in ("degree", "n"):
        v = getattr(a, attr, None)
        if isinstance(v, int):
            return v
    shape = getattr(a, "shape", None)
    if shape:
        return int(shape[0])
    if isinstance(a, (list, tuple)):
        if a and isinstance(a[0], str):
            return a[0]  # cli.main(argv): the subcommand
        return len(a)
    return -1


def _iterations(result):
    it = getattr(result, "iterations", None)
    return int(it) if isinstance(it, int) else 0


def _observe_solver(result):
    return OK, _iterations(result)


def _observe_sampler(result):
    return (REJECTED if result is None else OK), 0


def _observe_membership(result):
    return (OK if result.passes else REJECTED), 0


_OBSERVERS = {
    "capacity.capacity": _observe_solver,
    "capacity.scale_to_doubly_stochastic": _observe_solver,
    "pascal.sample_separable_ds": _observe_sampler,
    "pascal.sample_block_ds": _observe_sampler,
    "hyperbolic.check_hd_membership": _observe_membership,
}


def _mixdisc_modules():
    pkg = importlib.import_module("mixdisc")
    mods = {m: importlib.import_module(f"mixdisc.{m}") for m in MODULES}
    return pkg, mods


def public_functions():
    """{qualified name: function} for every public function of the nine modules."""
    _, mods = _mixdisc_modules()
    out = {}
    for m, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out[f"{m}.{name}"] = obj
    return out


def binding_sites(targets):
    """Every (container, key, qualified name) that holds a target function.

    A container is a module (key: attribute name) or a module-level dict
    (key: dict key).  ``targets`` maps id(function) to its qualified name.
    """
    pkg, mods = _mixdisc_modules()
    sites = []
    for mod in (pkg, *mods.values()):
        for name, obj in list(vars(mod).items()):
            if id(obj) in targets:
                sites.append((mod, name, targets[id(obj)]))
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, value in obj.items():
                    if id(value) in targets:
                        sites.append((obj, key, targets[id(value)]))
    return sites


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def check_untraced():
    """Raise unless every binding holds the original, unwrapped object.

    Checks each binding site of each public function, ``MatrixTuple.__init__``
    and the numpy linear-algebra entry points; returns the number of sites.
    """
    funcs = public_functions()
    sites = binding_sites({id(f): q for q, f in funcs.items()})
    # A wrapped binding is no longer the original object, so it would be
    # missing from ``sites``; look for wrappers directly as well.
    pkg, mods = _mixdisc_modules()
    for mod in (pkg, *mods.values()):
        for name, obj in vars(mod).items():
            values = obj.values() if isinstance(obj, dict) and not name.startswith("__") else (obj,)
            for v in values:
                if callable(v) and hasattr(v, _MARK):
                    raise RuntimeError(f"traced wrapper left at {mod.__name__}.{name}")
    for container, key, q in sites:
        if _get(container, key) is not funcs[q]:
            raise RuntimeError(f"binding {key!r} of {q} is not the original function")
    init = mods["discriminant"].MatrixTuple.__dict__["__init__"]
    if hasattr(init, _MARK):
        raise RuntimeError("MatrixTuple.__init__ is wrapped")
    for f in NUMPY_FUNCS:
        if hasattr(getattr(np.linalg, f), _MARK):
            raise RuntimeError(f"numpy.linalg.{f} is wrapped")
    return len(sites)


class Tracer:
    """Installs wrappers, records spans while installed, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.tag: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outcome = array("b")
        self.iters = array("q")
        self.dets = array("q")
        self.det_flops = array("d")
        self.det_bytes = array("d")
        self.slogdets = array("q")
        self.eighs = array("q")
        self.solves = array("q")
        self.numpy_outside = dict.fromkeys(NUMPY_FUNCS, 0)
        self._stack: list[int] = []
        self._saved: list = []

    # -- span recording ---------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int, tag) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.tag.append(tag)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.outcome.append(OK)
        self.iters.append(0)
        self.dets.append(0)
        self.det_flops.append(0.0)
        self.det_bytes.append(0.0)
        self.slogdets.append(0)
        self.eighs.append(0)
        self.solves.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, outcome: int, iters: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.outcome[idx] = outcome
        self.iters[idx] = iters

    def _wrap(self, fn, qualified: str):
        nid = self._id(qualified)
        observe = _OBSERVERS.get(qualified)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid, _size_tag(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                partial = getattr(exc, "result", None)
                code = NONCONVERGED if type(exc).__name__ == "NonConvergence" else RAISED
                tracer._close(idx, code, _iterations(partial))
                raise
            code, iters = observe(result) if observe else (OK, 0)
            tracer._close(idx, code, iters)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _wrap_init(self, init, qualified: str):
        nid = self._id(qualified)
        tracer = self

        @functools.wraps(init)
        def wrapper(obj, matrices, *args, **kwargs):
            idx = tracer._open(nid, len(matrices) if hasattr(matrices, "__len__") else -1)
            try:
                init(obj, matrices, *args, **kwargs)
            except BaseException:
                tracer._close(idx, RAISED, 0)
                raise
            tracer._close(idx, OK, 0)

        setattr(wrapper, _MARK, init)
        return wrapper

    def _wrap_numpy(self, fn, which: str):
        tracer = self
        counters = {
            "det": tracer.dets,
            "slogdet": tracer.slogdets,
            "eigh": tracer.eighs,
            "solve": tracer.solves,
        }[which]

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            if tracer._stack:
                top = tracer._stack[-1]
                counters[top] += batch
                if which == "det":
                    n = shape[-1]
                    tracer.det_flops[top] += batch * det_flops(n)
                    tracer.det_bytes[top] += batch * det_bytes(n)
            else:
                tracer.numpy_outside[which] += batch
            return fn(a, *args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self) -> int:
        """Wrap every binding site; returns the number of bindings replaced."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        funcs = public_functions()
        wrappers = {q: self._wrap(f, q) for q, f in funcs.items()}
        for container, key, q in binding_sites({id(f): q for q, f in funcs.items()}):
            self._saved.append((container, key, _get(container, key)))
            _set(container, key, wrappers[q])
        mt = importlib.import_module("mixdisc.discriminant").MatrixTuple
        init = mt.__dict__["__init__"]
        self._saved.append((mt, "__init__", init))
        setattr(mt, "__init__", self._wrap_init(init, "discriminant.MatrixTuple"))
        for f in NUMPY_FUNCS:
            orig = getattr(np.linalg, f)
            self._saved.append((np.linalg, f, orig))
            setattr(np.linalg, f, self._wrap_numpy(orig, f))
        return len(self._saved)

    def restore(self) -> None:
        """Put every original object back, in reverse order of installation."""
        while self._saved:
            container, key, orig = self._saved.pop()
            _set(container, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy columns, with self time computed."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        if has_parent.any():
            child += np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        cols = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "duration": dur,
            "self": dur - child,
            "outcome": np.frombuffer(self.outcome, dtype=np.int8),
            "iters": np.frombuffer(self.iters, dtype=np.int64),
            "dets": np.frombuffer(self.dets, dtype=np.int64),
            "det_flops": np.frombuffer(self.det_flops, dtype=np.float64),
            "det_bytes": np.frombuffer(self.det_bytes, dtype=np.float64),
            "slogdets": np.frombuffer(self.slogdets, dtype=np.int64),
            "eighs": np.frombuffer(self.eighs, dtype=np.int64),
            "solves": np.frombuffer(self.solves, dtype=np.int64),
        }
        return cols
