"""Inversion and synthesis kernels.

Each kernel is a finite trigonometric transform over [0, pi] of a smooth
profile built from cosh(u).  What makes them numerically delicate is an
exponential prefactor that grows like e^{x cosh^2 u}: evaluated naively it
overflows double precision already at moderate x.  The prefactor cancels
exactly against the Gaussian factor inside the parabolic cylinder function
(or the complementary error function), so every integrand here is written
in terms of the scaled functions from :mod:`diwt.specfun` and stays bounded
for all x > 0.

Three kernels are provided:

* ``cylinder_cos_kernel``  -- scaled cylinder profile times cos(2 nu u),
  with a possibly complex index nu; this is the Whittaker-inversion kernel.
* ``erfc_cos_kernel``      -- scaled-erfc profile times cos(2 n u); the
  special case the first kernel reduces to when mu = 0.
* ``cylinder_sin_kernel``  -- scaled cylinder profile (one order lower)
  times sinh(u) sin(n u), integrated over the symmetric interval; this is
  the synthesis kernel.

A kernel request is valid when x > 0, mu < 1/2 for the two cylinder
kernels (the erfc kernel ignores mu), and the index is a positive integer
for the erfc and sine kernels; one check enforces this for every entry
point.  ``build_kernel_table(kind, mu, indices, xs)`` evaluates every
(index, x) pair of a product grid into an immutable table; individual
failures are recorded per entry instead of aborting the whole build.

Kernels at many x and indices are one row-wise u-integral with a row per
(x, index) pair, and one profile call per u level for every x still
open.  Cylinder D stops each point on its own and the row rule sums each
row alone, so an entry does not depend on the batch that holds it: a
table row, an inversion level and a one-x call give the same bits.  Nor
does it depend on the data being transformed, so in double precision each
index's column over a batch of x is remembered across calls in a bounded
LRU memo (``kernel_memo_info``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from . import __version__ as _tool_version
from ._memo import LRUMemo, MemoInfo
from .errors import DiwtError, DomainError, NonConvergence
from .quad import DEFAULT_SPEC, QuadSpec, _as_python_number, integrate_finite, \
    integrate_finite_rows
from .specfun import ComplexIndex, _cyl_profile, _order_below_half, _positive, _positive_index, \
    erfcx, parabolic_cylinder_d_scaled

__all__ = [
    "KernelKind",
    "KernelTable",
    "cylinder_cos_kernel",
    "erfc_cos_kernel",
    "cylinder_sin_kernel",
    "build_kernel_table",
    "kernel_memo_info",
    "kernel_memo_clear",
]


class KernelKind(Enum):
    CYLINDER_COS = "cylinder-cos"
    ERFC_COS = "erfc-cos"
    CYLINDER_SIN = "cylinder-sin"


def _checked(kind: KernelKind, mu: float, index, x: float):
    """Validate one kernel request; returns the normalized (mu, index, x).

    The erfc kernel ignores mu, which is normalized to 0; the two cylinder
    kernels require mu < 1/2 so the cylinder order stays negative.  The
    sine and erfc kernels take positive integer indices only; the cosine
    kernel accepts any finite complex index.
    """
    if not isinstance(kind, KernelKind):
        raise DomainError(f"unknown kernel kind {kind!r}")
    if not isinstance(index, ComplexIndex):
        index = complex(index)
        index = ComplexIndex(index.real, index.imag)
    x = _positive(x, f"kernel {kind.value}")
    mu = 0.0 if kind is KernelKind.ERFC_COS else _order_below_half(mu, f"kernel {kind.value}")
    if kind is not KernelKind.CYLINDER_COS:
        if index.im != 0.0:
            raise DomainError(
                f"kernel {kind.value} requires a real index, got {index.value}")
        _positive_index(index.re, f"kernel {kind.value} index")
    return float(mu), index, x


def _inner_rel_tol(quad: QuadSpec) -> float:
    # the cylinder profile must be resolved below the outer tolerance
    return max(min(quad.rel_tol * 1e-2, 1e-14), 1e-15)


def _kernel_eval(kind: KernelKind, mu: float, nu: complex, x: float,
                 quad: QuadSpec):
    """Dispatch one kernel integral; returns (value, error_estimate, converged)."""
    return _kernel_eval_many(kind, mu, [nu], [x], [quad])[0][0]


# Least recently used kernel columns are evicted beyond 16,384 points, one
# point per (index, x).  A point takes about 32 bytes, keys and arrays by
# sys.getsizeof after 60 invert cells (268 when each pair was its own
# entry); the first invert request at a mu adds about 2,900 (n 1..3), and
# later ones at that mu almost none.
_KERNEL_MEMO = LRUMemo(1 << 14, points=lambda key: len(key[-1]) >> 3)


def kernel_memo_info() -> MemoInfo:
    """Hits, misses and stored points of the double-precision kernel memo.

    A point is one (index, x) entry; counts run from import or the last
    ``kernel_memo_clear()``.
    """
    return _KERNEL_MEMO.info()


def kernel_memo_clear() -> None:
    """Empty the kernel memo and zero its counts."""
    _KERNEL_MEMO.clear()


def _check_specs(specs) -> QuadSpec:
    """The first of ``specs``, which may differ from it in abs_tol only."""
    quad = specs[0]
    shared = vars(quad)
    if any(s is not quad and {**vars(s), "abs_tol": quad.abs_tol} != shared for s in specs):
        raise ValueError("kernel specs for shared nodes may differ in abs_tol only")
    return quad


def _kernel_eval_many(kind: KernelKind, mu: float, ns, xs, specs) -> list[list[tuple]]:
    """Kernel integrals at several x for several indices on shared u nodes.

    ``specs`` holds one QuadSpec per index; they may differ in abs_tol
    only.  Returns, per x, one (value, error_estimate, converged) per index.
    Double precision runs through ``_kernel_columns``; extended precision
    integrates each entry with mpmath and never touches the memo.
    """
    quad = _check_specs(specs)
    if quad.precision == "extended":
        return [[(_kernel_eval_mp(kind, mu, complex(nu), x, quad.dps), 10.0 ** (-quad.dps + 2),
                  True) for nu in ns] for x in np.asarray(xs, dtype=float).reshape(-1).tolist()]
    cols = [list(zip(map(_as_python_number, v.tolist()), e.tolist(), ok.tolist()))
            for v, e, ok in zip(*_kernel_columns(kind, mu, ns, xs, specs))]
    return [list(entries) for entries in zip(*cols)]


def _kernel_columns(kind: KernelKind, mu: float, ns, xs, specs):
    """(values, errors, converged) of every (index, x) pair, each of shape (len(ns), len(xs)).

    Double precision only.  The rows of one row-wise u-integral are the
    (x, index) pairs.  The profile (scaled cylinder function, or scaled
    erfc for ERFC_COS) does not depend on the index, so each u level makes
    one profile call on outer(sqrt(2x), cosh u) for the x with an open row
    (cylinder D once per distinct cosh u), and only the trigonometric
    factor is formed per index.  Values are complex whenever one index is
    (a real index mixed with complex ones can then differ from its own call
    in the last bit; see integrate_finite_rows), and real otherwise.

    Cylinder D stops each z point on its own and sums each point along its
    own nodes, and the row rule sums each row alone, so every entry equals
    what a call for that x alone gives, bit for bit.  So each index's column
    over the batch is remembered across calls, keyed by everything that
    fixes its bits: kind, mu, the index, its abs_tol, the other QuadSpec
    fields, the row dtype and the bytes of xs.  A call integrates the
    indices it has not seen over the whole batch and takes the rest from
    the memo (``kernel_memo_info``); stored arrays are read-only.
    """
    ns = [complex(nu) for nu in ns]
    xs = np.asarray(xs, dtype=float).reshape(-1)
    quad = _check_specs(specs)
    dtype = complex if kind is KernelKind.CYLINDER_COS and any(nu.imag for nu in ns) else float
    # what every column shares, as plain numbers so that a key hashes
    # without calling back into Python; dps is unused in double precision
    shared = (kind.value, float(mu), quad.rel_tol, quad.max_refinements, quad.max_evals,
              dtype is complex)
    at = xs.tobytes()
    cols = _KERNEL_MEMO.fill([(shared, nu, s.abs_tol, at) for nu, s in zip(ns, specs)],
                             lambda todo: _kernel_rows(kind, mu, ns, xs, specs, dtype, todo))
    return tuple(np.array(part) for part in zip(*cols))


def _kernel_rows(kind: KernelKind, mu: float, ns: list, xs: np.ndarray, specs, dtype,
                 todo: list) -> list[tuple]:
    """Read-only (values, errors, converged) over xs of each index ns[i], i in ``todo``.

    One row-wise u-integral in ``dtype`` with a row per (index, x) pair;
    each u level makes one profile call for the x with an open row.
    """
    quad = specs[0]
    root2x = np.sqrt(2.0 * xs)
    rootx = np.sqrt(xs)
    inner = _inner_rel_tol(quad)
    at_n = np.repeat(todo, xs.size)
    at_x = np.tile(np.arange(xs.size), len(todo))

    if kind is KernelKind.ERFC_COS:

        def profile(at, u):
            return erfcx(np.multiply.outer(rootx[at], np.cosh(u)))

        def wave(nu, u):
            return np.cos(2.0 * nu.real * u)

    elif kind is KernelKind.CYLINDER_COS:
        alpha = 1.0 - 2.0 * mu

        def profile(at, u):
            return _cyl_profile(alpha, root2x[at], u, inner)

        def wave(nu, u):
            return np.cos(2.0 * (nu.real if nu.imag == 0.0 else nu) * u)

    else:
        alpha = 2.0 - 2.0 * mu

        def profile(at, u):
            return _cyl_profile(alpha, root2x[at], u, inner) * np.sinh(u)

        def wave(nu, u):
            return np.sin(nu.real * u)

    def rows_at(u, rows):
        open_x, back = np.unique(at_x[rows], return_inverse=True)
        waves = np.array([wave(nu, u) for nu in ns], dtype=dtype)
        return profile(open_x, u)[back] * waves[at_n[rows]]

    results = integrate_finite_rows(rows_at, 0.0, math.pi,
                                    [specs[i].abs_tol for i in at_n.tolist()], quad)
    shape = (len(todo), xs.size)
    values = np.array([r.value for r in results], dtype=dtype).reshape(shape)
    errors = np.array([r.error_estimate for r in results]).reshape(shape)
    converged = np.array([r.converged for r in results]).reshape(shape)
    if kind is KernelKind.CYLINDER_SIN:
        # even integrand: the [-pi, pi] kernel is twice the [0, pi] integral
        values, errors = 2.0 * values, 2.0 * errors
    for a in (values, errors, converged):
        a.flags.writeable = False
    return list(zip(values, errors, converged))


def _kernel_eval_mp(kind: KernelKind, mu: float, nu: complex, x: float, dps: int):
    import mpmath as mp

    with mp.workdps(int(dps)):
        xx = mp.mpf(x)
        r2x = mp.sqrt(2 * xx)
        rx = mp.sqrt(xx)
        nn = mp.mpc(nu)
        if kind is KernelKind.ERFC_COS:
            f = lambda u: (mp.exp(xx * mp.cosh(u) ** 2)
                           * mp.erfc(rx * mp.cosh(u)) * mp.cos(2 * nn * u))
        elif kind is KernelKind.CYLINDER_COS:
            f = lambda u: (mp.exp(xx * mp.cosh(u) ** 2 / 2)
                           * mp.pcfd(2 * mp.mpf(mu) - 1, r2x * mp.cosh(u))
                           * mp.cos(2 * nn * u))
        else:
            f = lambda u: (mp.exp(xx * mp.cosh(u) ** 2 / 2)
                           * mp.pcfd(2 * (mp.mpf(mu) - 1), r2x * mp.cosh(u))
                           * mp.sinh(u) * mp.sin(nn * u))
        v = mp.quad(f, [0, mp.pi / 2, mp.pi])
        if kind is KernelKind.CYLINDER_SIN:
            v = 2 * v
        if nu.imag == 0.0:
            v = mp.re(v)
        return v


_STALL_NAMES = {
    KernelKind.CYLINDER_COS: "cosine kernel",
    KernelKind.ERFC_COS: "erfc kernel",
    KernelKind.CYLINDER_SIN: "sine kernel",
}


def _kernel_value(kind: KernelKind, mu: float, index, x: float, quad: QuadSpec):
    """Checked kernel value and error estimate; raises on non-convergence.

    The value is real except for a complex index of the cosine kernel.
    """
    mu, index, x = _checked(kind, mu, index, x)
    return _entry(kind, mu, index, x, _kernel_eval(kind, mu, index.value, x, quad))


def _entry(kind: KernelKind, mu: float, index: ComplexIndex, x: float, triple):
    """(value, error) of one checked request from its (value, error, converged)."""
    value, err, ok = triple
    if not ok:
        raise NonConvergence(
            f"{_STALL_NAMES[kind]} at (mu={mu}, index={index.value}, x={x}) "
            f"stalled at error {err:.2e}"
        )
    if kind is KernelKind.CYLINDER_COS and index.im != 0.0:
        return complex(value), float(err)
    return float(np.real(value)), float(err)


def cylinder_cos_kernel(mu: float, index, x: float,
                        quad: QuadSpec = DEFAULT_SPEC) -> complex:
    """Cosine-type inversion kernel with scaled-cylinder profile.

    Integrates the scaled cylinder function of order -(1-2 mu), evaluated
    along sqrt(2x) cosh(u), against cos(2 nu u) over [0, pi].  The index nu
    may be complex; for real nu the result is real up to roundoff and is
    returned with a hard zero imaginary part.
    """
    return complex(_kernel_value(KernelKind.CYLINDER_COS, mu, index, x, quad)[0])


def erfc_cos_kernel(n: int, x: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Cosine-type kernel with scaled-erfc profile (the mu = 0 reduction)."""
    return _kernel_value(KernelKind.ERFC_COS, 0.0, n, x, quad)[0]


def cylinder_sin_kernel(mu: float, n: int, x: float,
                        quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Sine-type synthesis kernel over the symmetric interval [-pi, pi].

    The integrand is even, so the value is twice the [0, pi] integral of
    the scaled cylinder profile of order -(2-2 mu) times sinh(u) sin(n u).
    """
    return _kernel_value(KernelKind.CYLINDER_SIN, mu, n, x, quad)[0]


def _cylinder_sin_kernel_full_range(mu: float, n: int, x: float,
                                    quad: QuadSpec = DEFAULT_SPEC) -> float:
    # direct [-pi, pi] evaluation, used to test the folded form
    root2x = math.sqrt(2.0 * x)
    inner = _inner_rel_tol(quad)

    def f(u):
        return parabolic_cylinder_d_scaled(
            2.0 - 2.0 * mu, root2x * np.cosh(u), rel_tol=inner) \
            * np.sinh(u) * np.sin(n * u)

    r = integrate_finite(f, -math.pi, math.pi, quad)
    if not r.converged:
        raise NonConvergence("full-range sine kernel did not converge")
    return float(r.value)


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTable:
    """Immutable grid of kernel values.

    ``values[i][j]`` is the kernel at ``indices[i]`` and ``grid[j]``;
    failed entries hold NaN and are listed in ``failures`` as
    (index position, grid position, message).  ``achieved_tolerances``
    mirrors the value layout with per-entry error estimates.
    """

    kind: KernelKind
    mu: float
    indices: tuple
    grid: tuple
    values: tuple
    achieved_tolerances: tuple
    failures: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0 or np.any(g <= 0.0) or np.any(np.diff(g) <= 0.0):
            raise DomainError("kernel table grid must be strictly increasing and positive")
        if len(self.values) != len(self.indices):
            raise DomainError("kernel table needs one value row per index")
        failed = {(i, j) for i, j, _ in self.failures}
        for i, row in enumerate(self.values):
            if len(row) != len(self.grid):
                raise DomainError("kernel table needs one value per (index, x) pair")
            for j, v in enumerate(row):
                if (i, j) not in failed and not np.all(np.isfinite(complex(v))):
                    raise DomainError(
                        f"non-finite kernel value at index {self.indices[i]}, x={self.grid[j]}"
                    )

    @property
    def entry_count(self) -> int:
        return len(self.indices) * len(self.grid)


def build_kernel_table(kind: KernelKind, mu: float, indices: Iterable,
                       xs: Iterable[float], quad: QuadSpec = DEFAULT_SPEC) -> KernelTable:
    """Evaluate one kernel on every (index, x) pair of a product grid.

    Every request is checked before anything is evaluated, so invalid
    input raises.  Indices keep the order of their first appearance
    (duplicates dropped); the grid holds the distinct xs in increasing
    order.  Entries that fail to converge (or raise any library error)
    are marked failed and reported in the table rather than aborting the
    build.
    """
    xs = list(xs)
    checked = [_checked(kind, mu, idx, x) for idx in indices for x in xs]
    if not checked:
        raise DomainError("build_kernel_table needs at least one index and one x")
    mu = checked[0][0]
    indices = tuple(dict.fromkeys(idx for _, idx, _ in checked))
    xs = tuple(sorted({x for _, _, x in checked}))

    values = []
    tols = []
    failures = []
    for i, idx in enumerate(indices):
        # one many-x call per index row; if it raises, which a cylinder
        # stall at any x of the row does, each x runs alone so that only
        # the entries that fail are marked
        try:
            row = [t for [t] in _kernel_eval_many(kind, mu, [idx.value], xs, [quad])]
        except DiwtError:
            row = [None] * len(xs)
        row_v = []
        row_t = []
        for j, x in enumerate(xs):
            try:
                v, err = _entry(kind, mu, idx, x,
                                row[j] or _kernel_eval(kind, mu, idx.value, x, quad))
            except DiwtError as exc:
                failures.append((i, j, f"{type(exc).__name__}: {exc}"))
                v, err = float("nan"), float("inf")
            row_v.append(v)
            row_t.append(err)
        values.append(tuple(row_v))
        tols.append(tuple(row_t))

    meta = {"tool_version": _tool_version, "quad": quad.as_dict()}
    return KernelTable(
        kind=kind,
        mu=mu,
        indices=indices,
        grid=xs,
        values=tuple(values),
        achieved_tolerances=tuple(tols),
        failures=tuple(failures),
        meta=meta,
    )
