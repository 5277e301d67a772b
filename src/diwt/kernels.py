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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

import numpy as np

from . import __version__ as _tool_version
from .errors import DiwtError, DomainError, NonConvergence
from .quad import DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_finite_rows
from .specfun import ComplexIndex, _order_below_half, _positive, _positive_index, erfcx, \
    parabolic_cylinder_d_scaled

__all__ = [
    "KernelKind",
    "KernelTable",
    "cylinder_cos_kernel",
    "erfc_cos_kernel",
    "cylinder_sin_kernel",
    "build_kernel_table",
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
    return _kernel_eval_many(kind, mu, [nu], x, [quad])[0]


def _kernel_eval_many(kind: KernelKind, mu: float, ns, x: float, specs) -> list[tuple]:
    """Kernel integrals at one x for several indices on shared u nodes.

    The profile (scaled cylinder function, or scaled erfc for ERFC_COS)
    does not depend on the index, so it is evaluated once per u level for
    all indices, and only the trigonometric factor is formed per index.
    ``specs`` holds one QuadSpec per index; they may differ in abs_tol
    only.  Returns one (value, error_estimate, converged) per index, equal
    to what a separate call for that index gives (for a real index mixed
    with complex ones, up to the last bit; see integrate_finite_rows).
    """
    ns = [complex(nu) for nu in ns]
    quad = specs[0]
    if any(replace(s, abs_tol=quad.abs_tol) != quad for s in specs):
        raise ValueError("kernel specs for shared nodes may differ in abs_tol only")
    if quad.precision == "extended":
        return [(_kernel_eval_mp(kind, mu, nu, x, quad.dps), 10.0 ** (-quad.dps + 2), True)
                for nu in ns]

    root2x = math.sqrt(2.0 * x)
    rootx = math.sqrt(x)
    inner = _inner_rel_tol(quad)

    if kind is KernelKind.ERFC_COS:

        def profile(u):
            return erfcx(rootx * np.cosh(u))

        def wave(nu, u):
            return np.cos(2.0 * nu.real * u)

    elif kind is KernelKind.CYLINDER_COS:
        alpha = 1.0 - 2.0 * mu

        def profile(u):
            return parabolic_cylinder_d_scaled(alpha, root2x * np.cosh(u), rel_tol=inner)

        def wave(nu, u):
            return np.cos(2.0 * (nu.real if nu.imag == 0.0 else nu) * u)

    else:
        alpha = 2.0 - 2.0 * mu

        def profile(u):
            return parabolic_cylinder_d_scaled(
                alpha, root2x * np.cosh(u), rel_tol=inner) * np.sinh(u)

        def wave(nu, u):
            return np.sin(nu.real * u)

    def rows_at(u, rows):
        return profile(u) * np.array([wave(ns[i], u) for i in rows])

    results = integrate_finite_rows(rows_at, 0.0, math.pi, [s.abs_tol for s in specs], quad)
    if kind is KernelKind.CYLINDER_SIN:
        # even integrand: the [-pi, pi] kernel is twice the [0, pi] integral
        return [(2.0 * r.value, 2.0 * r.error_estimate, r.converged) for r in results]
    return [(r.value, r.error_estimate, r.converged) for r in results]


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
    value, err, ok = _kernel_eval(kind, mu, index.value, x, quad)
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
        row_v = []
        row_t = []
        for j, x in enumerate(xs):
            try:
                v, err = _kernel_value(kind, mu, idx, x, quad)
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
