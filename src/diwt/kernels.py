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

``build_kernel_table`` evaluates a product family of kernel queries and
collects the results into an immutable table; individual failures are
recorded per entry instead of aborting the whole build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import __version__ as _tool_version
from .errors import DiwtError, DomainError, NonConvergence, OrderError
from .quad import DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_finite_rows
from .specfun import ComplexIndex, erfcx, parabolic_cylinder_d_scaled

__all__ = [
    "KernelKind",
    "KernelQuery",
    "KernelTable",
    "cylinder_cos_kernel",
    "erfc_cos_kernel",
    "cylinder_sin_kernel",
    "build_kernel_table",
    "kernel_queries",
]


class KernelKind(Enum):
    CYLINDER_COS = "cylinder-cos"
    ERFC_COS = "erfc-cos"
    CYLINDER_SIN = "cylinder-sin"


def _as_index(value) -> complex:
    if isinstance(value, ComplexIndex):
        return value.value
    return complex(value)


@dataclass(frozen=True)
class KernelQuery:
    """One kernel evaluation request.

    For the erfc kernel the mu field is meaningless and normalized to 0;
    the two cylinder kernels require mu < 1/2 so the cylinder order stays
    negative.  The sine kernel and the erfc kernel take positive integer
    indices only; the cosine kernel accepts any complex index.
    """

    kind: KernelKind
    mu: float
    index: ComplexIndex
    x: float
    quad: QuadSpec = DEFAULT_SPEC

    def __post_init__(self):
        if not isinstance(self.kind, KernelKind):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not isinstance(self.index, ComplexIndex):
            object.__setattr__(self, "index", ComplexIndex(complex(self.index).real,
                                                           complex(self.index).imag))
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise DomainError(f"kernel abscissa must be positive, got {self.x}")
        if self.kind is KernelKind.ERFC_COS:
            object.__setattr__(self, "mu", 0.0)
        elif not (math.isfinite(self.mu) and self.mu < 0.5):
            raise OrderError(f"cylinder kernels require mu < 1/2, got {self.mu}")
        if self.kind in (KernelKind.ERFC_COS, KernelKind.CYLINDER_SIN):
            n = self.index
            if n.im != 0.0 or n.re != int(n.re) or n.re < 1:
                raise DomainError(
                    f"kernel {self.kind.value} requires a positive integer index, got {n}"
                )


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


def cylinder_cos_kernel(mu: float, index, x: float,
                        quad: QuadSpec = DEFAULT_SPEC) -> complex:
    """Cosine-type inversion kernel with scaled-cylinder profile.

    Integrates the scaled cylinder function of order -(1-2 mu), evaluated
    along sqrt(2x) cosh(u), against cos(2 nu u) over [0, pi].  The index nu
    may be complex; for real nu the result is real up to roundoff and is
    returned with a hard zero imaginary part.
    """
    if not (math.isfinite(mu) and mu < 0.5):
        raise OrderError(f"cylinder_cos_kernel requires mu < 1/2, got {mu}")
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"cylinder_cos_kernel requires x > 0, got {x}")
    nu = _as_index(index)
    value, err, ok = _kernel_eval(KernelKind.CYLINDER_COS, mu, nu, x, quad)
    if not ok:
        raise NonConvergence(
            f"cosine kernel at (mu={mu}, nu={nu}, x={x}) stalled at error {err:.2e}"
        )
    if nu.imag == 0.0:
        return complex(float(np.real(value)), 0.0)
    return complex(value)


def erfc_cos_kernel(n: int, x: float, quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Cosine-type kernel with scaled-erfc profile (the mu = 0 reduction)."""
    if int(n) != n or n < 1:
        raise DomainError(f"erfc_cos_kernel requires integer n >= 1, got {n}")
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"erfc_cos_kernel requires x > 0, got {x}")
    value, err, ok = _kernel_eval(KernelKind.ERFC_COS, 0.0, complex(int(n)), x, quad)
    if not ok:
        raise NonConvergence(
            f"erfc kernel at (n={n}, x={x}) stalled at error {err:.2e}"
        )
    return float(np.real(value))


def cylinder_sin_kernel(mu: float, n: int, x: float,
                        quad: QuadSpec = DEFAULT_SPEC) -> float:
    """Sine-type synthesis kernel over the symmetric interval [-pi, pi].

    The integrand is even, so the value is twice the [0, pi] integral of
    the scaled cylinder profile of order -(2-2 mu) times sinh(u) sin(n u).
    """
    if not (math.isfinite(mu) and mu < 0.5):
        raise OrderError(f"cylinder_sin_kernel requires mu < 1/2, got {mu}")
    if int(n) != n or n < 1:
        raise DomainError(f"cylinder_sin_kernel requires integer n >= 1, got {n}")
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"cylinder_sin_kernel requires x > 0, got {x}")
    value, err, ok = _kernel_eval(KernelKind.CYLINDER_SIN, mu, complex(int(n)), x, quad)
    if not ok:
        raise NonConvergence(
            f"sine kernel at (mu={mu}, n={n}, x={x}) stalled at error {err:.2e}"
        )
    return float(np.real(value))


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


def kernel_queries(kind: KernelKind, mu: float, indices: Iterable, xs: Iterable[float],
                   quad: QuadSpec = DEFAULT_SPEC) -> list[KernelQuery]:
    """Product family of queries for one table build."""
    out = []
    for idx in indices:
        for x in xs:
            out.append(KernelQuery(kind=kind, mu=mu, index=idx, x=float(x), quad=quad))
    return out


def build_kernel_table(queries: Sequence[KernelQuery]) -> KernelTable:
    """Evaluate a complete (index x grid) family of kernel queries.

    All queries must share kind, mu, and quad settings and jointly cover
    the full product of their index and x sets.  Entries that fail to
    converge (or raise any library error) are marked failed and reported
    in the table rather than aborting the build.
    """
    queries = list(queries)
    if not queries:
        raise DomainError("build_kernel_table needs at least one query")
    kind = queries[0].kind
    mu = queries[0].mu
    quad = queries[0].quad
    for q in queries[1:]:
        if q.kind is not kind or q.mu != mu or q.quad != quad:
            raise DomainError("kernel table queries must share kind, mu, and quad settings")

    indices = []
    xs = []
    seen = set()
    for q in queries:
        key = (q.index.re, q.index.im)
        if key not in seen:
            seen.add(key)
            indices.append(q.index)
        if q.x not in xs:
            xs.append(q.x)
    xs = sorted(xs)
    want = {((i.re, i.im), x) for i in indices for x in xs}
    got = {((q.index.re, q.index.im), q.x) for q in queries}
    if want != got:
        raise DomainError("kernel table queries must form a full index-by-grid product")

    values = []
    tols = []
    failures = []
    for i, idx in enumerate(indices):
        row_v = []
        row_t = []
        for j, x in enumerate(xs):
            try:
                v, err, ok = _kernel_eval(kind, mu, idx.value, x, quad)
                if not ok:
                    raise NonConvergence(f"entry stalled at error {err:.2e}")
                if kind is not KernelKind.CYLINDER_COS or idx.im == 0.0:
                    v = float(np.real(v))
                else:
                    v = complex(v)
                row_v.append(v)
                row_t.append(float(err))
            except DiwtError as exc:
                failures.append((i, j, f"{type(exc).__name__}: {exc}"))
                row_v.append(float("nan"))
                row_t.append(float("inf"))
        values.append(tuple(row_v))
        tols.append(tuple(row_t))

    meta = {"tool_version": _tool_version, "quad": quad.as_dict()}
    return KernelTable(
        kind=kind,
        mu=mu,
        indices=tuple(indices),
        grid=tuple(xs),
        values=tuple(values),
        achieved_tolerances=tuple(tols),
        failures=tuple(failures),
        meta=meta,
    )
