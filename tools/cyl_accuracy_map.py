"""Accuracy map of the four double-precision paths for scaled cylinder D.

Prints, for each alpha and z band, the worst error in ulps against mpmath
``pcfd`` (30 digits) of e^{z^2/4} D_{-alpha}(z) by each path of
``specfun.parabolic_cylinder_d_scaled``:

* S, the Maclaurin series (``_cyl_series_coeffs``), on |z| <= 1/2 only;
* R, the order recurrence z D(alpha+1) + (alpha+1) D(alpha+2), for z > 1/2;
* L, the large-z series (``_cyl_leaf_coeffs``), for z >= Z0(alpha) only;
* Q, the quadrature (``_cyl_quadrature``, rel_tol 1e-15, 9 levels).

A cell reads S / R / L / Q, with ``-`` where a path does not apply and
``st`` where the quadrature stalls; a ``*`` marks the path that
``parabolic_cylinder_d_scaled`` takes there.  The band (5, Z0) ends just
below the leaf edge and [Z0, 100] starts at it.

Run from the repository root (about ten seconds on one core):

    python tools/cyl_accuracy_map.py
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diwt.errors import NonConvergence  # noqa: E402
from diwt.specfun import (  # noqa: E402
    _CYL_RECURRENCE_ALPHA,
    _CYL_SERIES_ALPHA_MAX,
    _CYL_SERIES_RADIUS,
    _cyl_leaf_coeffs,
    _cyl_quadrature,
    _cyl_series_coeffs,
)

ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0)
PER_BAND = 12


def bands(z0: float):
    below = np.nextafter(z0, 0.0)
    return (("[-1.5,-0.5)", np.linspace(-1.5, -0.5, PER_BAND + 1)[:-1]),
            ("[-0.5,0.5]", np.linspace(-0.5, 0.5, PER_BAND)),
            ("(0.5,2]", np.linspace(0.5, 2.0, PER_BAND + 1)[1:]),
            ("(2,5]", np.linspace(2.0, 5.0, PER_BAND + 1)[1:]),
            ("(5,Z0)", np.linspace(5.0, below, PER_BAND + 1)[1:]),
            ("[Z0,100]", np.geomspace(z0, 100.0, PER_BAND)),
            ("(100,1e4]", np.geomspace(100.0, 1e4, PER_BAND + 1)[1:]))


def reference(alpha: float, z: np.ndarray) -> np.ndarray:
    with mp.workdps(30):
        return np.array([float(mp.exp(mp.mpf(zi) ** 2 / 4) * mp.pcfd(-alpha, mp.mpf(zi)))
                         for zi in z.tolist()])


def series(alpha, z):
    even, odd = _cyl_series_coeffs(alpha)
    return np.polyval(even, z * z) + z * np.polyval(odd, z * z)


def recurrence(alpha, z):
    return z * _cyl_quadrature(alpha + 1.0, z, 1e-15, 9) \
        + (alpha + 1.0) * _cyl_quadrature(alpha + 2.0, z, 1e-15, 9)


def leaf(alpha, z):
    z0, coeffs = _cyl_leaf_coeffs(alpha)
    w = z0 / z
    return z ** -alpha * np.polyval(coeffs, w * w)


def quadrature(alpha, z):
    return _cyl_quadrature(alpha, z, 1e-15, 9)


def chosen(alpha: float, z: np.ndarray, z0: float) -> str:
    # the dispatch order of parabolic_cylinder_d_scaled, read off one band
    if np.all(np.abs(z) <= _CYL_SERIES_RADIUS) and alpha <= _CYL_SERIES_ALPHA_MAX:
        return "S"
    if np.all(z >= z0):
        return "L"
    if np.all(z > _CYL_SERIES_RADIUS) and alpha < _CYL_RECURRENCE_ALPHA:
        return "R"
    return "Q"


def cell(alpha: float, z: np.ndarray, z0: float) -> str:
    ref = reference(alpha, z)
    ulp = np.spacing(np.abs(ref))
    applies = {"S": np.all(np.abs(z) <= _CYL_SERIES_RADIUS), "R": np.all(z > _CYL_SERIES_RADIUS),
               "L": np.all(z >= z0), "Q": True}
    paths = {"S": series, "R": recurrence, "L": leaf, "Q": quadrature}
    take = chosen(alpha, z, z0)
    out = []
    for name, path in paths.items():
        if not applies[name]:
            out.append("-")
            continue
        try:
            worst = f"{np.max(np.abs(path(alpha, z) - ref) / ulp):.0f}"
        except NonConvergence:
            worst = "st"
        out.append(worst + ("*" if name == take else ""))
    return " / ".join(out)


def main() -> None:
    heads = [name for name, _ in bands(10.0)]
    print("worst |value - mpmath| in ulps, S / R / L / Q by z band (* = path taken)")
    print(f"| alpha | Z0 | {' | '.join(heads)} |")
    print("| --- | --- |" + " --- |" * len(heads))
    for alpha in ALPHAS:
        z0, _ = _cyl_leaf_coeffs(alpha)
        row = [cell(alpha, z, z0) for _, z in bands(z0)]
        print(f"| {alpha} | {z0} | {' | '.join(row)} |", flush=True)


if __name__ == "__main__":
    main()
