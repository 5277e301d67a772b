"""Accuracy map of the two double-precision routes for scaled Whittaker W.

Prints, for each (mu, tau) and x decade, the worst error of the Kummer
series leaf (``specfun._w_series``) and of the Mellin-Barnes contour
(``specfun._w_contour_many``, one x per call) against mpmath ``whitw``,
divided by the small-x envelope 2|A| sqrt(x), A = Gamma(-2i tau) /
Gamma(1/2 - i tau - mu).  The envelope is the amplitude of the x^{+-i tau}
oscillation, so the ratio stays meaningful at the zeros of W.  A contour
cell reads ``raise(k)`` when k of its x raised a DiwtError; below x = 1e-30
the contour refuses every x.  The last cell ends at the series cut,
x = 0.05, included.

A second table covers the contour alone above the cut, x in (0.05, 500],
with errors relative to |W| itself (W has no zeros there at these orders).
Beyond x = 100 the contour refuses on its own abscissa, so those cells
read ``raise(k)`` until an abscissa at the saddle answers them.

Run from the repository root (a few minutes on one core):

    python tools/w_accuracy_map.py
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diwt.errors import DiwtError  # noqa: E402
from diwt.specfun import _W_SERIES_CUT, _w_contour_many, _w_series, log_gamma  # noqa: E402

MUS = (-0.4, 0.0, 0.45, 2.0)
TAUS = (0.25, 0.5, 1.0, 4.0, 16.0, 64.0)
EDGES = (1e-300, 1e-100, 1e-30, 1e-20, 1e-10, 1e-5, 1e-2, _W_SERIES_CUT)
PER_DECADE = 4
LARGE_EDGES = (_W_SERIES_CUT, 1.0, 10.0, 40.0, 81.0, 100.0, 140.0, 200.0, 500.0)


def reference(mu: float, tau: float, x: float) -> float:
    with mp.workdps(40):
        return float(mp.re(mp.whitw(mp.mpf(mu), mp.mpc(0, tau), mp.mpf(x))
                           * mp.exp(-mp.mpf(x) / 2)))


def envelope(mu: float, tau: float, x: float) -> float:
    log_a = log_gamma(complex(0.0, -2.0 * tau)) - log_gamma(complex(0.5 - mu, -tau))
    return 2.0 * math.exp(log_a.real + 0.5 * math.log(x))


def cells(mu: float, tau: float):
    for lo, hi in zip(EDGES[:-1], EDGES[1:]):
        xs = np.geomspace(lo, hi, PER_DECADE + 1)[:-1] if hi < EDGES[-1] \
            else np.geomspace(lo, hi, PER_DECADE)
        env = np.array([envelope(mu, tau, x) for x in xs])
        ref = np.array([reference(mu, tau, x) for x in xs])
        series = float(np.max(np.abs(_w_series(mu, tau, xs) - ref) / env))
        yield series, contour_error(mu, tau, xs, ref, env)


def large_cells(mu: float, tau: float):
    for lo, hi in zip(LARGE_EDGES[:-1], LARGE_EDGES[1:]):
        # (lo, hi]: the band's top and PER_DECADE - 1 points below it
        xs = np.geomspace(lo, hi, PER_DECADE + 1)[1:]
        ref = np.array([reference(mu, tau, x) for x in xs])
        yield contour_error(mu, tau, xs, ref, np.abs(ref))


def contour_error(mu: float, tau: float, xs, ref, scale) -> str:
    """Worst |contour - ref| / scale over xs, or raise(k) if k of the x raised."""
    worst, raised = 0.0, 0
    for x, r, e in zip(xs.tolist(), ref, scale):
        try:
            v = float(_w_contour_many(mu, complex(0.0, tau), [x])[0])
        except DiwtError:
            raised += 1
            continue
        with np.errstate(over="ignore"):  # a wrong contour value may exceed 1e308 envelopes
            worst = max(worst, abs(v - r) / e)
    return f"raise({raised})" if raised else f"{worst:.0e}"


def main() -> None:
    heads = [f"[{lo:.0e},{hi:.0e})" for lo, hi in zip(EDGES[:-1], EDGES[1:])]
    heads[-1] = heads[-1][:-1] + "]"
    print("worst |value - mpmath| / (2|A| sqrt x), series / contour, by x decade")
    print(f"| mu | tau | {' | '.join(heads)} |")
    print("| --- | --- |" + " --- |" * len(heads))
    for mu in MUS:
        for tau in TAUS:
            row = [f"{s:.0e} / {c}" for s, c in cells(mu, tau)]
            print(f"| {mu} | {tau} | {' | '.join(row)} |", flush=True)
    heads = [f"({lo:g},{hi:g}]" for lo, hi in zip(LARGE_EDGES[:-1], LARGE_EDGES[1:])]
    print()
    print("worst |value - mpmath| / |mpmath|, contour, by x band")
    print(f"| mu | tau | {' | '.join(heads)} |")
    print("| --- | --- |" + " --- |" * len(heads))
    for mu in MUS:
        for tau in TAUS:
            print(f"| {mu} | {tau} | {' | '.join(large_cells(mu, tau))} |", flush=True)


if __name__ == "__main__":
    main()
