"""The benchmark's workloads: seeded inputs and the correctness contract.

A workload is a fixed cycle of cells.  A cell is one user request, except
in ``coeff-profile``: there it is a ``coeff`` request and a ``roundtrip``
request on b*sin(k u) for k = 1 and again for k = 2, the two at different
mu, so that every cell covers both harmonics and both orders and costs
about the same.  The benchmark seed draws the values inside each
cell and nothing else, so every run walks the same cells in the same order.

Each cell's outputs are checked against the acceptance contracts:

* ``invert``        criterion 1: |value - a_n| <= max(1e-3, error_bound);
* ``coeff-profile`` criterion 2: 1e-6 relative at the peak index, at most
                    1e-6 * |peak| off it, and every roundtrip row within
                    1e-4 relative with ``overall_pass``;
* ``audit``         every identity report passes, re-derived from its sides.

A nonzero exit code (the CLI's mapping of a DiwtError) or an exception
fails every item of the request.  ``corrupt=True`` swaps in a deliberately
wrong reference so the self-test can show the gate counts failures.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

WORKLOADS = ("invert", "coeff-profile", "audit")
INVERT_MUS = (-0.25, 0.0, 0.25)
INVERT_TOL = 1e-3
PROFILE_MUS = (0.0, 0.25)
PROFILE_KS = (1, 2)
PEAK_REL_TOL = 1e-6
SYNTH_REL_TOL = 1e-4
SYNTH_POINTS = 5
AUDIT_CHECKS = 8
ONE_SIDED = ("bessel-index-bound", "whittaker-index-bound")


class Item:
    """One checked output: pass flag and error over its contract tolerance."""

    __slots__ = ("ok", "ratio")

    def __init__(self, ok: bool, ratio: float):
        self.ok = bool(ok) and math.isfinite(ratio)
        self.ratio = ratio if math.isfinite(ratio) else math.inf


class Cell:
    """Requests of one cell plus what the checker needs to judge them."""

    def __init__(self, label: str, requests, expect: dict, items: int):
        self.label = label
        self.requests = requests      # [(command, config), ...]
        self.expect = expect
        self.items = items


def _signed(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))


def make_cells(workload: str, seed: int, count: int) -> list:
    """The first `count` cells of the workload's cycle, values drawn from seed."""
    return list(itertools.islice(iter_cells(workload, seed), count))


def iter_cells(workload: str, seed: int):
    """The workload's cells in order, without end, values drawn from seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    for i in itertools.count():
        if workload == "invert":
            mu = INVERT_MUS[i % len(INVERT_MUS)]
            coeffs = [_signed(rng) for _ in range(3)]
            cfg = {"mu": mu, "coefficients": coeffs, "n_range": [1, 3]}
            yield Cell(f"mu={mu}", [("invert", cfg)], {"coefficients": coeffs}, 3)
        elif workload == "coeff-profile":
            requests, peaks = [], []
            for j, k in enumerate(PROFILE_KS):
                mu = PROFILE_MUS[(i + j) % len(PROFILE_MUS)]
                b = _signed(rng)
                psi = {"sine": [0.0] * (k - 1) + [b]}
                requests += [("coeff", {"mu": mu, "psi": psi, "n_range": [1, 4]}),
                             ("roundtrip", {"theorem": 2, "mu": mu, "psi": psi})]
                peaks.append((k, 4.0 ** (1.0 - mu) * math.pi ** 2 * b / math.sinh(math.pi * k)))
            label = ",".join(f"k={k}:mu={cfg['mu']}"
                             for k, (_, cfg) in zip(PROFILE_KS, requests[::2]))
            yield Cell(label, requests, {"peaks": peaks}, len(PROFILE_KS) * (4 + SYNTH_POINTS))
        else:
            cfg = {"selection": "all", "trials": 1,
                   "seed": int(rng.integers(0, 2 ** 63))}
            yield Cell("all", [("identity", cfg)], {}, AUDIT_CHECKS)


def mu_of(cell: Cell):
    """The order a cell's requests run at, or None for the audit."""
    cfg = cell.requests[0][1]
    return cfg.get("mu")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def failed_items(n: int) -> list:
    return [Item(False, math.inf) for _ in range(n)]


def check_invert(cell: Cell, codes, texts, corrupt: bool):
    coeffs = cell.expect["coefficients"]
    if codes[0] != 0:
        return failed_items(cell.items), []
    rows = {int(r["n"]): r for r in _csv_rows(texts[0])}
    items, bounds = [], []
    for n, a in enumerate(coeffs, 1):
        r = rows.get(n)
        if r is None:
            items.append(Item(False, math.inf))
            continue
        value, bound = float(r["value"]), float(r["error_bound"])
        ref = a + 1.0 if corrupt else a
        tol = max(INVERT_TOL, bound)
        err = abs(value - ref)
        items.append(Item(err <= tol, err / tol))
        bounds.append(bound)
    return items, bounds


def check_coeff_profile(cell: Cell, codes, texts, manifests, corrupt: bool):
    items, bounds = [], []
    for j, (k, peak) in enumerate(cell.expect["peaks"]):
        pair = slice(2 * j, 2 * j + 2)
        got, claims = _check_profile(k, peak, codes[pair], texts[pair], manifests[pair],
                                     corrupt)
        items += got
        bounds += claims
    return items, bounds


def _check_profile(k: int, peak: float, codes, texts, manifests, corrupt: bool):
    items, bounds = [], []
    if codes[0] != 0:
        items += failed_items(4)
    else:
        rows = {int(r["n"]): float(r["value"]) for r in _csv_rows(texts[0])}
        for n in range(1, 5):
            # relative 1e-6 at the peak and absolute 1e-6 * |peak| off it are
            # the same inequality against the closed-form reference
            ref = (peak if n == k else 0.0) + (peak if corrupt else 0.0)
            ratio = abs(rows.get(n, math.nan) - ref) / (PEAK_REL_TOL * abs(peak))
            items.append(Item(ratio <= 1.0, ratio))
        bounds.append(_quad_tolerance(manifests[0]))
    if codes[1] != 0:
        items += failed_items(SYNTH_POINTS)
        return items, bounds
    doc = json.loads(texts[1])
    rows = doc["rows"]
    for r in rows[:SYNTH_POINTS]:
        want = r["profile"] + (1.0 if corrupt else 0.0)
        rel = abs(r["synthesis"] - want) / abs(want) if want else math.inf
        ratio = rel / SYNTH_REL_TOL
        items.append(Item(r["pass"] and doc["overall_pass"] and ratio <= 1.0, ratio))
    items += failed_items(SYNTH_POINTS - len(rows[:SYNTH_POINTS]))
    bounds.append(_quad_tolerance(manifests[1]))
    return items, bounds


def _quad_tolerance(manifest: str) -> float:
    quad = json.loads(manifest)["quad"]
    return max(float(quad["abs_tol"]), float(quad["rel_tol"]))


def check_audit(cell: Cell, codes, texts, corrupt: bool):
    if codes[0] not in (0, 1):
        return failed_items(cell.items), []
    reports = json.loads(texts[0])
    items, bounds = [], []
    for rep in reports[:AUDIT_CHECKS]:
        lhs, rhs, tol = float(rep["lhs"]), float(rep["rhs"]), float(rep["tolerance"])
        if corrupt:
            # far enough off that both the abs and the rel test fail
            rhs -= 10.0 * (1.0 + abs(lhs) + abs(rhs))
        if rep["check_id"] in ONE_SIDED:
            abs_err = max(0.0, lhs - rhs)
            rel_err = abs_err / abs(rhs) if rhs else abs_err
        else:
            abs_err = abs(lhs - rhs)
            scale = max(abs(lhs), abs(rhs))
            rel_err = abs_err / scale if scale else 0.0
        ratio = min(abs_err, rel_err) / tol
        items.append(Item(rep["pass"] and ratio <= 1.0, ratio))
        bounds.append(tol)
    items += failed_items(AUDIT_CHECKS - len(items))
    if len({rep["check_id"] for rep in reports}) != AUDIT_CHECKS:
        items = failed_items(AUDIT_CHECKS)
    return items, bounds


def check(workload: str, cell: Cell, codes, texts, manifests, corrupt=False):
    """(items, accuracy claims) for one executed cell."""
    if workload == "invert":
        return check_invert(cell, codes, texts, corrupt)
    if workload == "coeff-profile":
        return check_coeff_profile(cell, codes, texts, manifests, corrupt)
    return check_audit(cell, codes, texts, corrupt)

