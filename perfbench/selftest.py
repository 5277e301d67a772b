"""Self-test of the benchmark harness at minimal size.

    python3 perfbench/selftest.py [--determinism WORKLOAD ...]

Checks, each printed as PASS/FAIL:

1. an untraced run prints every end-to-end metric with its name and unit;
2. a traced run prints every per-layer metric whose boundary exists;
3. a deliberately wrong reference is counted as failures, end to end on the
   audit workload and through the checkers of the other two workloads;
4. two traced runs with the same seed give identical counts (calls, points,
   evals, nonconverged and the cache counts); any count that differs is
   listed, because it cannot support a claim;
5. BENCHMARK.json, when present, declares exactly the metrics printed;
6. without the diwt sources the benchmark exits nonzero and prints no result.

Runs use a fixed cell count, so the whole test takes under a minute with
the default determinism workload (audit).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import run
import workloads

RUN = Path(run.__file__).resolve()
COUNT_SUFFIXES = (".calls", ".points", ".evals", ".nonconverged", ".lookups",
                  ".hit_ratio", ".kernel_evals", ".f_evals", ".reports",
                  ".evals_per_integral")
# counts that may differ between identical runs, listed but not gated:
# manifests record the wall time, so output sizes vary by a few bytes
LISTED_ONLY = (".bytes_out",)


def _run(workload, seed, trace, cells, *extra, script=RUN, cwd=run.ROOT):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--cells", str(cells), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(cwd), timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def _metrics_ok(result, declared, absent=()) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result["metrics"]
    for name, unit in declared:
        if name not in got:
            if not any(name.startswith(a + ".") or name == a for a in absent):
                problems.append(f"missing {name}")
            continue
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit \
                or not isinstance(m["value"], (int, float)):
            problems.append(f"malformed {name}: {m}")
    extra = set(got) - {n for n, _ in declared}
    if extra:
        problems.append(f"undeclared {sorted(extra)}")
    return problems


def _verdict(label, problems) -> bool:
    print(f"{'PASS' if not problems else 'FAIL'}  {label}"
          + ("" if not problems else ": " + "; ".join(problems)))
    return not problems


def _checker_gate() -> list:
    """The invert and coeff-profile checkers on synthetic outputs."""
    problems = []
    inv = workloads.make_cells("invert", 1, 1)[0]
    a = inv.expect["coefficients"]
    text = "n,value,error_bound\n" + "".join(
        f"{n},{v!r},1e-9\n" for n, v in enumerate(a, 1))
    for corrupt, want_failed in ((False, 0), (True, 3)):
        items, _ = workloads.check("invert", inv, [0], [text], [""], corrupt)
        if sum(not it.ok for it in items) != want_failed:
            problems.append(f"invert corrupt={corrupt}")
    items, _ = workloads.check("invert", inv, [3], [""], [""])
    if any(it.ok for it in items):
        problems.append("invert nonzero exit code not failed")

    prof = workloads.make_cells("coeff-profile", 1, 1)[0]
    rows = [{"x": x, "profile": 1.0 + x, "synthesis": 1.0 + x, "rel_error": 0.0,
             "pass": True} for x in (0.5, 1.0, 2.0, 5.0, 10.0)]
    rt = json.dumps({"theorem": 2, "rows": rows, "overall_pass": True})
    man = json.dumps({"quad": {"abs_tol": 1e-14, "rel_tol": 1e-12}})
    texts = []
    for k, peak in prof.expect["peaks"]:
        texts += ["n,value\n" + "".join(
            f"{n},{(peak if n == k else 0.0)!r}\n" for n in range(1, 5)), rt]
    for corrupt, want_failed in ((False, 0), (True, prof.items)):
        items, _ = workloads.check("coeff-profile", prof, [0] * len(texts), texts,
                                   [man] * len(texts), corrupt)
        if sum(not it.ok for it in items) != want_failed:
            problems.append(f"coeff-profile corrupt={corrupt}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark harness self-test")
    p.add_argument("--determinism", nargs="*", default=["audit"],
                   help="workloads whose traced counts are compared across two runs")
    p.add_argument("--cells", type=int, default=2)
    args = p.parse_args(argv)
    ok = True

    code, detail, res = _run("audit", 3, 0, 1)
    ok &= _verdict("end-to-end metrics printed with name and unit",
                   ["run failed"] if res is None else
                   _metrics_ok(res, run.END_TO_END) + ([] if res["correct"] else ["incorrect"]))

    code, detail, res = _run("audit", 3, 1, 1)
    ok &= _verdict("per-layer metrics printed with name and unit",
                   ["run failed"] if res is None else
                   _metrics_ok(res, run.PER_LAYER, detail["absent_boundaries"]))

    code, detail, res = _run("audit", 3, 0, 1, "--corrupt-reference")
    gate = ["run failed"] if res is None else (
        [] if res["failed"] == res["attempted"] > 0 and not res["correct"]
        else [f"failed {res['failed']} of {res['attempted']}"])
    ok &= _verdict("wrong reference counted as failure", gate + _checker_gate())

    for name in args.determinism:
        runs = [_run(name, 5, 1, args.cells) for _ in range(2)]
        if any(r[2] is None for r in runs):
            ok &= _verdict(f"count determinism ({name})", ["run failed"])
            continue
        a, b = (r[2]["metrics"] for r in runs)
        differ = {k: f"{k}: {a[k]['value']} != {b.get(k, {}).get('value')}"
                  for k in a if k.endswith(COUNT_SUFFIXES + LISTED_ONLY)
                  and a[k]["value"] != b.get(k, {}).get("value")}
        ok &= _verdict(f"count determinism ({name}, {args.cells} cells)",
                       [d for k, d in differ.items() if not k.endswith(LISTED_ONLY)])
        for k, d in differ.items():
            if k.endswith(LISTED_ONLY):
                print(f"NOTE  differs between identical runs, supports no claim: {d}")

    spec_path = run.ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        problems = []
        for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = [(m["name"], m["unit"]) for m in spec[key]]
            if listed != list(declared):
                problems.append(f"{key} differs from run.py")
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            problems.append("workloads differ from workloads.py")
        ok &= _verdict("BENCHMARK.json matches the printed metrics", problems)

    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, res = _run("audit", 1, 0, 0, script=bare / run.HERE.name / RUN.name,
                            cwd=bare)
        ok &= _verdict("no sources: nonzero exit and no result",
                       [] if code != 0 and res is None else [f"exit {code}"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
