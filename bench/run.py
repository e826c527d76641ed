"""fermatosc benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (a directory holding `src/` and
`bench/`).  Every measurement happens in a fresh, single-threaded Python
process (`bench/worker.py`) with `PYTHONHASHSEED` pinned.  Times are in
paced seconds (`bench/pace.py`).

* ``--trace 0``: `SETUP_SAMPLES - 1` set-up-only processes, then one
  measured process that sets up (one more set-up sample) and runs passes
  over the workload's items for at least S seconds.  Prints `setup_s`
  (median of the samples), `wall_s` (median pass time) and `peak_rss_mb`.
* ``--trace 1``: one traced process that runs pass 0 with every public
  function of the traced layers wrapped.  Prints the per-layer metrics and
  `trace.overhead_s`, the traced pass time minus the median pass time of
  this checkout's untraced runs (or of one untraced pass when there are
  none yet).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A results file with the
provenance of the run is written to `bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

HASH_SEED = "0"
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

# (per-layer metric, unit); README.md says what each one should move
LAYER_METRICS = (
    [(f"{n}.calls", "count") for n in (
        "tower.mul", "tower.add", "tower.invert",
        "hompoly.evaluate", "hompoly.pullback_to_line",
        "hompoly.compose_matrix", "hompoly.branch_series",
        "hompoly.univariate_resultant", "hompoly.resultant_order",
        "hompoly.int_mult",
        "fermat.sextactic_points", "fermat.osculating_conic_closed",
        "fermat.hyperosculating_conic", "fermat.osculating_conic_cayley",
        "arrangements.census", "arrangements.build",
        "symmetry.points_on_line",
        "symmetry.verify_invariant_intersection")]
    + [(f"{n}.self_s", "s") for n in (
        "tower.mul", "tower.add", "tower.invert", "tower.field_build",
        "hompoly.evaluate", "hompoly.pullback_to_line",
        "hompoly.compose_matrix", "hompoly.branch_series",
        "hompoly.univariate_resultant", "hompoly.resultant_order",
        "fermat.sextactic_points", "fermat.osculating_conic_closed",
        "arrangements.census", "arrangements.collinear_sextactic",
        "symmetry.points_on_line", "symmetry.tangent_concurrency",
        "symmetry.conic_common_points",
        "symmetry.verify_invariant_intersection",
        "cli.main")]
    + [("tower.max_coeff_bits", "bits"),
       ("hompoly.int_mult.lifts_per_call", "ratio"),
       ("hompoly.resultant_order.attempts_per_call", "ratio")]
    + [(f"cli.all.d{d}.wall_s", "s") for d in workloads.DEGREES["paper-suite"]]
    + [("trace.overhead_s", "s")]
)


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, mode: str, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(args) -> dict:
    probe = ("import importlib.util as u, json, mpmath, numpy;"
             "print(json.dumps({'gmpy2': u.find_spec('gmpy2') is not None,"
             "'numpy': numpy.__version__, 'mpmath': mpmath.__version__}))")
    libs = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True,
        text=True, check=True, timeout=60).stdout)
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": _digest(SRC / "fermatosc"),
        "bench_sha256": _digest(BENCH),
        "python": platform.python_version(),
        "gmpy2": libs["gmpy2"],
        "numpy": libs["numpy"],
        "mpmath": libs["mpmath"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": {w: len(workloads.items(w, args.seed))
                           for w in workloads.WORKLOADS},
        "pythonhashseed": HASH_SEED,
    }


def _untraced_median(args, prov: dict):
    """Median pass time of this checkout's untraced runs of the workload
    with the same program and benchmark sources, or None when there are
    none yet."""
    same = ("source_sha256", "bench_sha256")
    walls = []
    for path in RESULTS.glob(f"{args.workload}.seed*.trace0.json"):
        try:
            res = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if all(res["provenance"].get(k) == prov[k] for k in same):
            walls.append(res["metrics"]["wall_s"]["value"])
    return statistics.median(walls) if walls else None


def _failures(run: dict) -> list:
    return [{"item": rec["item"], "misses": rec["misses"]}
            for p in run["passes"] for rec in p["items"] if rec["misses"]]


def _attempted(run: dict) -> int:
    return sum(len(p["items"]) for p in run["passes"])


def measure(args) -> dict:
    samples = [_worker(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(args, "run", args.seconds)
    samples.append(run)
    setups = [w["setup"]["wall_s"] for w in samples]
    walls = [p["wall_s"] for p in run["passes"]]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    detail = {
        "setup_samples_s": setups,
        "setup_samples_raw_s": [w["setup"]["raw_s"] for w in samples],
        "pass_wall_s": walls,
        "pass_wall_raw_s": [p["raw_s"] for p in run["passes"]],
        "burst_median_s": run["burst_median_s"],
        "items": [[(r["item"], r["wall_s"], r["raw_s"]) for r in p["items"]]
                  for p in run["passes"]],
    }
    failures = _failures(run)
    return {"attempted": _attempted(run), "failed": len(failures),
            "failures": failures, "metrics": metrics, "detail": detail}


def trace(args, prov) -> dict:
    runs = [_worker(args, "trace")]
    reference = _untraced_median(args, prov)
    if reference is None:
        runs.append(_worker(args, "run"))
        reference = runs[1]["passes"][0]["wall_s"]
    traced = runs[0]["passes"][0]
    counts = runs[0]["counts"]
    values = {**counts, **runs[0]["self_s"]}
    for total in ("hompoly.int_mult.lifts",
                  "hompoly.resultant_order.attempts"):
        calls = counts[total.rsplit(".", 1)[0] + ".calls"]
        values[f"{total}_per_call"] = counts[total] / calls if calls else 0.0
    item_walls = {r["item"]: r["wall_s"] for r in traced["items"]}
    for d in workloads.DEGREES["paper-suite"]:
        values[f"cli.all.d{d}.wall_s"] = item_walls.get(f"all.d{d}", 0.0)
    values["trace.overhead_s"] = traced["wall_s"] - reference
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS}
    detail = {"missing": runs[0]["missing"], "traced_wall_s": traced["wall_s"],
              "untraced_reference_s": reference, "counts": counts,
              "item_calls": [(r["item"], r["calls"]) for r in traced["items"]]}
    failures = [f for r in runs for f in _failures(r)]
    return {"attempted": sum(_attempted(r) for r in runs),
            "failed": len(failures), "failures": failures,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fermatosc" / "__init__.py").is_file():
        return _fail(f"no fermatosc sources under {SRC}; run from the root "
                     "of a source checkout")
    try:
        prov = _provenance(args)
        # compile the sources once, so no set-up sample pays for it
        subprocess.run([sys.executable, "-c", "import fermatosc.cli"],
                       cwd=ROOT, env=_env(), check=True,
                       timeout=WORKER_TIMEOUT_S)
        res = trace(args, prov) if args.trace else measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        return _fail(str(exc))
    for f in res["failures"]:
        print(f"bench: FAILED {f['item']}: {'; '.join(f['misses'])}",
              file=sys.stderr)
    if res["detail"].get("missing"):
        print(f"bench: traced names missing from the program: "
              f"{', '.join(res['detail']['missing'])}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    res["fail_ratio"] = res["failed"] / res["attempted"]
    out.write_text(json.dumps({"provenance": prov, **res}, indent=1) + "\n")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
