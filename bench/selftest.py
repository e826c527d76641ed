"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py --workload NAME [--seed N]

Run from the root of a source checkout.  It checks that

* two traced runs on one seed give identical exact counters (every
  ``*.calls``, every ``*_per_call`` and ``tower.max_coeff_bits``);
* a traced name that the program no longer has is reported as missing and
  does not stop the run;
* on ``paper-suite``, ``hompoly.resultant_order.calls`` is 0 and the d = 6
  item makes 546 ``osculating_conic_closed`` calls.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _exact(name: str) -> bool:
    return (name.endswith(".calls") or name.endswith("_per_call")
            or name == "tower.max_coeff_bits")


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_missing_name() -> list:
    """A target absent from the program is listed, not fatal."""
    code = ("import json, tracer;"
            "tracer.TARGETS['symmetry.gone'] = ('fermatosc.symmetry', 'gone');"
            "t = tracer.Tracer(); t.install(); t.uninstall();"
            "print(json.dumps(t.missing))")
    env = dict(os.environ, PYTHONPATH=f"{run.SRC}{os.pathsep}{BENCH}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    if proc.returncode != 0:
        return [f"tracer failed on a missing name: {proc.stderr[-500:]}"]
    missing = json.loads(proc.stdout)
    return [] if missing == ["symmetry.gone"] else [f"missing = {missing}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=run.workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    problems = check_missing_name()
    first = _traced(args.workload, args.seed)
    second = _traced(args.workload, args.seed)
    for res in (first, second):
        if not res["correct"]:
            problems.append(f"{res['failed']} items failed")
    for name, m in first["metrics"].items():
        if _exact(name) and m["value"] != second["metrics"][name]["value"]:
            problems.append(f"{name}: {m['value']} then "
                            f"{second['metrics'][name]['value']}")
    if args.workload == "paper-suite":
        calls = first["metrics"]["hompoly.resultant_order.calls"]["value"]
        if calls != 0:
            problems.append(f"resultant_order.calls = {calls}, want 0")
        saved = json.loads((run.RESULTS / f"paper-suite.seed{args.seed}"
                            ".trace1.json").read_text())
        d6 = dict(saved["detail"]["item_calls"])["all.d6"]
        closed = d6.get("fermat.osculating_conic_closed.calls")
        if closed != 546:
            problems.append(f"d=6 osculating_conic_closed.calls = {closed}, "
                            "want 546")
    for p in problems:
        print(f"selftest: FAIL {p}")
    print(f"selftest {args.workload} seed {args.seed}: "
          f"{'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
