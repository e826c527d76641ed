"""The measured process: one fresh interpreter per set-up sample or run.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace \
        [--seconds S]

`bench/run.py` starts it with `src` on `PYTHONPATH` and a pinned
`PYTHONHASHSEED`, and reads the JSON object it prints as its last line.
Times are reported raw and paced (see pace.py).

* ``setup``: import `fermatosc` and build the workload's fields and curves.
* ``run``: the same set-up, then passes over the workload's items, one item
  at a time, until at least S seconds have been measured (at least one
  pass).  Pass k uses the items of seed ``N`` and pass index ``k``.
* ``trace``: install the tracer, then set up and run pass 0 once.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from pace import Probe  # noqa: E402


def _run_pass(items, tracer=None):
    """Run and check every item; returns (interval, item records)."""
    records = []
    t_start = time.perf_counter()
    for item in items:
        before = tracer.counts() if tracer else None
        t0 = time.perf_counter()
        try:
            misses = workloads.run_item(item)
        except (Exception, SystemExit) as exc:  # an item that raises fails
            misses = [f"raised {type(exc).__name__}: {exc}"]
        rec = {"item": workloads.label(item), "t": (t0, time.perf_counter()),
               "misses": misses}
        if tracer:
            after = tracer.counts()
            rec["calls"] = {k: after[k] - before[k] for k in after
                            if k.endswith(".calls") and after[k] != before[k]}
        records.append(rec)
    return (t_start, time.perf_counter()), records


def _timed(probe, span) -> dict:
    return {"wall_s": probe.seconds(*span), "raw_s": span[1] - span[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    probe = Probe()
    probe.start()
    tracer = None
    t0 = time.perf_counter()
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workloads.setup(args.workload)
    setup_span = (t0, time.perf_counter())

    passes = []
    measured = 0.0
    while args.mode != "setup":
        span, recs = _run_pass(
            workloads.items(args.workload, args.seed, len(passes)), tracer)
        passes.append((span, recs))
        measured += span[1] - span[0]
        if args.mode == "trace" or measured >= args.seconds:
            break
    probe.stop()

    out = {"setup": _timed(probe, setup_span), "passes": []}
    for span, recs in passes:
        for rec in recs:
            rec.update(_timed(probe, rec.pop("t")))
        out["passes"].append({**_timed(probe, span), "items": recs})
    out["burst_median_s"] = probe.burst_median()
    if tracer:
        tracer.uninstall()
        out["missing"] = tracer.missing
        out["counts"] = tracer.counts()
        out["self_s"] = tracer.self_times()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
