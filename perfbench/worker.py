"""One benchmark process: import the library, build inputs, run timed passes.

Started by run.py in a fresh interpreter, so nothing the library memoizes
(the catalog, formula caches) carries over from another process.  Prints
one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--slice", type=float, required=True,
                    help="seconds of passes to run; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    t0 = time.perf_counter()
    import uaforge  # noqa: F401  (timed as part of set-up)
    import workloads

    if Path(uaforge.__file__).resolve().parent != ROOT / "src" / "uaforge":
        print(f"imported uaforge from {uaforge.__file__}, not from this checkout", file=sys.stderr)
        return 2
    with open(ROOT / "perfbench" / "expected.json") as fh:
        expected = json.load(fh)
    work = workloads.WORKLOADS[args.workload](args.seed, expected)
    work.setup()
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    passes = []
    end = time.perf_counter() + args.slice
    index = args.first_pass
    while True:
        start = time.perf_counter()
        try:
            rows = work.run_pass(index)
        except Exception as exc:  # a pass that raises fails every operation it holds
            rows = [(f"pass {index}", False, f"{type(exc).__name__}: {exc}")] * work.operations
        passes.append({
            "index": index,
            "seconds": time.perf_counter() - start,
            "attempted": len(rows),
            "failures": [[op, detail] for op, ok, detail in rows if not ok],
        })
        index += 1
        if work.passes_per_process == len(passes) or time.perf_counter() >= end:
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "traced": bool(tracer),
    }
    if work.name == "pp-query-n4":
        out["drawn"] = work.drawn
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.totals()
        out["extras"] = {"maps": tracer.maps, "iso_true": tracer.iso_true,
                         "principal_new": tracer.principal_new}
        tracer.save(ROOT / "perfbench" / "out" /
                    f"spans-{args.workload}-seed{args.seed}-pass{args.first_pass}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
