"""uaforge benchmark: run one workload for a fixed time, gate its outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload registry-n3 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``registry-n3`` -- ``claims.run_all(n=3)``, one fresh interpreter per pass.
* ``pp-query-n4`` -- phi(k,4) on A4, one ``eval_exists_decomposed`` call per
  (x, y) pair, six pairs per pass drawn from the seed.
* ``structure-n4`` -- the registry's n=4 subalgebra, congruence, hom-search
  and HS checks on A4 and B4, with no solver calls.

The loop is closed with one client: this process starts one worker process
(``worker.py``) at a time and waits for it.  Each worker imports the library,
builds its inputs (timed as set-up) and runs passes for its share of the run;
registry workers run exactly one pass.  With ``--trace 1`` every other worker
wraps the library's layer functions and records spans; the untraced workers
in between give the tracing overhead.

Metrics with ``--trace 0``: ``setup_s``, the median over workers of import
plus input construction; ``pass_s``, the fastest untraced pass; and
``peak_rss_mb``, the largest peak resident set of any worker.  The fastest
pass, not the median, because on a shared machine interference only ever
adds time, in waves lasting from seconds to minutes (one fixed structure-n4
pass measured 1.6-3.0 s within 150 s on a 2-vCPU VM); the record keeps
every pass with its median and quartiles.  With ``--trace 1``: per traced
pass, ``<module>.<function>.calls`` and ``.self_s`` for every layer in
``tracer.TARGETS``, the extras in ``tracer.EXTRAS``, the inclusive time of
every claim as ``claims.<CLAIM-ID>.total_s``, and ``trace.overhead_s``, the
fastest traced minus the fastest untraced pass of the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(versions, seed, every pass, the drawn queries, worker failures) goes to
``perfbench/out/``.  Exit code 0 when every output passed the gate, 1 when
one did not, 2 on a usage error or when the checkout has no library.
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
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"

WORKLOADS = ("registry-n3", "pp-query-n4", "structure-n4")
# worker processes per run for the workloads that run several passes per
# process: each one sets up afresh, so set-up time is a median of these
PROCESSES_PER_RUN = 4
RUN_LIMIT_S = 170  # every worker is killed by then, so a run ends within 180 s


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    sys.path.insert(0, str(HERE))
    from tracer import EXTRAS, span_names

    with open(HERE / "expected.json") as fh:
        claim_ids = list(json.load(fh)["registry-n3"])
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in EXTRAS:
        units[name] = "count" if name.endswith(".maps") else "ratio"
    for cid in claim_ids:
        units[f"claims.{cid}.total_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def run_worker(args, index: int, first_pass: int, slice_s: float, traced: bool, budget: float):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--first-pass", str(first_pass), "--slice", f"{slice_s:.6f}",
        "--trace", "1" if traced else "0",
    ]
    # one thread per numeric library: the loop has one client on a 2-core box
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker {index} killed after {budget:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"worker {index} printed no result: {lines[-1][:200]}"


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uaforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def layer_metrics(workers: list[dict], units: dict[str, str]) -> dict[str, float]:
    traced = [w for w in workers if w["traced"]]
    untraced = [w for w in workers if not w["traced"]]
    passes = sum(len(w["passes"]) for w in traced)
    totals: dict[str, dict[str, float]] = {}
    extras = {"maps": 0, "iso_true": 0, "principal_new": 0}
    for w in traced:
        for name, stats in w["layers"].items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += stats[key]
        for key in extras:
            extras[key] += w["extras"][key]

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    values = {}
    for metric in units:
        if metric.startswith("claims."):
            values[metric] = totals.get(metric[: -len(".total_s")], {}).get("total_s", 0.0) / passes
        elif metric.endswith(".calls"):
            values[metric] = calls(metric[: -len(".calls")]) / passes
        elif metric.endswith(".self_s"):
            values[metric] = totals.get(metric[: -len(".self_s")], {}).get("self_s", 0.0) / passes
    values["analysis.homs.maps"] = extras["maps"] / passes
    iso = calls("analysis.is_isomorphic")
    values["analysis.is_isomorphic.true_ratio"] = extras["iso_true"] / iso if iso else 0.0
    pc = calls("congruences.principal_congruence")
    values["congruences.principal_congruence.distinct_ratio"] = (
        extras["principal_new"] / pc if pc else 0.0
    )
    values["trace.overhead_s"] = (
        min(p["seconds"] for w in traced for p in w["passes"])
        - min(p["seconds"] for w in untraced for p in w["passes"])
    )
    return values


def pass_stats(seconds: list[float]) -> dict:
    """Sample count and order statistics of pass times, for the record."""
    if not seconds:
        return {"count": 0}
    q = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else [seconds[0]] * 3
    return {"count": len(seconds), "min": min(seconds), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(seconds)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "uaforge" / "__init__.py").is_file():
        print(f"no library at {ROOT / 'src' / 'uaforge'}: run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    deadline = started + args.seconds
    workers: list[dict] = []
    errors: list[str] = []
    passes_done = 0
    index = 0
    while True:
        now = time.perf_counter()
        kinds = {w["traced"] for w in workers}
        if now >= deadline and (not args.trace or len(kinds) == 2):
            break
        if errors or now - started > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and index % 2 == 0
        slice_s = min(args.seconds / PROCESSES_PER_RUN, max(deadline - now, 0.0))
        result, error = run_worker(args, index, passes_done, slice_s, traced,
                                   RUN_LIMIT_S - (now - started))
        index += 1
        if error:
            errors.append(error)
            continue
        workers.append(result)
        passes_done += len(result["passes"])

    passes = [p for w in workers for p in w["passes"]]
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failures = [f for p in passes for f in p["failures"]] + [["worker", e] for e in errors]
    failed = len(failures)
    correct = failed == 0 and bool(passes)

    untraced = [p["seconds"] for w in workers if not w["traced"] for p in w["passes"]]
    traced = [p["seconds"] for w in workers if w["traced"] for p in w["passes"]]
    metrics: dict[str, dict] = {}
    if not args.trace and workers:
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
            # the fastest pass: interference on a shared machine only adds time
            "pass_s": {"value": min(untraced), "unit": "s"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "unit": "MB"},
        }
    elif args.trace and len({w["traced"] for w in workers}) == 2:
        units = layer_metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layer_metrics(workers, units).items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        **source_identity(),
        "wall_s": time.perf_counter() - started,
        "passes": len(passes),
        "pass_s": {"untraced": pass_stats(untraced), "traced": pass_stats(traced)},
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:50],
        "metrics": metrics,
        "workers": workers,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for f in failures[:10]:
        print(f"FAIL {f[0]}: {f[1]}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {failed}/{attempted} failed; "
          f"record {out_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
