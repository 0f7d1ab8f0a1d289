"""Summarize benchmark records: per workload and end-to-end metric, the median
over runs and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py [RECORD_DIR]    # default perfbench/out

Reads the untraced records that run.py writes, one per (workload, seed).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main() -> int:
    folder = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in sorted(folder.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    for (workload, name), vals in sorted(values.items()):
        median = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        else:
            spread = "n/a"
        print(f"{workload:14} {name:12} runs={len(vals):2} median={median:.4f} spread={spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
