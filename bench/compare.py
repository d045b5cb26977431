"""Compare two sets of benchmark records (the JSON files ``run.py`` writes).

Usage: python3 bench/compare.py BASE CHANGE

BASE and CHANGE are record files or directories of them.  For each workload
and trace mode, prints every metric's median on both sides and the relative
change.  Records measured on platforms whose fingerprints differ (CPU, core
count, longdouble format, Python/numpy/mpmath versions) are marked NOT
COMPARABLE, with the keys that differ.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import platform_info


def load(path: str) -> list[dict]:
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    out = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if "metrics" in rec and "platform" in rec:
            out.append(rec)
    return out


def main(base_path: str, change_path: str) -> int:
    base, change = load(base_path), load(change_path)
    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in groups:
        a = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"== {workload} trace={trace}  runs: {len(a)} vs {len(b)}")
        if not a or not b:
            continue
        differ = sorted({k for ra in a for rb in b
                         for k in platform_info.mismatches(ra["platform"], rb["platform"])})
        if differ:
            print(f"   NOT COMPARABLE: platforms differ in {', '.join(differ)}")
            continue
        for name, m in a[0]["metrics"].items():
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
            print(f"   {name:45s} {ma:12.6g} {mb:12.6g} {rel:>8s} {m['unit']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
