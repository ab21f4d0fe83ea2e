#!/usr/bin/env python3
"""Compares two sets of perfbench result records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are results directories (run.py keeps one record per run in
<build dir>/results/) or single record files. Records are grouped by
(workload, size, trace); each group prints the median of every metric on
both sides and the relative change. End-to-end metrics whose median got
worse by more than their BENCHMARK.json bound are flagged. A group whose
records carry different host fingerprints is not compared: the numbers
of two hosts say nothing about the code.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    groups = {}
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["size"], rec["trace"])
        groups.setdefault(key, []).append(rec)
    return groups


def fingerprints(records):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in records}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    regressions = 0
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        print("== %s size=%s trace=%d (%d vs %d runs)" % (key + (len(b), len(n))))
        fps = fingerprints(b) | fingerprints(n)
        if len(fps) > 1:
            print("  WARNING: host fingerprints differ; comparison skipped")
            for fp in sorted(fps):
                print("    " + fp)
            continue
        for name in sorted(set(b[0]["metrics"]) & set(n[0]["metrics"])):
            bv = statistics.median(r["metrics"][name]["value"] or 0.0 for r in b)
            nv = statistics.median(r["metrics"][name]["value"] or 0.0 for r in n)
            change = (nv - bv) / bv if bv else 0.0
            flag = ""
            if name in e2e:
                worse = -change if e2e[name]["better"] == "higher" else change
                if worse > e2e[name]["bound"]:
                    flag = "  REGRESSION (bound %.2f)" % e2e[name]["bound"]
                    regressions += 1
            print("  %-32s %14.6g -> %14.6g %+8.1f%% %s%s" % (
                name, bv, nv, 100 * change, b[0]["metrics"][name]["unit"], flag))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
