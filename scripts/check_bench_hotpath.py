#!/usr/bin/env python3
"""Compare a bench_engine_hotpath JSON run against the committed baseline.

Usage: check_bench_hotpath.py CURRENT.json BASELINE.json [--max-regression PCT]
                              [--timed-window CSV]

Soft regression gate: prints a per-benchmark table (current vs baseline
steps/sec plus delta) and the implicit-vs-generic speedup ratios per
topology family, and *warns* on benchmarks slower than baseline by more
than the threshold (default 10%) — but exits 0 for slowdowns unless
--strict is given (shared CI machines are too noisy for a hard perf
gate). Two kinds of problem do exit 1 unconditionally, because they make
the numbers meaningless rather than merely noisy:

  * structural problems — unreadable files, baseline series missing
    from the current run (a renamed benchmark must not silently drop out
    of the tracked trajectory), or a run carrying no BM_Sharded_* series
    at all (the sharded-engine throughput trajectory is tracked);
  * debug builds — either file carrying a "dlb_build_type" context other
    than "release" (the bench binary stamps it; debug numbers are 5-20x
    off and must never be recorded or compared as a baseline). Files
    predating the stamp only get a warning.

Timings recorded on a different host are not compared: every run carries a
host fingerprint — google-benchmark's "num_cpus" plus the bench's own
"dlb_cpu_model", "dlb_isa" (widest vector ISA: avx512 / avx2 / ...) and
"dlb_thp" (transparent-huge-page mode) contexts — and when any fingerprint
field differs between the two files (a field one file lacks counts as
different), one "different host" line naming the differing fields replaces
the per-series table and its slowdown warnings. The structural exits above
still apply, and --strict still compares and fails.

Note the distinct "library_build_type" context is google-benchmark's own
build flavor (debug on stock distro packages) and is irrelevant to the
timed code; only dlb_build_type gates.

With --timed-window CSV, the roster bench_engine_hotpath --timed-window
printed is cross-checked against the google-benchmark series measuring
the same configuration (flat 2^20 cycle send-floor vs
BM_Cycle1M_SendFloor_Lazy; sharded k vs
BM_Sharded_Cycle1M_SendFloor/k/real_time). The comparison uses the
benchmark's *wall-clock* per-iteration time (real_time): the roster
measures wall clock, and so do the pooled series (UseRealTime — the CPU a
ShardedEngine burns in pool workers never accrues to the bench thread, so
CPU-time rates would be inflated by roughly the shard count).
The two harnesses then time the identical engine loop, and steps/s
diverging by more than 15% means one of the measurements is broken (a
misloaded CSV, a debug bench, a wrong roster graph) — warn loudly
(exit 1 only under --strict, like the regression gate). A CSV whose
header or rows cannot be parsed is structural and exits 1
unconditionally.
"""

import argparse
import csv as csv_mod
import json
import sys


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def check_build_type(path, doc):
    """Hard-fails on a recorded non-release build of the dlb library."""
    build = doc.get("context", {}).get("dlb_build_type")
    if build is None:
        print(f"warning: {path} predates the dlb_build_type context stamp; "
              "cannot verify it was a release build", file=sys.stderr)
        return
    if build != "release":
        sys.exit(f"error: {path} was recorded from a '{build}' build of the "
                 "dlb library; re-run with -DCMAKE_BUILD_TYPE=Release "
                 "(debug numbers must not be compared or committed)")


HOST_FINGERPRINT = ("num_cpus", "dlb_cpu_model", "dlb_isa", "dlb_thp")


def host_differences(cur_doc, base_doc):
    """Fingerprint fields whose values differ, as (field, base, current).

    A field recorded in only one of the files counts as a difference: a
    baseline that cannot show it came from this kind of host is not
    compared against it.
    """
    cur = cur_doc.get("context", {})
    base = base_doc.get("context", {})
    return [(key, base.get(key), cur.get(key)) for key in HOST_FINGERPRINT
            if base.get(key) != cur.get(key)]


def extract_rates(path, doc):
    """benchmark name -> items_per_second (engine steps/sec)."""
    rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rate = b.get("items_per_second")
        if rate:
            rates[b["name"]] = float(rate)
    if not rates:
        sys.exit(f"error: no benchmarks with items_per_second in {path}")
    return rates


def require_sharded_series(path, rates):
    """Hard-fails when a run carries no BM_Sharded_* series.

    The sharded-engine throughput trajectory is a tracked artifact like
    the implicit-vs-generic ratios; a filter or rename that silently
    drops every sharded series would otherwise go unnoticed until the
    next re-record.
    """
    if not any(name.startswith("BM_Sharded_") for name in rates):
        sys.exit(f"error: {path} carries no BM_Sharded_* series; the "
                 "sharded-engine throughput trajectory is a tracked "
                 "artifact — run bench_engine_hotpath without a filter "
                 "that excludes it")


def extract_wall_rates(doc):
    """benchmark name -> wall-clock steps/sec (1 iteration == 1 step).

    items_per_second is CPU-time based and blind to pool-worker CPU;
    real_time is what the --timed-window roster measures.
    """
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rt = b.get("real_time")
        if rt:
            rates[b["name"]] = 1e9 / (float(rt) * unit_ns[b.get("time_unit",
                                                                "ns")])
    return rates


def cross_check_timed_window(path, rates, tolerance_pct=15.0):
    """Cross-checks the --timed-window CSV against the benchmark series.

    `rates` must be wall-clock rates (extract_wall_rates). Returns the
    list of flagged divergences (possibly empty). Structural CSV
    problems (missing file, unknown header, no comparable rows) exit 1 —
    a CSV that cannot be compared is as meaningless as a missing series.
    """
    try:
        with open(path, newline="") as f:
            rows = list(csv_mod.DictReader(f))
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    required = {"series", "algorithm", "nodes", "shards", "steps_per_s"}
    if not rows or not required.issubset(rows[0].keys()):
        sys.exit(f"error: {path} is not a --timed-window CSV "
                 f"(header must contain {sorted(required)})")

    def series_for(row):
        """The google-benchmark series measuring this roster row."""
        if row["algorithm"] != "SEND(floor)" or row["nodes"] != str(1 << 20):
            return None  # the capstone demo rows have no benchmark twin
        if row["series"] == "flat":
            return "BM_Cycle1M_SendFloor_Lazy"
        if row["series"] == "sharded":
            return f"BM_Sharded_Cycle1M_SendFloor/{row['shards']}/real_time"
        return None

    flagged = []
    compared = 0
    print(f"\ntimed-window cross-check ({path}, tolerance "
          f"{tolerance_pct:.0f}%):")
    for row in rows:
        name = series_for(row)
        if name is None:
            continue
        bench = rates.get(name)
        if bench is None:
            print(f"  warning: no benchmark series {name} to compare "
                  f"against roster row {row['series']}/{row['shards']}",
                  file=sys.stderr)
            continue
        try:
            timed = float(row["steps_per_s"])
        except ValueError:
            sys.exit(f"error: {path}: unparsable steps_per_s "
                     f"{row['steps_per_s']!r}")
        compared += 1
        delta = 100.0 * (timed - bench) / bench
        mark = ""
        if abs(delta) > tolerance_pct:
            mark = "  <-- divergence"
            flagged.append(name)
        print(f"  {name:<40} bench {bench:>10.1f}/s  "
              f"timed {timed:>10.1f}/s  {delta:>+7.1f}%{mark}")
    if compared == 0:
        sys.exit(f"error: {path} has no rows comparable to the benchmark "
                 "series (expected the send-floor 2^20-cycle roster)")
    if flagged:
        print(f"warning: {len(flagged)} timed-window row(s) diverge from "
              f"the benchmark series by more than {tolerance_pct:.0f}% — "
              "the two harnesses time the same loop; check for a stale "
              "CSV or a debug bench binary", file=sys.stderr)
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--max-regression", type=float, default=10.0,
                    help="warn for benchmarks slower than baseline by more "
                         "than this percent (default 10)")
    ap.add_argument("--timed-window", metavar="CSV",
                    help="cross-check steps/s between this --timed-window "
                         "CSV and the current run's benchmark series "
                         "(warn on >15%% divergence)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when a flagged regression exists")
    args = ap.parse_args()

    cur_doc = load_doc(args.current)
    base_doc = load_doc(args.baseline)
    check_build_type(args.current, cur_doc)
    check_build_type(args.baseline, base_doc)

    cur_simd = cur_doc.get("context", {}).get("dlb_simd")
    base_simd = base_doc.get("context", {}).get("dlb_simd")
    if cur_simd or base_simd:
        print(f"kernel path: current={cur_simd or 'unknown'}  "
              f"baseline={base_simd or 'unknown'}")
        if cur_simd != base_simd:
            print("warning: kernel paths differ; deltas measure the SIMD "
                  "dispatch as much as the code under test",
                  file=sys.stderr)

    current = extract_rates(args.current, cur_doc)
    baseline = extract_rates(args.baseline, base_doc)
    require_sharded_series(args.current, current)
    require_sharded_series(args.baseline, baseline)

    missing = sorted(set(baseline) - set(current))
    if missing:
        sys.exit("error: baseline series missing from the current run: "
                 + ", ".join(missing))

    flagged = []
    differences = host_differences(cur_doc, base_doc)
    if differences and not args.strict:
        detail = "; ".join(f"{key} {base!r} in {args.baseline}, {cur!r} in "
                           f"{args.current}" for key, base, cur in differences)
        print(f"different host: timings not compared ({detail})")
    else:
        print(f"{'benchmark':<42} {'base/s':>10} {'now/s':>10} "
              f"{'delta':>8}")
        for name in sorted(baseline):
            base, now = baseline[name], current[name]
            delta = 100.0 * (now - base) / base
            mark = ""
            if delta < -args.max_regression:
                mark = "  <-- regression"
                flagged.append(name)
            print(f"{name:<42} {base:>10.1f} {now:>10.1f} "
                  f"{delta:>+7.1f}%{mark}")

    print()
    print("implicit-topology speedup (steps/sec ratio vs generic tables):")
    for family in ("Cycle", "Torus", "Hypercube"):
        imp = current.get(f"BM_StepImplicit_{family}")
        gen = current.get(f"BM_StepGeneric_{family}")
        if imp and gen:
            base_ratio = (baseline.get(f"BM_StepImplicit_{family}", 0)
                          / baseline.get(f"BM_StepGeneric_{family}", 1))
            print(f"  {family:<10} {imp / gen:5.2f}x  "
                  f"(committed baseline: {base_ratio:.2f}x)")

    if args.timed_window:
        flagged += cross_check_timed_window(args.timed_window,
                                            extract_wall_rates(cur_doc))

    if flagged:
        print(f"\nwarning: {len(flagged)} benchmark(s) flagged "
              f"(regression beyond {args.max_regression:.0f}% or "
              f"timed-window divergence; soft gate"
              f"{'; strict mode: failing' if args.strict else ''})")
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
