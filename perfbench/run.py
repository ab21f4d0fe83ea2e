#!/usr/bin/env python3
"""Runs one perfbench workload and prints its report.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny] [--refs FILE]

Builds the bench binary from source (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs it, checks
its state hashes against references.json, and prints a human-readable
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. A per-layer metric of a layer the workload
does not exercise reads 0. The full record, with the host fingerprint, is
kept under the build directory's results/ for compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers (metric-name prefixes) each workload exercises. Their metrics must
# come from the bench binary; the other layers' metrics read 0.
LAYERS = {
    "service-overload": {"admission", "core", "pool", "snapshot", "graph",
                         "markov", "obs", "host"},
    "cycle-serial": {"core", "graph", "markov", "obs", "host"},
    "torus-sharded": {"shard", "pool", "graph", "markov", "obs", "host"},
    "table1-sweep": {"sweep", "graph", "markov", "obs", "host"},
}
# Workloads whose state hash must match the references. service-overload
# only prints its hash: a change may legitimately reorder admission.
GATED = {"cycle-serial", "torus-sharded", "table1-sweep"}
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then brings the bench binary up to date."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               # No compiler cache: it would write outside the checkout.
               "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "--parallel", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def fingerprint(binary_build):
    """What a result depends on besides the code."""
    model, flags = "unknown", set()
    for line in read_text("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model == "unknown":
            model = value.strip()
        elif key.strip() == "flags" and not flags:
            flags = set(value.split())
    thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled")
    thp = thp[thp.find("[") + 1:thp.find("]")] if "[" in thp else "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "simd_enabled": binary_build.get("simd"),
        "thp": thp,
        "build_type": binary_build.get("type"),
        "compiler": binary_build.get("compiler"),
    }


def check_references(raw, size, refs_path):
    """Compares the bench binary's hashes with the stored ones for this seed.
    Returns (attempted, failed, notes)."""
    if raw["workload"] not in GATED:
        return 0, 0, ["hashes not gated for this workload"]
    with open(refs_path) as f:
        refs = json.load(f)
    expected = refs.get(raw["workload"], {}).get(size, {}).get(str(raw["seed"]))
    if expected is None:
        return 0, 0, ["no reference for seed %d" % raw["seed"]]
    attempted = failed = 0
    notes = []
    for name, want in sorted(expected.items()):
        got = raw["hashes"].get(name)
        attempted += 1
        if got != want:
            failed += 1
            notes.append("reference mismatch %s: got %s, want %s" % (name, got, want))
        else:
            notes.append("reference match %s" % name)
    return attempted, failed, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--refs", default=os.path.join(HERE, "references.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    if not build(out):
        log("perfbench: build failed")
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "dlb_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: dlb_perfbench timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: dlb_perfbench exited with code %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    ref_attempted, ref_failed, notes = check_references(raw, args.size, args.refs)
    attempted = raw["attempted"] + ref_attempted
    failed = raw["failed"] + ref_failed
    error_rate = failed / attempted if attempted else 1.0
    produced = dict(raw["metrics"])
    produced["error_rate"] = {"value": error_rate, "unit": "fraction"}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        name = m["name"]
        got = produced.get(name)
        layer = name.split(".")[0] if "." in name else None
        if got is None and layer is not None and layer not in LAYERS[args.workload]:
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(name)
            continue
        metrics[name] = {"value": got["value"], "unit": m["unit"]}
    correct = failed == 0 and not missing and attempted > 0

    fp = fingerprint(raw["build"])
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds, "fingerprint": fp,
              "correct": correct, "attempted": attempted, "failed": failed,
              "hashes": raw["hashes"], "notes": notes + raw["errors"],
              "metrics": produced}
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-%s-seed%d-trace%d.json"
                        % (args.workload, args.size, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("perfbench %s seed=%d size=%s trace=%d" % (
        args.workload, args.seed, args.size, args.trace))
    print("host: %d cpus, %s, avx2=%s avx512f=%s simd=%s thp=%s, %s %s" % (
        fp["nproc"], fp["cpu_model"], fp["avx2"], fp["avx512f"],
        fp["simd_enabled"], fp["thp"], fp["build_type"], fp["compiler"]))
    # The listed metrics first, then what else the binary measured.
    shown = dict(metrics)
    shown.update((k, v) for k, v in produced.items() if k not in metrics)
    for name, m in shown.items():
        print("  %-32s %20.6g %s" % (name, m["value"] or 0.0, m["unit"]))
    for name, h in sorted(raw["hashes"].items()):
        print("  hash %s = %s" % (name, h))
    for note in notes + raw["errors"]:
        print("  " + note)
    for name in missing:
        print("  missing metric: " + name)
    print("  attempted=%d failed=%d correct=%s record=%s" % (
        attempted, failed, correct, os.path.relpath(path, ROOT)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
