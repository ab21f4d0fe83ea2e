#!/usr/bin/env python3
"""Validate the telemetry artifacts service_demo emits.

Two checks, runnable together or separately:

  --prometheus FILE   Parse FILE as Prometheus text exposition 0.0.4:
                      every non-comment line must be `name{labels} value`,
                      every series must follow a # TYPE for its family,
                      histogram families must have cumulative _bucket
                      series ending in le="+Inf" with _sum/_count, and
                      label values must be properly quoted/escaped.
  --trace FILE        Parse FILE as Chrome trace-event JSON: a top-level
                      object with a traceEvents array whose entries are
                      complete ("ph": "X") events carrying name/cat/ts/
                      dur/pid/tid — the shape Perfetto loads.

Optional --require NAME (repeatable, with --prometheus): fail unless the
metric family NAME is present. Families named in KNOWN_TYPES must carry
that # TYPE wherever they appear.

Exit 0 when every requested artifact validates; 1 with a message on the
first failure. Stdlib only — CI runs this without any pip install.
"""

import argparse
import json
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_KEY = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name{labels} value  — labels optional; value is a float/int/+Inf/NaN.
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))$"
)
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')

# Latency families and their type: each is a histogram in seconds.
KNOWN_TYPES = {
    "dlb_engine_round_seconds": "histogram",
    "dlb_engine_phase_seconds": "histogram",
    "dlb_service_checkpoint_seconds": "histogram",
    "dlb_snapshot_fsync_seconds": "histogram",
}


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_labels(raw, lineno):
    """Validate the inside of {...} and return a dict."""
    labels = {}
    pos = 0
    while pos < len(raw):
        m = LABEL_PAIR.match(raw, pos)
        if not m:
            fail(f"line {lineno}: malformed label pair at ...{raw[pos:]!r}")
        labels[m.group(1)] = m.group(2)
        pos = m.end()
        if pos < len(raw):
            if raw[pos] != ",":
                fail(f"line {lineno}: expected ',' between labels")
            pos += 1
    return labels


def check_prometheus(path, required):
    types = {}  # family -> declared type
    seen_families = set()
    # histogram family -> list of (labels-minus-le dict as tuple, le, value)
    hist_buckets = {}
    hist_sum_count = {}

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: empty exposition")

    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                fail(f"line {lineno}: malformed # TYPE")
            _, _, name, kind = parts
            if not METRIC_NAME.match(name):
                fail(f"line {lineno}: invalid metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                fail(f"line {lineno}: unknown type {kind!r}")
            if name in KNOWN_TYPES and kind != KNOWN_TYPES[name]:
                fail(f"line {lineno}: {name} is a {kind}, want "
                     f"{KNOWN_TYPES[name]}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_LINE.match(line)
        if not m:
            fail(f"line {lineno}: unparsable sample line {line!r}")
        name = m.group("name")
        labels = parse_labels(m.group("labels") or "", lineno)
        for key in labels:
            if not LABEL_KEY.match(key):
                fail(f"line {lineno}: invalid label key {key!r}")
        value = float(m.group("value").replace("Inf", "inf"))

        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types \
                    and types[name[: -len(suffix)]] == "histogram":
                family = name[: -len(suffix)]
                break
        if family not in types:
            fail(f"line {lineno}: sample {name!r} has no # TYPE declaration")
        seen_families.add(family)

        if types[family] == "histogram":
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    fail(f"line {lineno}: histogram bucket without le label")
                hist_buckets.setdefault(family, {}).setdefault(
                    key, []).append((labels["le"], value))
            else:
                hist_sum_count.setdefault(family, {}).setdefault(
                    key, set()).add(name.rsplit("_", 1)[1])
        elif types[family] == "counter":
            if value < 0:
                fail(f"line {lineno}: counter {name!r} is negative")

    for family, series in hist_buckets.items():
        for key, buckets in series.items():
            les = [le for le, _ in buckets]
            if les[-1] != "+Inf":
                fail(f"histogram {family}{dict(key)}: last bucket is "
                     f"{les[-1]!r}, want +Inf")
            counts = [v for _, v in buckets]
            if any(b > a for b, a in zip(counts, counts[1:])):
                fail(f"histogram {family}{dict(key)}: bucket counts are not "
                     f"cumulative: {counts}")
            have = hist_sum_count.get(family, {}).get(key, set())
            if have != {"sum", "count"}:
                fail(f"histogram {family}{dict(key)}: missing _sum/_count "
                     f"(have {sorted(have)})")

    for name in required:
        if name not in seen_families:
            fail(f"{path}: required metric family {name!r} not found "
                 f"(families: {sorted(seen_families)})")

    print(f"check_telemetry: OK: {path}: {len(seen_families)} famil"
          f"{'y' if len(seen_families) == 1 else 'ies'}, "
          f"{len(types)} typed")


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be an array")
    for i, e in enumerate(events):
        for field, kinds in (("name", str), ("cat", str), ("ph", str),
                             ("ts", (int, float)), ("pid", int),
                             ("tid", int)):
            if field not in e or not isinstance(e[field], kinds):
                fail(f"{path}: event {i} missing/invalid {field!r}: {e}")
        if e["ph"] == "X":
            if "dur" not in e or not isinstance(e["dur"], (int, float)):
                fail(f"{path}: complete event {i} missing dur")
            if e["dur"] < 0 or e["ts"] < 0:
                fail(f"{path}: event {i} has negative timestamp/duration")
    ts = [e["ts"] for e in events]
    if ts != sorted(ts):
        fail(f"{path}: events are not sorted by ts")
    print(f"check_telemetry: OK: {path}: {len(events)} trace event(s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prometheus", help="Prometheus text file to validate")
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--require", action="append", default=[],
                    help="metric family that must be present (repeatable)")
    ap.add_argument("--min-trace-events", type=int, default=0,
                    help="fail unless the trace has at least this many events")
    args = ap.parse_args()
    if not args.prometheus and not args.trace:
        ap.error("nothing to do: pass --prometheus and/or --trace")
    if args.prometheus:
        check_prometheus(args.prometheus, args.require)
    if args.trace:
        check_trace(args.trace)
        if args.min_trace_events:
            with open(args.trace, "r", encoding="utf-8") as f:
                n = len(json.load(f)["traceEvents"])
            if n < args.min_trace_events:
                fail(f"{args.trace}: {n} events < required "
                     f"{args.min_trace_events}")


if __name__ == "__main__":
    main()
