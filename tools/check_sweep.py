#!/usr/bin/env python3
"""Validate a bench_sweep artifact (schema "byzcast-sweep-v1").

Usage:
    check_sweep.py BENCH_JSON [--require-knee] [--require-curve LABEL]...

The file is written by bench_sweep / workload::outcome_to_json. Checks:

  * the document parses, declares the expected schema, and carries a
    non-empty curves array;
  * every curve names its own protocol, environment, num_groups,
    clients_per_group and pattern, and has points sorted strictly by
    offered rate;
  * each point carries the full numeric record (offered, goodput_ratio,
    completed, a_deliveries, monitor_violations, sample_overflow,
    saturated, and for all messages n, throughput, mean/p50/p95/p99/p999/
    max_ms and a cdf), and per class (local, global) n and throughput,
    plus the latency numbers and cdf when n > 0; percentiles are ordered
    and every cdf is monotone, ending at (max_ms, 1);
  * offered 0 is the closed loop; an open-loop point's goodput never
    exceeds offered by more than rounding (ratio <= 1.05);
  * no point tripped invariant monitors or overflowed its sample capacity;
  * a point's latency breakdown, when present (span-traced runs), carries
    per class (local, global) a count n and the p50 of every component;
  * every `expect` bound recorded on a curve held, its ratio inside
    [min, max];
  * saturation classification is consistent: once the sweep grid saturates,
    the knee (when found) coincides with a saturated measured point and lies
    strictly above the curve's max_unsaturated_rate;
  * with --require-knee, every curve must have found a knee;
  * with --require-curve LABEL, a curve labeled LABEL must be present.

Exits nonzero with a message on each failure, so CI can gate on it.
"""

import json
import sys

FAILURES = 0

POINT_NUM_FIELDS = (
    "offered",
    "goodput_ratio",
    "completed",
    "a_deliveries",
    "monitor_violations",
    "sample_overflow",
)

PERCENTILES = ("p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms")

CURVE_CONFIG_FIELDS = ("protocol", "environment", "num_groups", "clients_per_group", "pattern")

BREAKDOWN_FIELDS = tuple(
    f"{c}_p50_ms" for c in ("end_to_end", "queueing", "cpu", "network", "quorum_wait")
)

USAGE = "usage: check_sweep.py BENCH_JSON [--require-knee] [--require-curve LABEL]..."


def fail(msg):
    global FAILURES
    FAILURES += 1
    print(f"FAIL: {msg}")


def require(cond, msg):
    if not cond:
        fail(msg)
    return cond


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_breakdown(bd, where):
    if not require(isinstance(bd, dict), f"{where}: not an object"):
        return
    for cls in ("local", "global"):
        agg = bd.get(cls)
        if not require(isinstance(agg, dict), f"{where}.{cls}: missing"):
            continue
        n = agg.get("n")
        require(is_number(n) and n >= 0 and n == int(n), f"{where}.{cls}.n: missing or not a count")
        for key in BREAKDOWN_FIELDS:
            v = agg.get(key)
            require(is_number(v) and v >= 0, f"{where}.{cls}.{key}: missing or negative")


def check_latency(cls, where, always):
    """n and throughput; the latency numbers and cdf when n > 0 or always."""
    if not require(isinstance(cls, dict), f"{where}: missing or not an object"):
        return False
    for key in ("n", "throughput"):
        if not require(is_number(cls.get(key)) and cls[key] >= 0, f"{where}.{key}: missing or negative"):
            return False
    if cls["n"] == 0 and not always:
        return require("p50_ms" not in cls and "cdf" not in cls, f"{where}: latency numbers without messages")
    for key in ("mean_ms",) + PERCENTILES:
        if not require(is_number(cls.get(key)), f"{where}.{key}: missing or not a number"):
            return False
    pcts = [cls[key] for key in PERCENTILES]
    require(pcts == sorted(pcts), f"{where}: percentiles not ordered p50 <= ... <= max")
    cdf = cls.get("cdf")
    if not require(isinstance(cdf, list) and all(isinstance(p, list) and len(p) == 2 and all(map(is_number, p)) for p in cdf), f"{where}.cdf: not a list of [ms, fraction] pairs"):
        return False
    if cdf:
        require(all(a[0] <= b[0] and a[1] < b[1] for a, b in zip(cdf, cdf[1:])), f"{where}.cdf: not monotone")
        require(cdf[-1] == [cls["max_ms"], 1], f"{where}.cdf: does not end at (max_ms, 1)")
    return True


def check_point(pt, where):
    if not require(isinstance(pt, dict), f"{where}: not an object"):
        return None
    for key in POINT_NUM_FIELDS:
        if not require(is_number(pt.get(key)), f"{where}.{key}: missing or not a number"):
            return None
    if not check_latency(pt, where, always=True):
        return None
    require(isinstance(pt.get("saturated"), bool), f"{where}.saturated: missing or not a bool")
    require(pt["offered"] >= 0, f"{where}: offered rate must not be negative")
    require(pt["completed"] > 0, f"{where}: completed nothing")
    require(pt["monitor_violations"] == 0, f"{where}: {pt['monitor_violations']} invariant violations")
    require(pt["sample_overflow"] == 0, f"{where}: {pt['sample_overflow']} samples overflowed capacity")
    if pt["offered"] > 0:  # offered 0 is the closed loop: no goodput to judge
        require(pt["goodput_ratio"] <= 1.05, f"{where}: goodput {pt['goodput_ratio']:.3f} exceeds offered")
    for cls in ("local", "global"):
        check_latency(pt.get(cls), f"{where}.{cls}", always=False)
    if all(isinstance(pt.get(c), dict) and is_number(pt[c].get("n")) for c in ("local", "global")):
        require(pt["local"]["n"] + pt["global"]["n"] == pt["n"], f"{where}: local n + global n != n")
    if "breakdown" in pt:
        check_breakdown(pt["breakdown"], f"{where}.breakdown")
    return pt


def check_curve(curve, where):
    if not require(isinstance(curve, dict), f"{where}: not an object"):
        return
    label = curve.get("label")
    require(isinstance(label, str) and label, f"{where}.label: missing")
    for key in CURVE_CONFIG_FIELDS:
        require(key in curve, f"{where}.{key}: missing")
    points = curve.get("points")
    if not require(isinstance(points, list) and points, f"{where}.points: missing or empty"):
        return
    checked = []
    for i, pt in enumerate(points):
        got = check_point(pt, f"{where}.points[{i}]")
        if got is not None:
            checked.append(got)
    offered = [pt["offered"] for pt in checked]
    require(offered == sorted(offered) and len(set(offered)) == len(offered),
            f"{where}: points not strictly sorted by offered rate")

    knee_found = curve.get("knee_found")
    require(isinstance(knee_found, bool), f"{where}.knee_found: missing or not a bool")
    max_ok = curve.get("max_unsaturated_rate")
    require(isinstance(max_ok, (int, float)), f"{where}.max_unsaturated_rate: missing")
    if knee_found:
        knee = curve.get("knee")
        if require(isinstance(knee, dict), f"{where}.knee: missing despite knee_found"):
            check_point(knee, f"{where}.knee")
            require(knee.get("saturated") is True, f"{where}.knee: knee point not saturated")
            matches = [pt for pt in checked if abs(pt["offered"] - knee.get("offered", -1)) < 1e-9]
            require(bool(matches), f"{where}.knee: offered rate not among measured points")
            if isinstance(max_ok, (int, float)):
                require(knee.get("offered", 0) > max_ok - 1e-9,
                        f"{where}.knee: at or below max_unsaturated_rate")
    for i, bound in enumerate(curve.get("expect", [])):
        what = f"{where}.expect[{i}] ({bound.get('metric')})"
        ratio = bound.get("ratio")
        held = (bound.get("ok") is True and is_number(ratio)
                and bound.get("min", 0) <= ratio <= bound.get("max", float("inf")))
        require(held, f"{what}: bound failed (ratio {ratio}, "
                      f"[{bound.get('min')}, {bound.get('max', 'inf')}])")


def main():
    args = [a for a in sys.argv[1:]]
    require_knee = "--require-knee" in args
    if require_knee:
        args.remove("--require-knee")
    required_curves = []
    while "--require-curve" in args:
        i = args.index("--require-curve")
        if i + 1 >= len(args):
            print(USAGE)
            return 2
        required_curves.append(args[i + 1])
        del args[i : i + 2]
    if len(args) != 1:
        print(USAGE)
        return 2

    try:
        with open(args[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args[0]}: {e}")
        return 1

    require(doc.get("schema") == "byzcast-sweep-v1", f"schema: {doc.get('schema')!r}")
    require(isinstance(doc.get("name"), str) and doc.get("name"), "name: missing")
    curves = doc.get("curves")
    if require(isinstance(curves, list) and curves, "curves: missing or empty"):
        labels = []
        for i, curve in enumerate(curves):
            check_curve(curve, f"curves[{i}]")
            if isinstance(curve, dict) and isinstance(curve.get("label"), str):
                labels.append(curve["label"])
                if require_knee:
                    require(curve.get("knee_found") is True,
                            f"curves[{i}] ({curve['label']}): no knee found")
        for label in required_curves:
            require(label in labels, f"required curve missing: {label}")

    if FAILURES == 0:
        print(f"OK: {args[0]} ({len(curves) if isinstance(curves, list) else 0} curves)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
