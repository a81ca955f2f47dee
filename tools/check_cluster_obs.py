#!/usr/bin/env python3
"""Validate the live-cluster observability artifacts.

Usage:
    check_cluster_obs.py [--spans CLUSTER_SPANS_JSON]
                         [--expect-nodes N] [--expect-zero-violations]
                         [METRICS_TXT ...]

METRICS_TXT files are /metrics scrapes (Prometheus exposition format 0.0.4,
one per daemon, e.g. byzcast-ctl scrape's prom_*.txt). For each file:

  * every non-comment line parses as `name{labels} value`;
  * metric names use only [a-zA-Z_:][a-zA-Z0-9_:]*;
  * every metric introduced by `# TYPE ... counter` ends in `_total` and
    its values are nonnegative;
  * histogram bucket series are cumulative (nondecreasing in le order),
    end in an le="+Inf" bucket, and that bucket equals the `_count`
    sample — the mid-run scrape invariant.

CLUSTER_SPANS_JSON is the merged sidecar written by `byzcast-ctl merge`
(schema "byzcast-spans-v1" plus a "cluster" section). Checks:

  * everything tools/check_trace.py checks of an in-process sidecar:
    schema, messages, aggregates, edges and (with
    --expect-zero-violations) the summed monitor violations being 0 —
    including exact telescoping, which survives the cross-process clock
    alignment;
  * the cluster section is well-formed: per-node entries with name, ok
    flag, clock estimate or error prose;
  * with --expect-nodes N, exactly N nodes were scraped successfully.

Exits nonzero after reporting every failure, so CI can gate on it.
"""

import json
import re
import sys

import check_trace

FAILURES = 0

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name{labels} value  |  name value
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
LE_RE = re.compile(r'le="([^"]*)"')


def fail(msg):
    global FAILURES
    FAILURES += 1
    print(f"FAIL: {msg}")


def require(cond, msg):
    if not cond:
        fail(msg)
    return cond


def parse_value(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_metrics_file(path):
    """One /metrics scrape: exposition syntax + histogram invariants."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    counter_metrics = set()
    histogram_metrics = set()
    samples = []  # (name, labels_text, value)
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"^# TYPE (\S+) (\S+)$", line)
            if line.startswith("# TYPE"):
                if not require(m, f"{path}:{i}: malformed TYPE comment"):
                    continue
                name, kind = m.group(1), m.group(2)
                require(NAME_RE.match(name),
                        f"{path}:{i}: illegal metric name {name!r}")
                if kind == "counter":
                    counter_metrics.add(name)
                    require(name.endswith("_total"),
                            f"{path}:{i}: counter {name} lacks _total suffix")
                elif kind == "histogram":
                    histogram_metrics.add(name)
            continue
        m = SAMPLE_RE.match(line)
        if not require(m, f"{path}:{i}: unparseable sample line {line!r}"):
            continue
        name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        value = parse_value(value_text)
        if not require(value is not None,
                       f"{path}:{i}: non-numeric value {value_text!r}"):
            continue
        samples.append((name, labels, value))

    by_name = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))

    for name in counter_metrics:
        for labels, value in by_name.get(name, []):
            require(value >= 0, f"{path}: counter {name}{labels} negative")

    for metric in histogram_metrics:
        buckets = by_name.get(metric + "_bucket", [])
        if not require(buckets, f"{path}: histogram {metric} has no buckets"):
            continue
        les = []
        for labels, value in buckets:
            m = LE_RE.search(labels)
            if not require(m, f"{path}: {metric}_bucket without le label"):
                continue
            le = m.group(1)
            les.append((float("inf") if le == "+Inf" else float(le), value))
        les.sort(key=lambda p: p[0])
        require(les and les[-1][0] == float("inf"),
                f"{path}: histogram {metric} lacks an le=\"+Inf\" bucket")
        for (lo, a), (hi, b) in zip(les, les[1:]):
            require(a <= b,
                    f"{path}: {metric} buckets not cumulative: "
                    f"le={lo} -> {a}, le={hi} -> {b}")
        counts = by_name.get(metric + "_count", [])
        require(counts, f"{path}: histogram {metric} lacks _count")
        if les and counts:
            require(les[-1][1] == counts[0][1],
                    f"{path}: {metric} +Inf bucket {les[-1][1]} != "
                    f"_count {counts[0][1]}")

    print(f"ok: {path}: {len(samples)} samples, "
          f"{len(counter_metrics)} counters, "
          f"{len(histogram_metrics)} histograms")


def check_cluster_spans(path, expect_nodes, expect_zero_violations):
    doc = check_trace.check_spans(path, expect_zero_violations)
    cluster = doc.get("cluster")
    if not require(isinstance(cluster, dict), f"{path}: no cluster section"):
        return
    nodes = cluster.get("nodes", [])
    ok_nodes = 0
    for n in nodes:
        name = n.get("node", "?")
        if n.get("ok"):
            ok_nodes += 1
            require(isinstance(n.get("clock_offset_ns"), int),
                    f"{path}: node {name} lacks clock_offset_ns")
            require(n.get("clock_samples", 0) > 0,
                    f"{path}: node {name} has no clock samples")
            require(isinstance(n.get("spans"), int),
                    f"{path}: node {name} lacks span count")
        else:
            require(n.get("error"),
                    f"{path}: failed node {name} lacks error prose")
    if expect_nodes is not None:
        require(ok_nodes == expect_nodes,
                f"{path}: scraped {ok_nodes} nodes, expected {expect_nodes}")
    print(f"ok: {path}: cluster section, {ok_nodes}/{len(nodes)} "
          f"nodes scraped")


def main(argv):
    expect_nodes = None
    expect_zero = False
    spans = None
    metrics = []
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--spans":
            if not args:
                print("usage: check_cluster_obs.py [--spans FILE] "
                      "[--expect-nodes N] [--expect-zero-violations] "
                      "[METRICS_TXT ...]")
                return 2
            spans = args.pop(0)
        elif a == "--expect-nodes":
            expect_nodes = int(args.pop(0))
        elif a == "--expect-zero-violations":
            expect_zero = True
        else:
            metrics.append(a)

    if spans is None and not metrics:
        print("nothing to check (no --spans, no metrics files)")
        return 2

    for path in metrics:
        try:
            check_metrics_file(path)
        except OSError as err:
            fail(f"{path}: {err}")
    if spans is not None:
        try:
            check_cluster_spans(spans, expect_nodes, expect_zero)
        except (OSError, json.JSONDecodeError) as err:
            fail(f"{spans}: {err}")

    failures = FAILURES + check_trace.FAILURES
    if failures:
        print(f"{failures} failure(s)")
        return 1
    print("all cluster observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
