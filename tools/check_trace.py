#!/usr/bin/env python3
"""Validate the observability artifacts a traced run emits.

Usage:
    check_trace.py SPANS_JSON [CHROME_JSON] [--expect-zero-violations]

SPANS_JSON is the deterministic span sidecar written by
workload::write_span_sidecar (schema "byzcast-spans-v1"); CHROME_JSON is the
Chrome trace-event file written by workload::write_chrome_trace. The checks
mirror the acceptance criteria of the observability PR:

  * the sidecar parses, declares the expected schema, and every complete
    message's four-component decomposition sums to its measured end-to-end
    latency exactly (integer nanoseconds, no tolerance);
  * per-hop components are nonnegative and sum to the message totals;
  * aggregates / edges have well-formed percentile blocks (p50 <= p99);
  * the Chrome file is valid trace-event JSON: a traceEvents array whose
    events use only the documented phases (X complete events with ts/dur,
    i instants, M metadata), with pid/tid/ts on every timed event;
  * with --expect-zero-violations, the run's invariant monitors must have
    been enabled and report zero violations.

Exits nonzero after reporting every failure, so CI can gate on it.
tools/check_cluster_obs.py reuses check_spans for the merged cluster
sidecar, which has the same schema plus a "cluster" section.
"""

import json
import sys

FAILURES = 0


def fail(msg):
    global FAILURES
    FAILURES += 1
    print(f"FAIL: {msg}")


def require(cond, msg):
    if not cond:
        fail(msg)
    return cond


def check_percentiles(block, where):
    if not require(isinstance(block, dict), f"{where}: not an object"):
        return
    for key in ("n", "p50_ns", "p99_ns"):
        require(isinstance(block.get(key), int), f"{where}.{key}: missing or not an int")
    if isinstance(block.get("p50_ns"), int) and isinstance(block.get("p99_ns"), int):
        if block["n"] > 0:
            require(block["p50_ns"] <= block["p99_ns"], f"{where}: p50 > p99")


def component_sum(components, where):
    total = 0
    for key in ("queueing_ns", "cpu_ns", "network_ns", "quorum_wait_ns"):
        value = components.get(key)
        if not require(isinstance(value, int), f"{where}.{key}: missing or not an int"):
            return None
        require(value >= 0, f"{where}.{key}: negative ({value})")
        total += value
    return total


def check_spans(path, expect_zero_violations):
    """Checks one byzcast-spans-v1 sidecar; returns the parsed document."""
    with open(path) as f:
        doc = json.load(f)

    require(doc.get("schema") == "byzcast-spans-v1",
            f"schema is {doc.get('schema')!r}, expected 'byzcast-spans-v1'")
    for key in ("f", "spans_recorded", "spans_dropped", "messages",
                "aggregates", "edges"):
        require(key in doc, f"missing top-level key {key!r}")

    messages = doc.get("messages", [])
    require(isinstance(messages, list), "messages: not a list")
    complete = 0
    for msg in messages:
        where = f"message {msg.get('id')!r}"
        for key in ("id", "complete", "dst_count", "global", "submitted_ns",
                    "end_to_end_ns"):
            require(key in msg, f"{where}: missing {key!r}")
        if not msg.get("complete"):
            continue
        complete += 1
        totals = component_sum(msg.get("totals", {}), f"{where}.totals")
        e2e = msg.get("end_to_end_ns")
        if totals is not None and isinstance(e2e, int):
            require(totals == e2e,
                    f"{where}: component sum {totals} != end_to_end {e2e} "
                    f"(telescoping broken)")
        hop_total = 0
        for i, hop in enumerate(msg.get("hops", [])):
            hop_sum = component_sum(hop.get("components", {}),
                                    f"{where}.hops[{i}]")
            if hop_sum is not None:
                hop_total += hop_sum
        if totals is not None:
            require(hop_total <= totals,
                    f"{where}: hop components {hop_total} exceed totals {totals}")
    require(complete > 0, "no complete traced message in the sidecar")

    for cls in ("local", "global"):
        agg = doc.get("aggregates", {}).get(cls)
        if not require(isinstance(agg, dict), f"aggregates.{cls}: missing"):
            continue
        for key in ("end_to_end", "queueing", "cpu", "network", "quorum_wait"):
            check_percentiles(agg.get(key), f"aggregates.{cls}.{key}")

    for i, edge in enumerate(doc.get("edges", [])):
        for key in ("parent", "child"):
            require(isinstance(edge.get(key), int), f"edges[{i}].{key}: missing")
        check_percentiles(edge.get("stats"), f"edges[{i}].stats")

    monitor = doc.get("monitor")
    if expect_zero_violations:
        if require(isinstance(monitor, dict),
                   "--expect-zero-violations: run had monitors disabled"):
            require(monitor.get("violations_total") == 0,
                    f"monitors report {monitor.get('violations_total')} violations")
    print(f"{path}: {len(messages)} messages ({complete} complete), "
          f"{len(doc.get('edges', []))} edges, "
          f"dropped={doc.get('spans_dropped')}")
    return doc


def check_chrome(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not require(isinstance(events, list) and events,
                   "traceEvents: missing or empty"):
        return
    phases = {"X": 0, "i": 0, "M": 0}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if not require(ph in phases, f"traceEvents[{i}]: unexpected ph {ph!r}"):
            continue
        phases[ph] += 1
        require(isinstance(ev.get("pid"), int), f"traceEvents[{i}]: missing pid")
        require(isinstance(ev.get("tid"), int), f"traceEvents[{i}]: missing tid")
        if ph in ("X", "i"):
            require(isinstance(ev.get("ts"), (int, float)),
                    f"traceEvents[{i}]: missing ts")
            require(isinstance(ev.get("name"), str),
                    f"traceEvents[{i}]: missing name")
        if ph == "X":
            dur = ev.get("dur")
            require(isinstance(dur, (int, float)) and dur >= 0,
                    f"traceEvents[{i}]: X event without nonnegative dur")
        if ph == "i":
            require(ev.get("s") in ("t", "p", "g"),
                    f"traceEvents[{i}]: instant without scope")
    require(phases["X"] > 0, "no complete (X) events")
    require(phases["M"] > 0, "no metadata (M) events")
    print(f"{path}: {len(events)} events "
          f"(X={phases['X']}, i={phases['i']}, M={phases['M']})")


def main(argv):
    expect_zero = "--expect-zero-violations" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if not paths:
        print(__doc__)
        return 2
    check_spans(paths[0], expect_zero)
    if len(paths) > 1:
        check_chrome(paths[1])
    if FAILURES:
        print(f"{FAILURES} check(s) failed")
        return 1
    print("trace artifacts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
