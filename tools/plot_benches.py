#!/usr/bin/env python3
"""Summarizes and plots the benchmark outputs.

Usage:
    python3 tools/plot_benches.py [bench_csv_dir] [output_dir]
        [--require BENCH.json]...

Reads the bench_sweep artifacts (BENCH_*.json, schema "byzcast-sweep-v1",
the paper's figures and the ablations among them), and the CSVs and
*_spans.json sidecars under bench_csv_dir. Prints a summary of each; with
matplotlib, also draws one PNG per CSV (series tables as line charts),
p99-vs-offered or throughput per sweep curve, the per-class latency CDFs
of fixed-rate specs and the stacked latency breakdowns. Degrades to the
summaries when matplotlib is missing.
"""
import csv
import json
import os
import sys


def load(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_json(path):
    """The parsed JSON at `path`, or None (with a note) when malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError) as err:
        print(f"skipping malformed {path}: {err}")
        return None


def summarize_span_sidecar(name, doc):
    """Compact summary of one *_spans.json causal-trace sidecar."""
    print(f"\n{name} (schema {doc.get('schema')}):")
    msgs = doc.get("messages", [])
    complete = sum(1 for m in msgs if m.get("complete"))
    print(f"  {len(msgs)} traced messages ({complete} complete), "
          f"{doc.get('spans_recorded')} spans "
          f"(dropped {doc.get('spans_dropped')})")
    for cls in ("local", "global"):
        agg = doc.get("aggregates", {}).get(cls, {})
        if not agg.get("n"):
            continue
        e2e = agg.get("end_to_end", {})
        print(f"  {cls:<6} n={agg['n']}: e2e p50 "
              f"{e2e.get('p50_ns', 0) / 1e6:.2f} ms, "
              f"p99 {e2e.get('p99_ns', 0) / 1e6:.2f} ms")
    monitor = doc.get("monitor")
    if monitor is not None:
        total = monitor.get("violations_total", 0)
        verdict = "OK" if total == 0 else f"{total} VIOLATIONS"
        print(f"  invariant monitors: {verdict}")


def find_sweep_docs(src):
    """Every bench_sweep artifact (BENCH_*.json with schema
    "byzcast-sweep-v1") next to the CSV dir or in the working directory,
    by file name; the CSV dir wins on a name clash."""
    docs = {}
    for folder in (src, "."):
        if not os.path.isdir(folder):
            continue
        for name in sorted(os.listdir(folder)):
            if name in docs or not (name.startswith("BENCH_")
                                    and name.endswith(".json")):
                continue
            doc = load_json(os.path.join(folder, name))
            if isinstance(doc, dict) and doc.get("schema") == "byzcast-sweep-v1":
                docs[name] = doc
    return docs


def summarize_sweep_bench(name, doc):
    """One bench_sweep artifact: per curve, its knee (sweep) or its single
    measured point (fixed rate) with per-class latency, its `expect`
    bounds, plus the traced latency breakdown."""
    print(f"\n{name} (workload '{doc.get('name', '?')}'):")
    for curve in doc.get("curves", []):
        points = curve.get("points", [])
        if curve.get("knee_found") and isinstance(curve.get("knee"), dict):
            knee = curve["knee"]
            verdict = (f"knee {knee.get('offered', 0):.0f} msg/s "
                       f"(p50 {knee.get('p50_ms', 0):.1f} ms, "
                       f"p99 {knee.get('p99_ms', 0):.1f} ms)")
        elif len(points) == 1:
            pt = points[0]
            offered = (f"{pt.get('offered', 0):.0f} offered"
                       if pt.get("offered", 0) > 0 else "closed loop")
            verdict = (f"{pt.get('throughput', 0):.0f} msg/s, {offered} "
                       f"(p50 {pt.get('p50_ms', 0):.1f} ms, "
                       f"p99 {pt.get('p99_ms', 0):.1f} ms)")
        else:
            verdict = (f"no knee through "
                       f"{curve.get('max_unsaturated_rate', 0):.0f} msg/s")
        bad = sum(p.get("monitor_violations", 0) for p in points)
        extra = "" if bad == 0 else f", {bad} MONITOR VIOLATIONS"
        print(f"  {curve.get('label', '?'):<16} {curve.get('protocol', '?')} "
              f"{curve.get('environment', '?')} "
              f"{curve.get('num_groups', '?')}x"
              f"{curve.get('clients_per_group', '?')} "
              f"{curve.get('pattern', '?')}: {len(points)} points, "
              f"{verdict}{extra}")
        if len(points) == 1:
            for cls in ("local", "global"):
                c = points[0].get(cls, {})
                if c.get("n"):
                    print(f"    {cls:<6} n={c['n']} {c.get('throughput', 0):.0f}"
                          f" msg/s, ms: p50 {c.get('p50_ms', 0):.1f}, "
                          f"p99 {c.get('p99_ms', 0):.1f}, "
                          f"p99.9 {c.get('p999_ms', 0):.1f}, "
                          f"max {c.get('max_ms', 0):.1f}")
        for bound in curve.get("expect", []):
            verdict = "ok" if bound.get("ok") else "FAILED"
            print(f"    expect {bound.get('metric')} ratio "
                  f"{bound.get('ratio', float('nan')):.3f} in "
                  f"[{bound.get('min')}, {bound.get('max', 'inf')}]: "
                  f"{verdict}")
        for pt in points:
            for cls, agg in sorted(pt.get("breakdown", {}).items()):
                if not agg.get("n"):
                    continue
                comps = ", ".join(f"{c} {agg.get(c + '_p50_ms', 0):.3f}"
                                  for c in COMPONENTS)
                print(f"    {cls:<6} n={agg['n']} p50 ms: e2e "
                      f"{agg.get('end_to_end_p50_ms', 0):.3f}, {comps}")


def plot_sweep_bench(name, doc, dst, plt):
    """p99 latency vs offered load, one line per curve with its knee
    annotated (sweeps), or throughput per curve (fixed-rate specs); plus the
    stacked p50 component bars of every traced curve."""
    curves = [c for c in doc.get("curves", []) if c.get("points")]
    if not curves:
        return
    stem = name.replace(".json", "")
    fig, ax = plt.subplots(figsize=(6, 4))
    if any(len(c["points"]) > 1 for c in curves):
        for curve in curves:
            points = sorted(curve["points"], key=lambda p: p.get("offered", 0))
            xs = [p.get("offered", 0) for p in points]
            ys = [p.get("p99_ms", 0) for p in points]
            (line,) = ax.plot(xs, ys, marker="o", markersize=3,
                              label=curve.get("label", "?"))
            if curve.get("knee_found") and isinstance(curve.get("knee"), dict):
                knee = curve["knee"]
                kx, ky = knee.get("offered", 0), knee.get("p99_ms", 0)
                ax.scatter([kx], [ky], marker="D", s=45, zorder=5,
                           color=line.get_color(), edgecolors="black")
                ax.annotate(f"knee {kx:.0f}/s", (kx, ky), fontsize=7,
                            xytext=(4, 6), textcoords="offset points")
        ax.set_yscale("log")
        ax.set_xlabel("offered load (msg/s)")
        ax.set_ylabel("p99 latency (ms, log)")
        ax.legend(fontsize=8)
    else:
        xs = list(range(len(curves)))
        ax.bar(xs, [c["points"][0].get("throughput", 0) for c in curves], 0.6)
        ax.axhline(curves[0]["points"][0].get("offered", 0), color="gray",
                   linewidth=0.8, linestyle=":")
        ax.set_xticks(xs)
        ax.set_xticklabels([c.get("label", "?") for c in curves],
                           rotation=30, fontsize=7)
        ax.set_ylabel("msg/s (dotted: offered)")
    ax.set_title(f"{doc.get('name', '?')} ({doc.get('environment', '?')})")
    ax.grid(True, alpha=0.3)
    out = os.path.join(dst, f"{stem}.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print("wrote", out)

    # Fixed-rate specs: every curve's per-class latency CDF (Figs. 3, 6, 10
    # are the paper's CDF figures).
    lines = [(f"{c.get('label', '?')} {cls}", c["points"][0][cls]["cdf"])
             for c in curves if len(c["points"]) == 1
             for cls in ("local", "global")
             if c["points"][0].get(cls, {}).get("cdf")]
    if lines:
        fig, ax = plt.subplots(figsize=(6, 4))
        for label, cdf in lines:
            ax.step([p[0] for p in cdf], [p[1] for p in cdf], where="post",
                    label=label)
        ax.set_xlabel("latency (ms)")
        ax.set_ylabel("CDF")
        ax.set_ylim(0, 1.02)
        ax.set_title(f"{doc.get('name', '?')}: latency CDF per class")
        ax.legend(fontsize=6)
        ax.grid(True, alpha=0.3)
        out = os.path.join(dst, f"{stem}_cdf.png")
        fig.tight_layout()
        fig.savefig(out, dpi=120)
        plt.close(fig)
        print("wrote", out)

    bars = [(f"{c.get('label', '?')}\n{cls}", agg)
            for c in curves
            for cls, agg in sorted(c["points"][0].get("breakdown", {}).items())
            if agg.get("n")]
    if not bars:
        return
    fig, ax = plt.subplots(figsize=(1.5 + 0.9 * len(bars), 4))
    xs = list(range(len(bars)))
    bottoms = [0.0] * len(bars)
    for comp, color in zip(COMPONENTS, COMPONENT_COLORS):
        heights = [agg.get(f"{comp}_p50_ms", 0) for _, agg in bars]
        ax.bar(xs, heights, 0.55, bottom=bottoms, label=comp, color=color)
        bottoms = [b + h for b, h in zip(bottoms, heights)]
    ax.set_xticks(xs)
    ax.set_xticklabels([label for label, _ in bars], fontsize=7)
    ax.set_ylabel("critical-path p50 (ms)")
    ax.set_title(f"{doc.get('name', '?')}: latency breakdown")
    ax.legend(fontsize=8)
    ax.grid(True, axis="y", alpha=0.3)
    out = os.path.join(dst, f"{stem}_breakdown.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print("wrote", out)


COMPONENTS = ("queueing", "cpu", "network", "quorum_wait")
COMPONENT_COLORS = ("#4c72b0", "#dd8452", "#55a868", "#c44e52")


def plot_span_breakdown(name, doc, dst, plt):
    """Stacked p50 latency-breakdown bars per destination class: the share of
    the critical path spent queueing / on CPU / in the network / waiting for
    quorums, with the measured end-to-end p50 marked on each bar."""
    aggs = [(cls, doc.get("aggregates", {}).get(cls, {}))
            for cls in ("local", "global")]
    aggs = [(cls, a) for cls, a in aggs if a.get("n")]
    if not aggs:
        return
    fig, ax = plt.subplots(figsize=(5, 4))
    xs = list(range(len(aggs)))
    bottoms = [0.0] * len(aggs)
    for comp, color in zip(COMPONENTS, COMPONENT_COLORS):
        heights = [a.get(comp, {}).get("p50_ns", 0) / 1e6 for _, a in aggs]
        ax.bar(xs, heights, 0.55, bottom=bottoms, label=comp, color=color)
        bottoms = [b + h for b, h in zip(bottoms, heights)]
    for x, (cls, a) in zip(xs, aggs):
        e2e = a.get("end_to_end", {}).get("p50_ns", 0) / 1e6
        ax.plot([x - 0.33, x + 0.33], [e2e, e2e], color="black",
                linewidth=1.2)
        ax.annotate(f"e2e p50 {e2e:.2f} ms", (x, e2e), ha="center",
                    va="bottom", fontsize=8)
    ax.set_xticks(xs)
    ax.set_xticklabels([f"{cls} (n={a['n']})" for cls, a in aggs])
    ax.set_ylabel("critical-path p50 latency (ms)")
    ax.set_title("latency breakdown by component")
    ax.legend(fontsize=8)
    ax.grid(True, axis="y", alpha=0.3)
    out = os.path.join(dst, name.replace(".json", "_breakdown.png"))
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print("wrote", out)


def summarize_cluster_section(name, doc):
    """Per-node scrape health of a merged cluster sidecar (byzcast-ctl
    merge): clock offsets, span counts, unreachable daemons."""
    cluster = doc.get("cluster")
    if not isinstance(cluster, dict):
        return
    nodes = cluster.get("nodes", [])
    up = [n for n in nodes if n.get("ok")]
    down = [n for n in nodes if not n.get("ok")]
    print(f"  cluster: {len(up)}/{len(nodes)} daemons scraped, "
          f"{sum(n.get('spans', 0) for n in up)} raw spans")
    offsets = [n.get("clock_offset_ns", 0) for n in up
               if n.get("clock_samples", 0) > 0]
    if offsets:
        spread = (max(offsets) - min(offsets)) / 1e6
        print(f"  clock offsets: spread {spread:.1f} ms over "
              f"{len(offsets)} nodes")
    for n in down:
        print(f"  DOWN {n.get('node', '?')}: {n.get('error', '?')}")


def plot_cluster_hops(name, doc, dst, plt):
    """Stacked per-hop latency breakdown from a merged cluster trace: one
    bar per hop position along the critical path (entry group first), each
    stacked by component p50 across the complete messages of that class.
    This is the cross-process view: every hop ran in a different OS process,
    aligned by the collector's clock-offset estimates."""
    if not isinstance(doc.get("cluster"), dict):
        return  # per-hop detail is only plotted for merged cluster traces
    for cls, is_global in (("local", False), ("global", True)):
        msgs = [m for m in doc.get("messages", [])
                if m.get("complete") and bool(m.get("global")) == is_global
                and m.get("hops")]
        if not msgs:
            continue
        depth = max(len(m["hops"]) for m in msgs)
        # Hop i of every message, entry group first; label by modal group.
        per_hop = []
        for i in range(depth):
            hops = [m["hops"][i] for m in msgs if len(m["hops"]) > i]
            groups = sorted(h.get("group") for h in hops)
            modal = groups[len(groups) // 2] if groups else "?"
            comps = {}
            for comp in COMPONENTS:
                vals = sorted(h.get("components", {}).get(f"{comp}_ns", 0)
                              for h in hops)
                comps[comp] = vals[len(vals) // 2] / 1e6 if vals else 0.0
            per_hop.append((f"hop {i}\n(g{modal}, n={len(hops)})", comps))
        fig, ax = plt.subplots(figsize=(1.8 + 1.6 * depth, 4))
        xs = list(range(depth))
        bottoms = [0.0] * depth
        for comp, color in zip(COMPONENTS, COMPONENT_COLORS):
            heights = [comps[comp] for _, comps in per_hop]
            ax.bar(xs, heights, 0.55, bottom=bottoms, label=comp,
                   color=color)
            bottoms = [b + h for b, h in zip(bottoms, heights)]
        ax.set_xticks(xs)
        ax.set_xticklabels([label for label, _ in per_hop], fontsize=8)
        ax.set_ylabel("per-hop p50 (ms)")
        ax.set_title(f"cross-process hop breakdown: {cls} "
                     f"(n={len(msgs)} complete)")
        ax.legend(fontsize=8)
        ax.grid(True, axis="y", alpha=0.3)
        out = os.path.join(dst, name.replace(".json", f"_hops_{cls}.png"))
        fig.tight_layout()
        fig.savefig(out, dpi=120)
        plt.close(fig)
        print("wrote", out)


def main():
    # --require NAME.json (repeatable): fail loudly when an expected
    # BENCH_*.json artifact is missing instead of silently plotting less.
    args = list(sys.argv[1:])
    required = []
    while "--require" in args:
        i = args.index("--require")
        if i + 1 >= len(args):
            print("usage: plot_benches.py [src] [dst] [--require BENCH.json]...")
            return 2
        required.append(args[i + 1])
        del args[i : i + 2]
    src = args[0] if len(args) > 0 else "bench_csv"
    dst = args[1] if len(args) > 1 else "bench_plots"
    # The CSV dir is optional: BENCH_*.json artifacts (e.g. bench_sweep's)
    # are also searched for in the working directory, so a json-only run
    # still summarizes and plots.
    files = (sorted(f for f in os.listdir(src) if f.endswith(".csv"))
             if os.path.isdir(src) else [])
    span_docs = {}
    span_files = (sorted(f for f in os.listdir(src)
                         if f.endswith("_spans.json"))
                  if os.path.isdir(src) else [])
    for name in span_files:
        doc = load_json(os.path.join(src, name))
        if doc is not None:
            span_docs[name] = doc
    for name, doc in span_docs.items():
        summarize_span_sidecar(name, doc)
        summarize_cluster_section(name, doc)
    sweep_docs = find_sweep_docs(src)
    for name, doc in sweep_docs.items():
        summarize_sweep_bench(name, doc)

    # --require also accepts span sidecars (e.g. cluster_spans.json from
    # byzcast-ctl merge) by filename.
    missing = [name for name in required
               if not (sweep_docs.get(name) or span_docs.get(name))]
    if missing:
        for name in missing:
            print(f"FAIL: required bench artifact missing or malformed: {name}")
        return 1

    if not files and not span_docs and not sweep_docs:
        print(f"no CSV, span sidecar or BENCH_*.json inputs in {src}/ or cwd")
        return 1

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; files available:")
        for f in files:
            print(" ", os.path.join(src, f))
        return 0

    os.makedirs(dst, exist_ok=True)
    for name in files:
        header, rows = load(os.path.join(src, name))
        if not rows:
            continue
        # Series table: first column is x, numeric columns are lines.
        fig, ax = plt.subplots(figsize=(6, 4))
        xs = list(range(len(rows)))
        ax.set_xticks(xs)
        ax.set_xticklabels([r[0] for r in rows])
        for col in range(1, len(header)):
            try:
                ys = [float(str(r[col]).split()[0]) for r in rows]
            except (ValueError, IndexError):
                continue
            ax.plot(xs, ys, marker="o", label=header[col])
        ax.set_xlabel(header[0])
        ax.legend(fontsize=8)
        ax.set_title(name.replace(".csv", ""))
        ax.grid(True, alpha=0.3)
        out = os.path.join(dst, name.replace(".csv", ".png"))
        fig.tight_layout()
        fig.savefig(out, dpi=120)
        plt.close(fig)
        print("wrote", out)

    for name, doc in span_docs.items():
        plot_span_breakdown(name, doc, dst, plt)
        plot_cluster_hops(name, doc, dst, plt)
    for name, doc in sweep_docs.items():
        plot_sweep_bench(name, doc, dst, plt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
