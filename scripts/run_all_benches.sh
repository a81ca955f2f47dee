#!/usr/bin/env bash
# Runs every benchmark binary (the paper's tables, the trace smoke run, the
# net bench and the micro-benchmarks), then bench_sweep on every workload
# spec in configs/workloads/ (BENCH_<spec>.json each): the paper's figures
# (fig<N>_*.json, destinations_fanout.json), the ablations
# (ablation_*.json), the offered-load sweeps and the pipelining and
# vertical-scaling curves. Runtime-backend throughput is the repository
# benchmark's (perfbench/run.py), not this script's. Echoes the combined
# report. Fails loudly: a nonzero bench exit (a spec's failed `expect`
# bound included) or a missing spec artifact fails the whole run instead of
# silently shrinking the report.
set -u
BUILD_DIR="${1:-build}"
SPEC_DIR="$(dirname "$0")/../configs/workloads"
FAILED=0
for b in "$BUILD_DIR"/bench/*; do
  if [ -x "$b" ] && [ ! -d "$b" ]; then
    case "$(basename "$b")" in
      # Live-cluster binaries need a running byzcastd deployment (or are the
      # deployment); they are driven by scripts/run_local_cluster.sh, not by
      # this sweep. bench_net_throughput IS self-contained (it builds its
      # own in-process cluster) and runs below like any other bench.
      # bench_sweep runs once per spec file, after this loop.
      byzcastd|byzcast-loadgen|bench_sweep) continue ;;
    esac
    echo
    echo "########## $(basename "$b") ##########"
    if ! "$b"; then
      echo "FAILED: $(basename "$b")"
      FAILED=1
    fi
  fi
done

for spec in "$SPEC_DIR"/*.json; do
  artifact="BENCH_$(basename "$spec" .json).json"
  echo
  echo "########## bench_sweep $(basename "$spec") ##########"
  rm -f "$artifact"
  if ! "$BUILD_DIR/bench/bench_sweep" --spec "$spec" --out "$artifact"; then
    echo "FAILED: bench_sweep $(basename "$spec")"
    FAILED=1
  fi
  if [ ! -s "$artifact" ]; then
    echo "FAILED: expected artifact $artifact was not produced"
    FAILED=1
  fi
done
exit "$FAILED"
