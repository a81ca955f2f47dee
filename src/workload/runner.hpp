// WorkloadRunner: executes a WorkloadSpec on the simulator harness and
// returns structured results, one SweepCurve per spec curve: a single
// measured point for a fixed-rate spec (rate 0: the closed loop), a point
// per segment for a step schedule, and the full sweep with its knee for a
// sweep schedule; then checks every curve's `expect` bounds against the
// first curve. Also serializes outcomes to the BENCH_*.json schema
// ("byzcast-sweep-v1") consumed by tools/check_sweep.py and
// tools/plot_benches.py.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "workload/spec.hpp"
#include "workload/sweep.hpp"

namespace byzcast::workload {

struct WorkloadOutcome {
  WorkloadSpec spec;
  /// One per curves_of(spec), in spec order.
  std::vector<SweepCurve> curves;
  /// One per curve: its `expect` bounds checked against the first curve.
  std::vector<std::vector<BoundCheck>> checks;
};

/// Runs the spec to completion on the sim backend (every schedule point is
/// its own deterministic run; seeds derive from each curve's seed).
[[nodiscard]] WorkloadOutcome run_workload(const WorkloadSpec& spec);

/// Serializes an outcome as the "byzcast-sweep-v1" document.
[[nodiscard]] Json outcome_to_json(const WorkloadOutcome& outcome);

}  // namespace byzcast::workload
