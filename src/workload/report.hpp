// Reporting helpers shared by the benchmark binaries: aligned plain-text
// tables, series CSVs and the span sidecars of one experiment run.
#pragma once

#include <string>
#include <vector>

#include "workload/experiment.hpp"

namespace byzcast::workload {

/// Prints "== title ==" section header.
void print_header(const std::string& title);

/// Prints one table: `columns` are headers, each row a vector of
/// preformatted cells.
void print_table(const std::vector<std::string>& columns,
                 const std::vector<std::vector<std::string>>& rows);

/// Formats a double with `precision` decimals.
[[nodiscard]] std::string fmt(double value, int precision = 1);

/// Writes a generic series table as CSV to `path`, creating parent
/// directories.
void write_series_csv(const std::string& path,
                      const std::vector<std::string>& columns,
                      const std::vector<std::vector<std::string>>& rows);

/// Writes the deterministic span sidecar (core::spans_sidecar_json) for a
/// run with span tracing on; byte-identical across same-seed simulation
/// runs. No-op when the run had no SpanLog. `f` selects the representative
/// replica per group (the (f+1)-th earliest a-delivery — the copy
/// completing a reply quorum).
void write_span_sidecar(const std::string& path,
                        const ExperimentResult& result, int f);

/// Writes the SpanLog as Chrome trace-event JSON — load in Perfetto
/// (ui.perfetto.dev) to browse one track per replica, one process per
/// group. No-op when the run had no SpanLog.
void write_chrome_trace(const std::string& path,
                        const ExperimentResult& result);

/// Prints the per-class latency-breakdown table (end-to-end p50/p99 and the
/// queueing / cpu / network / quorum-wait component medians) reconstructed
/// from the run's spans. No-op without a SpanLog.
void print_latency_breakdown(const ExperimentResult& result, int f);

}  // namespace byzcast::workload
