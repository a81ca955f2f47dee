// Prometheus text exposition (format version 0.0.4) for a MetricsRegistry,
// rendered on demand by the per-daemon introspection server's /metrics
// endpoint. Hand-rolled like every other exporter in this repo — no client
// library dependency.
//
// Mapping: internal dotted names ("node.a_deliver.g0") become legal metric
// names by replacing every character outside [a-zA-Z0-9_:] with '_';
// counters additionally get the conventional "_total" suffix. Histograms
// export the full cumulative-bucket family (`_bucket{le="..."}` monotone,
// `le="+Inf"` equal to `_count`) plus `_sum` and `_count`.
// `const_labels` (e.g. {{"node", "g1_r2"}}) are attached to every sample,
// with label values escaped per the exposition rules. Output order is
// deterministic: counters, then gauges, then histograms, each sorted by
// name (std::map order), so two scrapes of the same state are
// byte-identical.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"

namespace byzcast {

using PromLabels = std::vector<std::pair<std::string, std::string>>;

/// Sanitized Prometheus metric name (no "_total" suffix applied).
[[nodiscard]] std::string prometheus_metric_name(const std::string& name);

/// Label *value* with `\`, `"` and newline escaped for the exposition text.
[[nodiscard]] std::string prometheus_escape_label(const std::string& value);

/// The whole registry in exposition text, `const_labels` on every sample.
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry,
                                          const PromLabels& const_labels = {});

}  // namespace byzcast
