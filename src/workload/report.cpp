#include "workload/report.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "common/span_export.hpp"
#include "core/critical_path.hpp"

namespace byzcast::workload {

void print_header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

void print_table(const std::vector<std::string>& columns,
                 const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    widths[i] = columns[i].size();
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  const auto print_row = [&widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
    }
    std::printf("\n");
  };
  print_row(columns);
  std::string rule;
  for (const auto w : widths) rule += std::string(w, '-') + "  ";
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows) print_row(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

namespace {

std::ofstream open_csv(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  return std::ofstream(path);
}

}  // namespace

void write_series_csv(const std::string& path,
                      const std::vector<std::string>& columns,
                      const std::vector<std::vector<std::string>>& rows) {
  auto out = open_csv(path);
  if (!out) return;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out << (i ? "," : "") << columns[i];
  }
  out << '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << (i ? "," : "") << row[i];
    }
    out << '\n';
  }
}

void write_span_sidecar(const std::string& path,
                        const ExperimentResult& result, int f) {
  if (!result.spans) return;
  const core::CriticalPathAnalyzer analyzer(
      *result.spans, core::CriticalPathAnalyzer::Options{f});
  write_json_file(
      path, core::spans_sidecar_json(
                analyzer, f, result.spans->spans().size(),
                result.spans->dropped(),
                result.monitors ? result.monitors->summary() : Json::null()));
}

void write_chrome_trace(const std::string& path,
                        const ExperimentResult& result) {
  if (!result.spans) return;
  auto out = open_csv(path);
  if (!out) return;
  out << chrome_trace_json(*result.spans);
}

void print_latency_breakdown(const ExperimentResult& result, int f) {
  if (!result.spans) return;
  core::CriticalPathAnalyzer analyzer(*result.spans,
                                      core::CriticalPathAnalyzer::Options{f});
  print_header("latency breakdown (critical path, medians)");
  std::vector<std::vector<std::string>> rows;
  for (const bool global : {false, true}) {
    const auto agg = analyzer.aggregate(global);
    if (agg.n == 0) continue;
    rows.push_back({global ? "global" : "local", std::to_string(agg.n),
                    fmt(to_ms(agg.end_to_end.p50), 2),
                    fmt(to_ms(agg.end_to_end.p99), 2),
                    fmt(to_ms(agg.queueing.p50), 2),
                    fmt(to_ms(agg.cpu.p50), 2),
                    fmt(to_ms(agg.network.p50), 2),
                    fmt(to_ms(agg.quorum_wait.p50), 2)});
  }
  if (rows.empty()) {
    std::printf("(no complete traced messages)\n");
    return;
  }
  print_table({"class", "n", "e2e p50 ms", "e2e p99 ms", "queue p50",
               "cpu p50", "net p50", "quorum p50"},
              rows);
}

}  // namespace byzcast::workload
