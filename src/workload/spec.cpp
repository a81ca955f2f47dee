#include "workload/spec.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <utility>

namespace byzcast::workload {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Reads the members of one JSON object (`where` is its path, e.g.
/// "curves[1]."). Each accessor names a member the object may carry and,
/// when it is present, checks its type and range before storing it. `done`
/// then reports the first bad value, or else any member no accessor asked
/// for: a misspelt key is an error, never a silently kept default.
class Members {
 public:
  Members(const Json& obj, std::string where)
      : obj_(obj), where_(std::move(where)) {}

  [[nodiscard]] const std::string& where() const { return where_; }

  /// An integer in [lo, hi], stored as `value * scale`.
  template <typename T>
  void integer(const char* key, T& out, std::int64_t lo, std::int64_t hi,
               std::int64_t scale = 1) {
    const Json* v = take(key);
    if (v == nullptr) return;
    const double d = v->as_double();
    if (!v->is_number() || d != std::floor(d) ||
        d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
      bad(key, "an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
      return;
    }
    out = static_cast<T>(static_cast<std::int64_t>(d) * scale);
  }

  void number(const char* key, double& out, double lo, double hi) {
    const Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number() || v->as_double() < lo || v->as_double() > hi) {
      bad(key, "a number in [" + fmt_num(lo) + ", " + fmt_num(hi) + "]");
      return;
    }
    out = v->as_double();
  }

  void boolean(const char* key, bool& out) {
    const Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_bool()) {
      bad(key, "true or false");
      return;
    }
    out = v->as_bool();
  }

  void text(const char* key, std::string& out) {
    const Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) {
      bad(key, "a string");
      return;
    }
    out = v->as_string();
  }

  /// One of `names`, stored as its paired value.
  template <typename E,
            typename Names = std::initializer_list<std::pair<const char*, E>>>
  void choice(const char* key, E& out, const Names& names) {
    const Json* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) {
      bad(key, "a string");
      return;
    }
    for (const auto& [name, value] : names) {
      if (v->as_string() == name) {
        out = value;
        return;
      }
    }
    set_error(std::string("unknown ") + key + ": " + v->as_string());
  }

  /// A member that must have `type` when present; null when absent or bad.
  const Json* nested(const char* key, Json::Type type, const char* what) {
    const Json* v = take(key);
    if (v != nullptr && v->type() != type) {
      bad(key, what);
      return nullptr;
    }
    return v;
  }

  /// Records `msg`, prefixed with the object's path, unless an earlier
  /// error is already recorded.
  void set_error(const std::string& msg) {
    record(where_.empty() ? msg
                          : where_.substr(0, where_.size() - 1) + ": " + msg);
  }

  /// Finishes `child` (a nested object's reader) and adopts its error.
  void absorb(Members& child) {
    std::string err;
    if (!child.done(&err)) record(err);
  }

  /// False, with the first error in `error`, if any value was bad or any
  /// member was never asked for.
  bool done(std::string* error) {
    for (const auto& member : obj_.members()) {
      if (known_.count(member.first) == 0) {
        set_error("unknown key \"" + member.first + "\"");
      }
    }
    return error_.empty() || fail(error, error_);
  }

 private:
  const Json* take(const char* key) {
    known_.insert(key);
    return obj_.has(key) ? &obj_.get(key) : nullptr;
  }
  void bad(const char* key, const std::string& what) {
    record(where_ + key + " must be " + what);
  }
  void record(const std::string& msg) {
    if (error_.empty()) error_ = msg;
  }

  const Json& obj_;
  std::string where_;
  std::set<std::string> known_;
  std::string error_;
};

// The ranges only bound what the harness can run; they turn a typo (a
// negative count, a dropped digit) into a diagnostic instead of an abort or
// an allocation failure.
constexpr std::int64_t kMaxWindowMs = 3'600'000;  // one simulated hour
constexpr std::int64_t kMaxPayload = 8 << 20;     // the net frame limit

/// Applies every ExperimentConfig key present in `m`'s object onto `cfg`.
/// The spec root and each curve share this one reader.
void read_config(Members& m, ExperimentConfig& cfg) {
  m.choice("protocol", cfg.protocol,
           {{"byzcast-2l", Protocol::kByzCast2Level},
            {"byzcast-3l", Protocol::kByzCast3Level},
            {"baseline", Protocol::kBaseline},
            {"bft-smart", Protocol::kBftSmart}});
  m.choice("environment", cfg.environment,
           {{"lan", Environment::kLan}, {"wan", Environment::kWan}});
  m.integer("num_groups", cfg.num_groups, 1, 1024);
  m.integer("f", cfg.f, 1, 100);
  m.integer("clients_per_group", cfg.clients_per_group, 1, 1'000'000);
  m.integer("payload_size", cfg.payload_size, 0, kMaxPayload);
  m.integer("warmup_ms", cfg.warmup, 0, kMaxWindowMs, kMillisecond);
  m.integer("duration_ms", cfg.duration, 1, kMaxWindowMs, kMillisecond);
  m.integer("seed", cfg.seed, 0, std::int64_t{1} << 53);
  m.boolean("monitors", cfg.monitors);
  m.boolean("span_tracing", cfg.span_tracing);
  m.integer("span_sample_every", cfg.span_sample_every, 1, 1 << 30);
  m.integer("span_capacity", cfg.span_capacity, 1, 1 << 30);
  // 0 keeps the environment preset's value for these four.
  m.integer("pipeline_depth", cfg.pipeline_depth, 0, 1024);
  m.integer("batch_min", cfg.batch_min, 0, 1 << 20);
  m.integer("batch_max", cfg.batch_max, 0, 1 << 20);
  m.integer("batch_timeout_us", cfg.batch_timeout, 0, 60'000'000,
            kMicrosecond);
  m.integer("verify_workers", cfg.verify_workers, 0, 256);
  m.integer("exec_shards", cfg.exec_shards, 0, 256);
  if (const Json* wl = m.nested("workload", Json::Type::kObject,
                                "an object")) {
    Members w(*wl, m.where() + "workload.");
    w.choice("pattern", cfg.workload.pattern, kPatternNames);
    w.number("zipf_s", cfg.workload.zipf_s, 0.0, 100.0);
    w.integer("global_fanout", cfg.workload.global_fanout, 1, 1024);
    w.integer("mixed_local", cfg.workload.mixed_local, 0, 1'000'000);
    w.integer("mixed_global", cfg.workload.mixed_global, 0, 1'000'000);
    w.number("local_share", cfg.open_loop_local_share, 0.0, 1.0);
    m.absorb(w);
  }
  const Pattern p = cfg.workload.pattern;
  if ((p == Pattern::kGlobalFanout || p == Pattern::kZipf) &&
      cfg.workload.global_fanout > cfg.num_groups) {
    m.set_error("global_fanout exceeds num_groups");
  }
  if ((p == Pattern::kMixed || p == Pattern::kZipf) &&
      cfg.workload.mixed_local + cfg.workload.mixed_global == 0) {
    m.set_error("mixed_local + mixed_global must be positive");
  }
  if (cfg.batch_min > 0 && cfg.batch_max > 0 &&
      cfg.batch_min > cfg.batch_max) {
    m.set_error("batch_min exceeds batch_max");
  }
}

void read_rate(Members& m, RateSchedule& sched) {
  using Kind = RateSchedule::Kind;
  m.choice("kind", sched.kind,
           {{"fixed", Kind::kFixed},
            {"step", Kind::kStep},
            {"sweep", Kind::kSweep}});
  if (sched.kind == Kind::kFixed) {
    m.number("value", sched.fixed_rate, 0.0, 1e9);
    return;
  }
  if (const Json* rates = m.nested("rates", Json::Type::kArray, "an array")) {
    for (std::size_t i = 0; i < rates->size(); ++i) {
      const double r = rates->at(i).as_double();
      if (!rates->at(i).is_number() || r <= 0.0) {
        m.set_error("step/sweep rates must be > 0");
      } else if (!sched.rates.empty() && r <= sched.rates.back()) {
        m.set_error("step/sweep rates must be strictly increasing");
      }
      sched.rates.push_back(r);
    }
  }
  if (sched.rates.empty()) {
    m.set_error("step/sweep schedule requires a non-empty \"rates\"");
  }
  m.number("knee_p99_factor", sched.knee_p99_factor, 1.0, 1e6);
  m.number("knee_goodput_floor", sched.knee_goodput_floor, 0.0, 1.0);
  if (sched.kind == Kind::kSweep) {
    m.integer("bisect_iters", sched.bisect_iters, 0, 30);
  }
  if (sched.knee_p99_factor <= 1.0 || sched.knee_goodput_floor <= 0.0) {
    m.set_error("knee parameters out of range");
  }
}

/// Parses a curve's "expect": {"<metric>": {"min": r, "max": r}, ...}.
void read_expect(Members& m, const Json& expect, RateSchedule::Kind kind,
                 CurveSpec& curve) {
  for (const auto& [metric, range] : expect.members()) {
    const std::string where = m.where() + "expect." + metric + ".";
    const BoundMetric what = bound_metric(metric);
    if (what == BoundMetric::kUnknown) {
      m.set_error("unknown expect metric: " + metric);
      return;
    }
    // Each metric is defined by one schedule: the knee by a sweep, the
    // point metrics and the traced breakdown by a fixed rate's single point.
    const bool fits = kind == RateSchedule::Kind::kSweep
                          ? what == BoundMetric::kKnee
                          : kind == RateSchedule::Kind::kFixed &&
                                what != BoundMetric::kKnee;
    if (!fits) {
      m.set_error("expect metric " + metric + " does not fit the rate kind");
      return;
    }
    if (what == BoundMetric::kTraced && !curve.config.span_tracing) {
      m.set_error("expect metric " + metric + " needs span_tracing");
      return;
    }
    if (!range.is_object() || (!range.has("min") && !range.has("max"))) {
      m.set_error("expect." + metric + " needs \"min\" or \"max\"");
      return;
    }
    RatioBound bound{metric};
    Members b(range, where);
    b.number("min", bound.min, 0.0, 1e9);
    b.number("max", bound.max, 0.0, 1e9);
    if (bound.min > bound.max) b.set_error("min exceeds max");
    m.absorb(b);
    curve.expect.push_back(std::move(bound));
  }
}

}  // namespace

std::vector<CurveSpec> curves_of(const WorkloadSpec& spec) {
  if (!spec.curves.empty()) return spec.curves;
  return {CurveSpec{"baseline", spec.base, {}}};
}

std::optional<WorkloadSpec> parse_workload_spec(const Json& doc,
                                                std::string* error) {
  if (!doc.is_object()) {
    fail(error, "spec root must be an object");
    return std::nullopt;
  }
  WorkloadSpec spec;
  Members root(doc, "");
  root.text("name", spec.name);
  if (spec.name.empty()) root.set_error("spec requires a non-empty \"name\"");
  read_config(root, spec.base);
  if (const Json* rate = root.nested("rate", Json::Type::kObject,
                                     "an object")) {
    Members m(*rate, "rate.");
    read_rate(m, spec.schedule);
    root.absorb(m);
  }
  if (const Json* curves = root.nested("curves", Json::Type::kArray,
                                       "an array")) {
    if (curves->size() == 0) root.set_error("curves must not be empty");
    std::set<std::string> labels;
    for (std::size_t i = 0; i < curves->size(); ++i) {
      const std::string where = "curves[" + std::to_string(i) + "]";
      if (!curves->at(i).is_object()) {
        root.set_error(where + " must be an object");
        break;
      }
      Members m(curves->at(i), where + ".");
      CurveSpec curve{"", spec.base, {}};
      m.text("label", curve.label);
      if (curve.label.empty()) m.set_error("label must be a non-empty string");
      if (!labels.insert(curve.label).second) {
        m.set_error("duplicate label \"" + curve.label + "\"");
      }
      read_config(m, curve.config);
      if (const Json* expect = m.nested("expect", Json::Type::kObject,
                                        "an object")) {
        if (i == 0) {
          m.set_error("the first curve is every bound's reference and "
                      "carries no expect");
        }
        read_expect(m, *expect, spec.schedule.kind, curve);
      }
      root.absorb(m);
      spec.curves.push_back(std::move(curve));
    }
  }
  if (!root.done(error)) return std::nullopt;
  return spec;
}

std::optional<WorkloadSpec> load_workload_spec(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open workload spec: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  const auto doc = Json::parse(text.str(), &parse_error);
  if (!doc) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  return parse_workload_spec(*doc, error);
}

}  // namespace byzcast::workload
