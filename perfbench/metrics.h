// Metric arithmetic of the repository benchmark: tail percentiles that
// refuse to report without enough samples beyond them, ratios that carry
// their base, the served workload's goodput knee, the failure ratio, and
// the in-memory span log of the traced run. Pure functions over plain
// data, so perfbench_metrics_test can pin every rule on synthetic input.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload/query_driver.h"

namespace perfbench {

/// A ratio printed together with its base. A zero base yields the base
/// itself (0) instead of a division, so "0 (base 0)" is distinguishable
/// from a measured zero only through the printed base.
struct Ratio {
  double num = 0.0;
  double base = 0.0;

  double value() const { return base == 0.0 ? base : num / base; }
};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile with its sample accounting. `ok` is false when
/// fewer than kMinBeyond samples lie beyond the percentile's rank; then
/// `value` is 0 and `needed` says how many samples would have sufficed.
struct TailPercentile {
  bool ok = false;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< Samples ranked after the reported one.
  size_t needed = 0;  ///< Smallest sample count that reports this p.
};

TailPercentile PercentileWithTail(std::vector<double> samples, double p);

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty. Host-time metrics are reported as medians over repetitions.
double Median(std::vector<double> values);

/// Outcome partition of issued queries. Shed queries are scored
/// kRejected by the QueryDriver, so they sit inside `rejected`.
struct OutcomeCounts {
  uint64_t issued = 0;
  uint64_t completed = 0;  ///< Within the deadline (or no deadline).
  uint64_t deadline_missed = 0;
  uint64_t rejected = 0;   ///< Admission rejections and sheds.
  uint64_t shed = 0;       ///< The shed part of `rejected`.
  uint64_t timed_out = 0;

  void Add(const OutcomeCounts& other);
  bool Consistent() const {
    return issued == completed + deadline_missed + rejected + timed_out;
  }
};

OutcomeCounts Tally(const std::vector<diknn::WorkloadQueryRecord>& records);

/// (deadline-missed + rejected or shed + timed out) / issued.
Ratio FailRatio(const OutcomeCounts& counts);

/// One rung of an offered-rate ladder.
struct Rung {
  double rate_qps = 0.0;
  OutcomeCounts counts;
};

/// The highest ladder rate at which at least `min_on_time` of the issued
/// queries completed within their deadline (rejected, shed, timed-out and
/// late queries all count as misses). `passed_any` is false when no rung
/// passes (qps is then 0); `censored` is true when every rung passes, so
/// the true knee lies at or above the top rung.
struct Knee {
  double qps = 0.0;
  bool passed_any = false;
  bool censored = false;
};

Knee KneeQps(const std::vector<Rung>& ladder, double min_on_time = 0.9);

/// Spans of the traced run: one per benchmark call into a layer, with the
/// span that caused it and the run id every span of one process shares.
/// Kept in memory and written out once at the end.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< Index into the log; -1 for a root.
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled, uint64_t run_id = 0)
      : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when the log is disabled.
  int Begin(const std::string& name, const std::string& layer);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time in seconds: each span's duration minus the time
  /// its direct children cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Chrome-trace JSON of every span (one process, one thread), with
  /// `provenance` as a top-level string.
  std::string ToJson(const std::string& provenance) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& layer)
      : log_(log), index_(log->Begin(name, layer)) {}
  ~ScopedSpan() { log_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
