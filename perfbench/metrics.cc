#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Nearest rank of percentile p in a sample of n (1-based); the small
// epsilon keeps exact products such as 95 * 200 / 100 from rounding up.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

TailPercentile PercentileWithTail(std::vector<double> samples, double p) {
  TailPercentile out;
  out.samples = samples.size();
  if (p < 100.0) {
    for (size_t n = 1;; ++n) {
      if (n - NearestRank(p, n) >= kMinBeyond) {
        out.needed = n;
        break;
      }
    }
  }
  if (samples.empty()) return out;
  const size_t rank = NearestRank(p, samples.size());
  out.beyond = samples.size() - rank;
  if (out.beyond < kMinBeyond) return out;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.ok = true;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void OutcomeCounts::Add(const OutcomeCounts& other) {
  issued += other.issued;
  completed += other.completed;
  deadline_missed += other.deadline_missed;
  rejected += other.rejected;
  shed += other.shed;
  timed_out += other.timed_out;
}

OutcomeCounts Tally(const std::vector<diknn::WorkloadQueryRecord>& records) {
  using diknn::QueryOutcome;
  OutcomeCounts c;
  for (const diknn::WorkloadQueryRecord& r : records) {
    ++c.issued;
    switch (r.outcome) {
      case QueryOutcome::kCompleted:
        ++c.completed;
        break;
      case QueryOutcome::kDeadlineMissed:
        ++c.deadline_missed;
        break;
      case QueryOutcome::kRejected:
        ++c.rejected;
        if (r.path == diknn::ServingPath::kShed) ++c.shed;
        break;
      case QueryOutcome::kTimedOut:
        ++c.timed_out;
        break;
    }
  }
  return c;
}

Ratio FailRatio(const OutcomeCounts& counts) {
  return {static_cast<double>(counts.deadline_missed + counts.rejected +
                              counts.timed_out),
          static_cast<double>(counts.issued)};
}

Knee KneeQps(const std::vector<Rung>& ladder, double min_on_time) {
  Knee knee;
  knee.censored = !ladder.empty();
  for (const Rung& rung : ladder) {
    const OutcomeCounts& c = rung.counts;
    const bool passes =
        c.issued > 0 && static_cast<double>(c.completed) >=
                            min_on_time * static_cast<double>(c.issued);
    if (!passes) {
      knee.censored = false;
      continue;
    }
    if (!knee.passed_any || rung.rate_qps > knee.qps) knee.qps = rung.rate_qps;
    knee.passed_any = true;
  }
  return knee;
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                                 child_ns[i]);
  }
  return self;
}

std::string SpanLog::ToJson(const std::string& provenance) const {
  std::string out = "{\"provenance\":\"" + provenance +
                    "\",\"run_id\":" + std::to_string(run_id_) +
                    ",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
