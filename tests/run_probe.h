// Golden probes of whole experiment runs. A RunProbe holds the scalar
// metrics of one RunMetrics, compared exactly (doubles bit for bit), plus
// a 64-bit FNV-1a digest of the run's SloReport JSON, so a test can pin a
// seeded run to literals. A deliberate model change updates the literals:
// on a mismatch ExpectRunProbe prints the replacement, with doubles as
// hexfloats.

#ifndef DIKNN_TESTS_RUN_PROBE_H_
#define DIKNN_TESTS_RUN_PROBE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "harness/metrics.h"

namespace diknn {

struct RunProbe {
  int queries = 0;
  int timeouts = 0;
  double avg_latency = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double avg_pre_accuracy = 0.0;
  double avg_post_accuracy = 0.0;
  double energy_joules = 0.0;
  double beacon_energy_joules = 0.0;
  double average_degree = 0.0;
  uint64_t events_fired = 0;
  uint64_t slo_digest = 0;

  bool operator==(const RunProbe&) const = default;
};

inline uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

inline RunProbe ProbeOf(const RunMetrics& m) {
  return RunProbe{m.queries,
                  m.timeouts,
                  m.avg_latency,
                  m.p50_latency,
                  m.p95_latency,
                  m.p99_latency,
                  m.avg_pre_accuracy,
                  m.avg_post_accuracy,
                  m.energy_joules,
                  m.beacon_energy_joules,
                  m.average_degree,
                  m.engine.events_fired,
                  Fnv1a64(m.slo.ToJson())};
}

// `probe` as a designated-initializer literal.
inline std::string Literal(const RunProbe& probe) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "      {.queries = %d,\n"
      "       .timeouts = %d,\n"
      "       .avg_latency = %a,\n"
      "       .p50_latency = %a,\n"
      "       .p95_latency = %a,\n"
      "       .p99_latency = %a,\n"
      "       .avg_pre_accuracy = %a,\n"
      "       .avg_post_accuracy = %a,\n"
      "       .energy_joules = %a,\n"
      "       .beacon_energy_joules = %a,\n"
      "       .average_degree = %a,\n"
      "       .events_fired = %lluu,\n"
      "       .slo_digest = 0x%016llxull},\n",
      probe.queries, probe.timeouts, probe.avg_latency, probe.p50_latency,
      probe.p95_latency, probe.p99_latency, probe.avg_pre_accuracy,
      probe.avg_post_accuracy, probe.energy_joules,
      probe.beacon_energy_joules, probe.average_degree,
      static_cast<unsigned long long>(probe.events_fired),
      static_cast<unsigned long long>(probe.slo_digest));
  return buf;
}

inline void ExpectRunProbe(const RunMetrics& m, const RunProbe& golden) {
  const RunProbe actual = ProbeOf(m);
  EXPECT_TRUE(actual == golden) << "replacement literal:\n"
                                << Literal(actual);
}

}  // namespace diknn

#endif  // DIKNN_TESTS_RUN_PROBE_H_
