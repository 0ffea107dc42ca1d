// bench_workload — offered-load sweep for the query-serving engine.
//
// Drives the workload engine's open-loop Poisson arrivals against DIKNN
// and the KPT+KNNB baseline across offered loads from well below to well
// above saturation (0.25 -> 32 q/s), with a 4 s deadline and a bounded
// admission queue, and reports the serving-side story the paper's
// one-query-at-a-time harness cannot see: goodput vs offered load, tail
// latency growth (p50/p95/p99), and where deadline misses and admission
// rejections set in.
//
// Two configurations per protocol:
//   plain  — every query launches its own itinerary (the pre-serving
//            baseline; the knee sits at ~1-2 q/s because concurrent
//            itineraries saturate the shared channel).
//   served — hotspot + Zipf query locality fronted by the serving stack
//            (result cache + coalescing + deadline-aware shedding, see
//            docs/SERVING.md), which answers most arrivals without
//            touching the channel and moves the knee out by an order of
//            magnitude.
//
// Each (protocol, config) sweep also reports knee_qps: the first offered
// rate whose goodput/offered ratio drops below 0.5, or -1 when no swept
// rate fails. Emitted into BENCH_workload.json so the knee can be tracked
// across PRs.
//
// All numbers are bit-identical at any DIKNN_JOBS setting (each run owns
// its stack; reports merge by integer bucket counts).
//
// Env knobs: DIKNN_RUNS, DIKNN_DURATION, DIKNN_JOBS (see bench_common.h),
// plus DIKNN_WORKLOAD_SMOKE=1 for a two-point CI-sized sweep. Every point
// runs on the serial engine.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/workload_spec.h"

namespace {

using namespace diknn;
using namespace diknn::bench;

// k = 20 queries, a 4 s deadline (about twice the uncongested p50, so low
// load completes and the saturation knee shows as misses), and admission
// bounded at 64 in flight with a 32-slot queue so deep overload turns
// into rejections instead of unbounded queueing.
constexpr char kPlainTemplate[] =
    "arrival@kind=poisson,rate=R;k@lo=20;deadline@s=4;"
    "admit@inflight=64,queue=32";

// The served sweep adds query locality (4 Zipf-weighted hotspots, tight
// sigma) — the regime caches and coalescers exist for — and fronts it
// with the full serving stack. The inflight bound is raised so parked
// followers never consume admission slots a leader needs.
// Cells are deliberately coarse (4x4 over the 115 m field): each hotspot
// then maps to ~1 cell, so at most one leader itinerary per hotspot is in
// flight at a time and everything else rides the cache or coalesces.
constexpr char kServedTemplate[] =
    "arrival@kind=poisson,rate=R;k@lo=20;"
    "space@kind=hotspot,n=4,sigma=6,skew=1.5;deadline@s=4;"
    "admit@inflight=256,queue=64,shed=1;"
    "cache@ttl=8,cells=4;coalesce@window=2.5,kslack=10";

struct SweepConfig {
  const char* name;
  const char* spec_template;
};

constexpr SweepConfig kConfigs[] = {
    {"plain", kPlainTemplate},
    {"served", kServedTemplate},
};

std::string SpecForRate(const char* spec_template, double rate) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  std::string spec = spec_template;
  return spec.replace(spec.find("=R"), 2, std::string("=") + buf);
}

}  // namespace

int main() {
  const bool smoke = []() {
    const char* env = std::getenv("DIKNN_WORKLOAD_SMOKE");
    return env != nullptr && std::atoi(env) != 0;
  }();

  std::vector<double> rates = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  const std::vector<ProtocolKind> protocols = {ProtocolKind::kDiknn,
                                               ProtocolKind::kKptKnnb};

  ExperimentConfig base = PaperDefaults(ProtocolKind::kDiknn);
  base.duration = DurationFromEnv(smoke ? 8.0 : 40.0);
  if (smoke) {
    rates = {1, 8};
    base.runs = 1;
  }

  std::printf("=== bench_workload: offered-load sweep ===\n");
  std::printf("runs/point=%d, duration=%.0fs, jobs=%d%s\n", base.runs,
              base.duration, base.jobs, smoke ? " (smoke)" : "");
  std::printf("%-8s %-8s %-8s %8s %8s %8s %8s %8s %7s %7s %7s %9s %6s\n",
              "config", "qps", "protocol", "issued", "goodput", "p50(s)",
              "p95(s)", "p99(s)", "miss%", "rej%", "tmo%", "cache", "coal");

  std::string points;
  std::string knees;
  for (const SweepConfig& sweep : kConfigs) {
    for (ProtocolKind kind : protocols) {
      double knee_qps = -1.0;
      for (double rate : rates) {
        std::string error;
        const auto spec =
            WorkloadSpec::Parse(SpecForRate(sweep.spec_template, rate),
                                &error);
        if (!spec) {
          std::fprintf(stderr, "internal: bad sweep spec: %s\n",
                       error.c_str());
          return 1;
        }
        ExperimentConfig config = base;
        config.protocol = kind;
        config.workload = *spec;
        const ExperimentMetrics agg = RunExperiment(config);
        const SloReport& slo = agg.slo;
        std::printf("%-8s %-8g %-8s %8llu %8.2f %8.3f %8.3f %8.3f %6.1f%% "
                    "%6.1f%% %6.1f%% %9llu %6llu\n",
                    sweep.name, rate, ProtocolName(kind),
                    static_cast<unsigned long long>(slo.issued),
                    slo.GoodputQps(), slo.p50(), slo.p95(), slo.p99(),
                    100 * slo.MissRate(), 100 * slo.RejectRate(),
                    100 * slo.TimeoutRate(),
                    static_cast<unsigned long long>(slo.serving.cache_hits),
                    static_cast<unsigned long long>(slo.serving.coalesced));
        std::fflush(stdout);

        if (knee_qps < 0.0 && slo.GoodputQps() / rate < 0.5) {
          knee_qps = rate;
        }

        char head[160];
        std::snprintf(head, sizeof(head),
                      "    {\"config\": \"%s\", \"protocol\": \"%s\", "
                      "\"offered_qps\": %g, ",
                      sweep.name, ProtocolName(kind), rate);
        std::string slo_json = slo.ToJson();
        // Splice the SLO fields into the point object (strip its braces).
        const size_t open = slo_json.find('{');
        const size_t close = slo_json.rfind('}');
        slo_json = slo_json.substr(open + 1, close - open - 1);
        if (!points.empty()) points += ",\n";
        points += head + slo_json + "}";
      }
      char knee[128];
      std::snprintf(knee, sizeof(knee),
                    "    {\"config\": \"%s\", \"protocol\": \"%s\", "
                    "\"knee_qps\": %g}",
                    sweep.name, ProtocolName(kind), knee_qps);
      if (!knees.empty()) knees += ",\n";
      knees += knee;
      std::printf("  -> %s/%s knee_qps=%g%s\n", sweep.name,
                  ProtocolName(kind), knee_qps,
                  knee_qps < 0.0 ? " (no swept rate fell below 0.5)" : "");
    }
  }

  std::ofstream out("BENCH_workload.json");
  out << "{\n  \"bench\": \"workload\",\n"
      << "  " << bench::ProvenanceJson() << ",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"plain_template\": \"" << kPlainTemplate << "\",\n"
      << "  \"served_template\": \"" << kServedTemplate << "\",\n"
      << "  \"runs_per_point\": " << base.runs << ",\n"
      << "  \"duration_s\": " << base.duration << ",\n"
      << "  \"knees\": [\n" << knees << "\n  ],\n"
      << "  \"points\": [\n" << points << "\n  ]\n}\n";
  std::printf("wrote BENCH_workload.json (%zu points)\n",
              rates.size() * protocols.size() * std::size(kConfigs));
  return 0;
}
