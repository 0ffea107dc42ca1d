// perfbench: the repository benchmark program.
//
//   perfbench --workload <field-2k|served-200|sharded-20k> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//             [--git-sha <sha>] [--src-digest <hex>]
//
// Prints provenance, every metric by name with unit and direction, the
// correctness checks and notes, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// a check fails, 2 on bad arguments. Normally launched by run.py, which
// builds it first; see README.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Metric;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--git-sha <sha>] "
               "[--src-digest <hex>]\nworkloads:",
               argv0);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintMetric(const char* section, const Metric& m) {
  std::printf("%-10s %-30s %16.10g %-5s %-6s  %s\n", section, m.name.c_str(),
              m.value, m.unit.c_str(), m.better.c_str(), m.note.c_str());
}

void AppendJson(std::string* json, const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->back() == '{' ? "" : ", ", m.name.c_str(), m.value,
                m.unit.c_str());
  *json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown", src_digest = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--src-digest") {
      src_digest = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !(options.seconds > 0.0)) {
    return Usage(argv[0]);
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  char provenance[512];
  std::snprintf(provenance, sizeof(provenance),
                "nproc=%u build_type=%s compiler=%s git_sha=%s src_sha256=%s "
                "seed=%llu",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, git_sha.c_str(), src_digest.c_str(),
                static_cast<unsigned long long>(options.seed));
  options.provenance = provenance;
  std::printf("# provenance: %s\n", provenance);
  std::fflush(stdout);

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) return Usage(argv[0]);

  std::printf("# model: %s\n", report.label.c_str());
  std::printf("%-10s %-30s %16s %-5s %-6s  %s\n", "# section", "metric",
              "value", "unit", "better", "note");
  for (const Metric& m : report.end_to_end) PrintMetric("end_to_end", m);
  for (const Metric& m : report.modeled) PrintMetric("modeled", m);
  if (options.trace) {
    for (const Metric& entry : perfbench::PerLayerCatalogue()) {
      Metric m = entry;
      const auto it = report.per_layer.find(m.name);
      if (it != report.per_layer.end()) {
        m.value = it->second.value;
        m.note = it->second.note;
      } else {
        m.note = "layer not run by this workload";
      }
      report.per_layer[m.name] = m;
      PrintMetric("per_layer", m);
    }
  }
  uint64_t failed = 0;
  for (const perfbench::Check& c : report.checks) {
    if (!c.passed) ++failed;
    std::printf("check      %-4s %s (%s)\n", c.passed ? "PASS" : "FAIL",
                c.name.c_str(), c.detail.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("note       %s\n", note.c_str());
  }

  std::string metrics = "{";
  if (options.trace) {
    for (const Metric& entry : perfbench::PerLayerCatalogue()) {
      AppendJson(&metrics, report.per_layer[entry.name]);
    }
  } else {
    for (const Metric& m : report.end_to_end) AppendJson(&metrics, m);
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.simulations +
                                      report.checks.size()),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return failed == 0 ? 0 : 1;
}
