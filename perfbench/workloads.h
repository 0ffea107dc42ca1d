// The benchmark's workloads. Each drives the simulator from outside,
// through its public calls only (ProtocolStack / Network::Warmup,
// QueryDriver::Run or the paper's one-at-a-time generator, PsimEngine),
// and returns a Report of named metrics and correctness checks.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;  ///< Where the traced run writes its span log.
  std::string provenance;  ///< Stamped into every file the run writes.
};

/// A named value with its unit and direction ("lower" / "higher").
struct Metric {
  std::string name;
  std::string unit;
  std::string better;
  double value = 0.0;
  std::string note;  ///< Base, sample count or other qualifier.
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Report {
  std::string label;                ///< Engine / model label.
  std::vector<Metric> end_to_end;   ///< Host metrics, every workload.
  std::vector<Metric> modeled;      ///< Paper / serving metrics, if any.
  std::map<std::string, Metric> per_layer;
  std::vector<Check> checks;
  std::vector<std::string> notes;   ///< Known defects, caveats.
  uint64_t simulations = 0;         ///< Simulation runs executed.
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// The per-layer metric catalogue (name, unit, better), in print order.
/// Every workload prints every entry; a layer the workload does not run
/// reports 0.
const std::vector<Metric>& PerLayerCatalogue();

/// Runs one workload. Returns false for an unknown workload name.
bool RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
