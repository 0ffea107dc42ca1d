// bench_pdes — parallel-engine scalability benchmark.
//
// One sweep over the conservative PDES engine (src/psim), which runs the
// beacon substrate only: node count x shard count at constant field
// density; reports wall-clock frames/sec plus a load-balance model of the
// achievable speedup. On every row the partition-invariant traffic
// counters are checked against the 1-shard anchor of the same N; a
// silent determinism break fails the bench.
//
// Load imbalance is attributed, not inferred: every row carries a
// per-shard block with the busy clock, the barrier-wait share
// (wait / (busy + wait)), and the mailbox high-water marks, so "shard 3
// is the straggler because its inboxes run deep" is readable straight
// from BENCH_pdes.json.
//
// Machine-parallelism caveat, reported rather than hidden: the JSON
// carries host_cpus, and when the host has fewer cores than shards the
// wall-clock column cannot show a speedup. The `speedup_model` column —
// busy_sum / busy_max over the per-shard busy clocks, i.e. the speedup a
// perfectly parallel host would see given the actual load balance — is
// the honest scalability signal in that case.
//
// Env knobs:
//   DIKNN_BENCH_PDES_SIZES   comma-separated N (default 2000,20000,100000)
//   DIKNN_BENCH_PDES_SHARDS  comma-separated shard counts (default 1,2,4,8)
//   DIKNN_BENCH_PDES_DURATION  simulated seconds per run (default 0.5)
//   DIKNN_PDES_SMOKE=1       run the small shard-equivalence smoke only
//                            (used by scripts/check_all.sh); exits
//                            nonzero on any counter mismatch.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "psim/engine.h"

#include "bench_common.h"

namespace {

using namespace diknn;

std::vector<int> IntListFromEnv(const char* name,
                                std::vector<int> defaults) {
  const char* env = std::getenv(name);
  if (env == nullptr) return defaults;
  std::vector<int> values;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) values.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return values.empty() ? defaults : values;
}

double DurationFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_PDES_DURATION");
  const double d = env != nullptr ? std::atof(env) : 0.0;
  return d > 0.0 ? d : 0.5;
}

PsimConfig ConfigFor(int nodes, int shards, double duration) {
  PsimConfig config;
  config.node_count = nodes;
  // Constant density: scale the paper's 115x115 m / 200-node field.
  const double side = 115.0 * std::sqrt(nodes / 200.0);
  config.field = Rect::Field(side, side);
  config.shards = shards;
  config.duration = duration;
  config.seed = 99;
  return config;
}

struct ShardDetail {
  double busy_s = 0.0;
  double barrier_wait_s = 0.0;
  double wait_share = 0.0;  ///< wait / (busy + wait); imbalance signal.
  uint64_t frames_hwm = 0;
  uint64_t migrations_hwm = 0;
};

struct Row {
  int nodes = 0;
  int shards_requested = 0;
  int shards = 0;
  uint64_t windows = 0;
  uint64_t frames = 0;
  double wall_s = 0.0;
  double frames_per_s = 0.0;
  double busy_sum_s = 0.0;
  double busy_max_s = 0.0;
  double speedup_model = 0.0;
  double efficiency_model = 0.0;
  double max_wait_share = 0.0;
  std::vector<ShardDetail> per_shard;
  bool invariant_ok = true;
};

void FillShardDetail(const PsimResult& r, Row* row) {
  for (const PsimStats& s : r.shard_stats) {
    ShardDetail d;
    d.busy_s = s.busy_s;
    d.barrier_wait_s = s.barrier_wait_s;
    const double denom = s.busy_s + s.barrier_wait_s;
    d.wait_share = denom > 0.0 ? s.barrier_wait_s / denom : 0.0;
    d.frames_hwm = s.frames_mailbox_hwm;
    d.migrations_hwm = s.migrations_mailbox_hwm;
    row->busy_sum_s += s.busy_s;
    row->busy_max_s = std::max(row->busy_max_s, s.busy_s);
    row->max_wait_share = std::max(row->max_wait_share, d.wait_share);
    row->per_shard.push_back(d);
  }
  row->speedup_model = row->busy_max_s > 0.0
                           ? row->busy_sum_s / row->busy_max_s
                           : static_cast<double>(r.shards);
  row->efficiency_model = row->speedup_model / r.shards;
}

Row RunOne(const PsimConfig& config,
           const PsimStats::Invariants* anchor,
           PsimStats::Invariants* invariants_out) {
  const PsimResult r = RunPsim(config);
  *invariants_out = r.totals.InvariantCounters();
  Row row;
  row.nodes = config.node_count;
  row.shards_requested = config.shards;
  row.shards = r.shards;
  row.windows = r.windows;
  row.frames = r.totals.frames_sent;
  row.wall_s = r.wall_s;
  row.frames_per_s =
      static_cast<double>(row.frames) / std::max(r.wall_s, 1e-9);
  FillShardDetail(r, &row);
  row.invariant_ok =
      anchor == nullptr || r.totals.InvariantCounters() == *anchor;
  return row;
}

void WriteRows(std::ofstream& out, const std::vector<Row>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"nodes\": " << r.nodes << ", \"shards\": " << r.shards
        << ", \"shards_requested\": " << r.shards_requested
        << ", \"windows\": " << r.windows << ", \"frames\": " << r.frames
        << ", \"wall_s\": " << r.wall_s
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"busy_sum_s\": " << r.busy_sum_s
        << ", \"busy_max_s\": " << r.busy_max_s
        << ", \"speedup_model\": " << r.speedup_model
        << ", \"efficiency_model\": " << r.efficiency_model
        << ", \"invariant_ok\": " << (r.invariant_ok ? "true" : "false")
        << ",\n     \"per_shard\": [";
    for (size_t s = 0; s < r.per_shard.size(); ++s) {
      const ShardDetail& d = r.per_shard[s];
      out << (s > 0 ? ", " : "") << "{\"busy_s\": " << d.busy_s
          << ", \"barrier_wait_s\": " << d.barrier_wait_s
          << ", \"wait_share\": " << d.wait_share
          << ", \"frames_hwm\": " << d.frames_hwm
          << ", \"migrations_hwm\": " << d.migrations_hwm << "}";
    }
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

void WriteJson(const std::vector<Row>& rows, bool all_ok) {
  std::ofstream out("BENCH_pdes.json");
  out << "{\n  \"bench\": \"pdes\",\n  " << bench::ProvenanceJson()
      << ",\n  \"equivalent\": " << (all_ok ? "true" : "false")
      << ",\n  \"results\": [\n";
  WriteRows(out, rows);
  out << "  ]\n}\n";
}

// Shard-equivalence smoke for scripts/check_all.sh: a short dense run on
// a field wide enough for four genuine strips; any drift in the
// partition-invariant counters or the exchange balance is a hard fail.
int RunSmoke() {
  PsimConfig config;
  config.node_count = 768;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;
  config.loss_rate = 0.05;
  config.duration = 0.6;
  config.seed = 42;

  config.shards = 1;
  const PsimResult anchor = RunPsim(config);
  if (anchor.totals.frames_sent == 0) {
    std::fprintf(stderr, "PDES smoke: anchor run sent no frames\n");
    return 1;
  }
  for (int shards : {2, 4}) {
    config.shards = shards;
    const PsimResult r = RunPsim(config);
    if (r.shards != shards) {
      std::fprintf(stderr, "PDES smoke: wanted %d shards, got %d\n",
                   shards, r.shards);
      return 1;
    }
    if (!(r.totals.InvariantCounters() ==
          anchor.totals.InvariantCounters())) {
      std::fprintf(stderr,
                   "PDES smoke: traffic counters diverged at %d shards "
                   "(frames %llu vs %llu, delivered %llu vs %llu)\n",
                   shards,
                   static_cast<unsigned long long>(r.totals.frames_sent),
                   static_cast<unsigned long long>(
                       anchor.totals.frames_sent),
                   static_cast<unsigned long long>(
                       r.totals.receptions_delivered),
                   static_cast<unsigned long long>(
                       anchor.totals.receptions_delivered));
      return 1;
    }
    if (r.totals.boundary_frames != r.totals.foreign_frames ||
        r.totals.migrations_out != r.totals.migrations_in ||
        r.totals.audit_mismatches != 0) {
      std::fprintf(stderr,
                   "PDES smoke: exchange imbalance at %d shards\n",
                   shards);
      return 1;
    }
    bool allocs_clean = true;
    for (const PsimStats& s : r.shard_stats) {
      allocs_clean = allocs_clean && s.steady_allocs == 0;
    }
    if (!allocs_clean) {
      std::fprintf(stderr,
                   "PDES smoke: steady-state allocations at %d shards\n",
                   shards);
      return 1;
    }
  }
  std::printf("PDES smoke: shards {1,2,4} equivalent, %llu frames\n",
              static_cast<unsigned long long>(anchor.totals.frames_sent));
  return 0;
}

std::vector<Row> Sweep(const std::vector<int>& sizes,
                       const std::vector<int>& shard_counts,
                       double duration, bool* all_ok) {
  std::printf("%-9s %-7s %10s %12s %10s %8s %6s %6s\n", "nodes", "shards",
              "frames", "frames/sec", "wall(s)", "model", "wait%", "ok");
  std::vector<Row> rows;
  for (int n : sizes) {
    // The first shard count of the list anchors the invariant check for
    // this N; every later row must match it exactly.
    PsimStats::Invariants anchor{};
    bool have_anchor = false;
    for (int shards : shard_counts) {
      PsimStats::Invariants invariants{};
      const Row row = RunOne(ConfigFor(n, shards, duration),
                             have_anchor ? &anchor : nullptr, &invariants);
      if (!have_anchor) {
        anchor = invariants;
        have_anchor = true;
      }
      *all_ok = *all_ok && row.invariant_ok;
      std::printf("%-9d %-7d %10llu %12.0f %10.3f %7.2fx %5.1f%% %6s\n",
                  row.nodes, row.shards,
                  static_cast<unsigned long long>(row.frames),
                  row.frames_per_s, row.wall_s, row.speedup_model,
                  100.0 * row.max_wait_share,
                  row.invariant_ok ? "yes" : "NO");
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace

int main() {
  const char* smoke = std::getenv("DIKNN_PDES_SMOKE");
  if (smoke != nullptr && std::strcmp(smoke, "1") == 0) {
    return RunSmoke();
  }

  const std::vector<int> sizes =
      IntListFromEnv("DIKNN_BENCH_PDES_SIZES", {2000, 20000, 100000});
  const std::vector<int> shard_counts =
      IntListFromEnv("DIKNN_BENCH_PDES_SHARDS", {1, 2, 4, 8});
  const double duration = DurationFromEnv();

  std::printf("=== bench_pdes: %.2f simulated s, host has %u cpus ===\n",
              duration, std::thread::hardware_concurrency());

  bool all_ok = true;
  const std::vector<Row> rows = Sweep(sizes, shard_counts, duration, &all_ok);

  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: traffic counters diverged across shard counts\n");
  }
  WriteJson(rows, all_ok);
  std::printf("wrote BENCH_pdes.json\n");
  return all_ok ? 0 : 1;
}
