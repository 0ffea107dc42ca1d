// bench_channel — channel-layer scalability microbenchmark.
//
// Drives a constant-density barrage of broadcast frames (plus a carrier-
// sense probe per frame, mimicking CSMA) through the radio substrate at
// N in {250, 1000, 4000, 8000, 16000, 32000} nodes and reports the spatial
// grid's wall-clock frames/sec and receiver candidates per frame. (That
// the grid reaches exactly the receivers a full scan would is checked by
// channel_grid_test's brute-force oracle, not here.) Emits
// machine-readable BENCH_channel.json in the working directory so the
// perf trajectory can be tracked across changes.
//
// Env knobs: DIKNN_BENCH_FRAMES (frames per configuration, default 8000),
// DIKNN_BENCH_SIZES (comma-separated node counts).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "net/network.h"

#include "bench_common.h"

namespace {

using namespace diknn;

struct Result {
  int nodes = 0;
  int frames = 0;
  double wall_s = 0.0;
  double frames_per_s = 0.0;
  ChannelStats stats;
};

int FramesFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_FRAMES");
  const int frames = env != nullptr ? std::atoi(env) : 0;
  return frames > 0 ? frames : 8000;
}

std::vector<int> SizesFromEnv() {
  const char* env = std::getenv("DIKNN_BENCH_SIZES");
  const std::vector<int> defaults = {250, 1000, 4000, 8000, 16000, 32000};
  if (env == nullptr) return defaults;
  std::vector<int> sizes;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) sizes.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return sizes.empty() ? defaults : sizes;
}

Result RunBarrage(int node_count, int frames) {
  NetworkConfig config;
  config.node_count = node_count;
  // Constant density: scale the paper's 115x115 m / 200-node field.
  const double side = 115.0 * std::sqrt(node_count / 200.0);
  config.field = Rect::Field(side, side);
  config.mobility = MobilityKind::kRandomWaypoint;
  config.seed = 99;
  Network net(config);
  Channel& channel = net.channel();

  // Round-robin senders, uniform arrival spacing over enough simulated
  // time that mobility crosses many grid refresh intervals (40 at the
  // default 0.25 s). Each frame carrier-senses first, like the MAC does.
  const double sim_span = 10.0;
  const double gap = sim_span / frames;
  std::vector<Node*> nodes = net.AllNodes();
  for (int i = 0; i < frames; ++i) {
    Node* sender = nodes[i % nodes.size()];
    net.sim().ScheduleAt(i * gap, [&channel, sender]() {
      Packet p;
      p.type = MessageType::kBeacon;
      p.dst = kBroadcastId;
      p.size_bytes = 32;
      p.uid = 0;
      (void)channel.IsBusyAt(sender->Position());
      channel.Transmit(sender, p);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  net.sim().Run();
  const auto stop = std::chrono::steady_clock::now();

  Result r;
  r.nodes = node_count;
  r.frames = frames;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.frames_per_s = frames / std::max(r.wall_s, 1e-9);
  r.stats = channel.stats();
  return r;
}

double CandidatesPerFrame(const Result& r) {
  return static_cast<double>(r.stats.candidates_scanned) / r.frames;
}

void WriteJson(const std::vector<Result>& results) {
  std::ofstream out("BENCH_channel.json");
  out << "{\n  \"bench\": \"channel\",\n  " << bench::ProvenanceJson()
      << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"nodes\": " << r.nodes << ", \"mode\": \"grid\""
        << ", \"frames\": " << r.frames << ", \"wall_s\": " << r.wall_s
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"candidates_scanned\": " << r.stats.candidates_scanned
        << ", \"candidates_per_frame\": " << CandidatesPerFrame(r)
        << ", \"delivered\": " << r.stats.receptions_delivered << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  const int frames = FramesFromEnv();
  const std::vector<int> sizes = SizesFromEnv();

  std::printf("=== bench_channel: %d frames per config ===\n", frames);
  std::printf("%-8s %12s %10s %16s\n", "nodes", "frames/sec", "wall(s)",
              "cand/frame");

  std::vector<Result> results;
  for (int n : sizes) {
    const Result r = RunBarrage(n, frames);
    std::printf("%-8d %12.0f %10.3f %16.1f\n", r.nodes, r.frames_per_s,
                r.wall_s, CandidatesPerFrame(r));
    results.push_back(r);
  }

  WriteJson(results);
  std::printf("wrote BENCH_channel.json\n");
  return 0;
}
