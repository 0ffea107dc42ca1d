#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "faults/lifecycle_auditor.h"
#include "harness/experiment.h"
#include "metrics.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "psim/engine.h"
#include "workload/query_driver.h"
#include "workload/workload_spec.h"

namespace perfbench {
namespace {

using namespace diknn;

// ---------------------------------------------------------------------------
// Workload definitions. Each run repeats a fixed-size simulation `reps`
// times, with per-repetition seeds derived from --seed; reps scales with
// --seconds through a fixed nominal cost, never through a measured time,
// so the modeled outputs of a (seed, seconds) pair always repeat exactly.

// field-2k: the paper's Section 5.1 density scaled to N = 2000.
constexpr int kFieldNodes = 2000;
constexpr double kFieldSide = 363.7;
constexpr double kFieldWindow = 10.0;  // Query-issue window (s), then drain.
constexpr double kFieldNominalRepS = 2.5;

// served-200: the paper's field under an open-loop serving ladder.
constexpr double kServedRates[] = {1, 2, 4, 8, 16, 32};
constexpr double kServedReportRate = 8;
constexpr double kServedWindow = 10.0;
constexpr double kServedNominalRepS = 1.25;
constexpr char kServedSpec[] =
    "arrival@kind=poisson,rate=%g;mix@knn=0.8,window=0.1,aggregate=0.1;"
    "k@lo=20,hi=40;space@kind=hotspot,n=4,sigma=6,skew=1.5;deadline@s=4;"
    "admit@inflight=256,queue=64,shed=1;cache@ttl=8,cells=4;"
    "coalesce@window=2.5,kslack=10";

// sharded-20k: the beacon substrate at the same density, N = 20000, on
// two shards whose workers share the one pinned CPU. The workload measures
// psim's total work (partition, mailboxes, barriers, windowed channel), not
// its parallel speed-up: on the shared 4-vCPU host this benchmark was
// written on, workers on separate vCPUs wait at every window barrier for
// cross-vCPU wake-ups, and that made wall time vary up to 3x within a run.
constexpr int kShardedNodes = 20000;
constexpr double kShardedSide = 1150.0;
constexpr double kShardedWindow = 2.5;
constexpr int kShardedShards = 2;
constexpr double kShardedNominalRepS = 3.0;

// setup_s is the median of this many set-ups (build + warmup, no measured
// window) per workload, each timed on its own next to host reference
// samples; the cheap set-ups are repeated more often.
constexpr int kFieldSetups = 20;
constexpr int kServedSetups = 40;
constexpr int kShardedSetups = 25;

// Untraced paper-generator windows run in slices of this many simulated
// seconds, with a host reference sample between slices.
constexpr double kReferenceSliceS = 5.0;

// Traced runs: flight-recorder cadence, which is also the simulated
// slice whose host time sim.slice_wall_* reports.
constexpr double kSliceS = 0.04;

int Reps(const Options& o, double nominal_rep_s) {
  int reps = std::max(1, static_cast<int>(std::lround(o.seconds /
                                                      nominal_rep_s)));
  // A traced run pairs every repetition with its traced twin.
  if (o.trace) reps = std::max(1, reps / 2);
  return reps;
}

uint64_t RepSeed(uint64_t seed, int rep) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(rep + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

// ---------------------------------------------------------------------------
// Host measurements.

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Pins the process, and with it the reference helper forked later and
// every psim worker thread, to the CPU it runs on. On the shared host this
// benchmark was written on, each vCPU's speed switches by ~20% from one
// second to the next, independently of the other vCPUs, so the reference
// only tracks the simulator's speed when both run on the same CPU. Returns
// a note.
std::string PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  cpu_set_t pin;
  CPU_ZERO(&pin);
  if (cpu >= 0) CPU_SET(cpu, &pin);
  if (cpu < 0 || sched_setaffinity(0, sizeof(pin), &pin) != 0) {
    return "not pinned: the CPU could not be set";
  }
  return "pinned to CPU " + std::to_string(cpu) + " with its host reference";
}

// A fixed, program-independent host workload in two parts: dependent
// pointer chases around a random cycle through a 4 MiB ring (memory
// latency), then sorts of a 64 KiB array of pseudo-random keys (branchy
// compute on cached data). It runs in a helper process forked before the
// simulator starts, so its memory never counts toward the workload's
// peak_rss_mb. Sampled between the measured windows and between timed
// set-ups, on the same pinned CPU, it tracks how fast the host is right
// now. Host-time end-to-end metrics are reported at the reference speed:
// measured seconds x kReferenceNominalS / the median of the reference
// samples around the measurement. On a shared host whose speed drifts by
// tens of percent from minute to minute this cancels the drift, which both
// sides of a comparison would otherwise inherit; the raw values are
// printed beside them. Neither part alone tracked all three workloads: the
// chase follows the memory-bound sharded-20k, the sort the cache-resident
// served-200.
constexpr double kReferenceNominalS = 0.016;

class HostReference {
 public:
  HostReference() {
    int down[2], up[2];
    if (pipe(down) != 0 || pipe(up) != 0) Fail("pipe");
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) Fail("fork");
    if (pid_ == 0) {
      close(down[1]);
      close(up[0]);
      Serve(down[0], up[1]);
      _exit(0);
    }
    close(down[0]);
    close(up[1]);
    request_ = down[1];
    reply_ = up[0];
  }
  ~HostReference() {
    close(request_);  // The helper reads end-of-file and exits.
    close(reply_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  /// Times one reference sample in the helper; returns its seconds.
  double Sample() {
    const char go = 1;
    double seconds = 0.0;
    if (write(request_, &go, 1) != 1 ||
        read(reply_, &seconds, sizeof(seconds)) != sizeof(seconds)) {
      Fail("host reference helper");
    }
    samples_.push_back(seconds);
    return seconds;
  }

  size_t count() const { return samples_.size(); }
  /// Median of the samples [first, last).
  double MedianOf(size_t first, size_t last) const {
    return Median(std::vector<double>(samples_.begin() + first,
                                      samples_.begin() + last));
  }
  double median_s() const { return Median(samples_); }

  /// `host_s` at the reference speed, given the reference's time `ref_s`.
  static double AtReferenceSpeed(double host_s, double ref_s) {
    return ref_s > 0.0 ? host_s * kReferenceNominalS / ref_s : host_s;
  }

 private:
  static constexpr uint32_t kEntries = 1u << 20;
  static constexpr int kSteps = 100000;
  static constexpr uint32_t kSortKeys = 1u << 14;
  static constexpr int kSortRounds = 4;

  [[noreturn]] static void Fail(const char* what) {
    std::fprintf(stderr, "perfbench: %s failed\n", what);
    std::exit(2);
  }

  // The helper's loop: one timed sample per request byte, until EOF.
  static void Serve(int in, int out) {
    std::vector<uint32_t> ring(kEntries), order(kEntries);
    for (uint32_t i = 0; i < kEntries; ++i) order[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = kEntries - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < kEntries; ++i) {
      ring[order[i]] = order[(i + 1) % kEntries];
    }
    std::atomic<uint64_t> sink{0};
    const auto work = [&ring, &sink]() {
      uint32_t p = 0;
      uint64_t acc = 0;
      for (int i = 0; i < kSteps; ++i) {
        p = ring[p];
        acc = acc * 31 + p;
      }
      std::vector<uint32_t> keys(kSortKeys);
      uint64_t y = 0x2545f4914f6cdd1dULL;
      for (int round = 0; round < kSortRounds; ++round) {
        for (uint32_t& key : keys) {
          y ^= y << 13;
          y ^= y >> 7;
          y ^= y << 17;
          key = static_cast<uint32_t>(y);
        }
        std::sort(keys.begin(), keys.end());
        acc += keys[round];
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    };
    // Runs the work twice and times the second pass, so the sample sees
    // warm caches whatever the simulator evicted before it.
    char go = 0;
    while (read(in, &go, 1) == 1) {
      work();
      const double t0 = WallNow();
      work();
      const double seconds = WallNow() - t0;
      if (write(out, &seconds, sizeof(seconds)) != sizeof(seconds)) break;
    }
  }

  pid_t pid_ = -1;
  int request_ = -1, reply_ = -1;
  std::vector<double> samples_;
};

// Host seconds of one kind, each with the reference time next to it.
struct HostTimes {
  std::vector<double> raw, ref;

  void Add(double raw_s, double ref_s) {
    raw.push_back(raw_s);
    ref.push_back(ref_s);
  }
  std::vector<double> Scaled() const {
    std::vector<double> out;
    for (size_t i = 0; i < raw.size(); ++i) {
      out.push_back(HostReference::AtReferenceSpeed(raw[i], ref[i]));
    }
    return out;
  }
};

// Set-ups timed on their own: `set_up(i)` builds and returns the i-th
// stack, which is destroyed outside the timed span. A reference sample
// follows each set-up; each set-up is paired with the median of the six
// samples nearest to it, which follows drift over a few set-ups while
// averaging out the noise of single samples.
template <typename SetUp>
HostTimes TimeSetups(HostReference* ref, int count, SetUp&& set_up) {
  HostTimes out;
  std::vector<size_t> marks;  // Index of the sample just before each set-up.
  for (int i = 0; i < count; ++i) {
    marks.push_back(ref->count());
    ref->Sample();
    const double t0 = WallNow();
    auto keep = set_up(i);
    out.raw.push_back(WallNow() - t0);
  }
  ref->Sample();
  for (size_t mark : marks) {
    const size_t first = mark < 2 ? 0 : mark - 2;
    out.ref.push_back(ref->MedianOf(first, std::min(first + 6, ref->count())));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Counts read from the stack after a run. Everything but the engine block
// is modeled traffic and must be identical in traced and untraced runs;
// the engine block also counts the traced run's probe events.

struct Counts {
  uint64_t frames = 0, rx_attempted = 0, rx_delivered = 0, rx_collided = 0,
           rx_lost = 0, candidates = 0;
  uint64_t tx_attempts = 0, retries = 0, csma_failures = 0,
           send_failures = 0, duplicates = 0;
  uint64_t net_allocs = 0, pool_fresh = 0, pool_reuses = 0;
  uint64_t gpsr_sends = 0, gpsr_deliveries = 0, greedy_hops = 0,
           perimeter_hops = 0, link_failures = 0, ttl_expired = 0;
  uint64_t dk_issued = 0, dk_completed = 0, probes = 0, qnode_hops = 0,
           replies = 0, voids = 0, boundary_ext = 0;
  ServingCounters serving;
  uint64_t events_fired = 0, events_pushed = 0, events_cancelled = 0,
           peak_resident = 0;

  void Add(const Counts& o) {
    frames += o.frames;
    rx_attempted += o.rx_attempted;
    rx_delivered += o.rx_delivered;
    rx_collided += o.rx_collided;
    rx_lost += o.rx_lost;
    candidates += o.candidates;
    tx_attempts += o.tx_attempts;
    retries += o.retries;
    csma_failures += o.csma_failures;
    send_failures += o.send_failures;
    duplicates += o.duplicates;
    net_allocs += o.net_allocs;
    pool_fresh += o.pool_fresh;
    pool_reuses += o.pool_reuses;
    gpsr_sends += o.gpsr_sends;
    gpsr_deliveries += o.gpsr_deliveries;
    greedy_hops += o.greedy_hops;
    perimeter_hops += o.perimeter_hops;
    link_failures += o.link_failures;
    ttl_expired += o.ttl_expired;
    dk_issued += o.dk_issued;
    dk_completed += o.dk_completed;
    probes += o.probes;
    qnode_hops += o.qnode_hops;
    replies += o.replies;
    voids += o.voids;
    boundary_ext += o.boundary_ext;
    serving.Merge(o.serving);
    events_fired += o.events_fired;
    events_pushed += o.events_pushed;
    events_cancelled += o.events_cancelled;
    peak_resident = std::max(peak_resident, o.peak_resident);
  }

  // The modeled counters under the names RunOnce publishes in
  // RunMetrics::obs, so both sides of the reproduction check read alike.
  std::vector<std::pair<std::string, uint64_t>> Named() const {
    return {{"channel.frames_sent", frames},
            {"channel.receptions_attempted", rx_attempted},
            {"channel.receptions_delivered", rx_delivered},
            {"channel.receptions_collided", rx_collided},
            {"channel.receptions_lost", rx_lost},
            {"mac.tx_attempts", tx_attempts},
            {"mac.retries", retries},
            {"mac.csma_failures", csma_failures},
            {"mac.send_failures", send_failures},
            {"mac.duplicates_dropped", duplicates},
            {"gpsr.sends", gpsr_sends},
            {"gpsr.deliveries", gpsr_deliveries},
            {"gpsr.greedy_hops", greedy_hops},
            {"gpsr.perimeter_hops", perimeter_hops},
            {"gpsr.link_failures", link_failures},
            {"gpsr.ttl_expired", ttl_expired},
            {"diknn.queries_issued", dk_issued},
            {"diknn.queries_completed", dk_completed},
            {"diknn.probes_sent", probes},
            {"diknn.qnode_hops", qnode_hops},
            {"diknn.replies_sent", replies},
            {"diknn.voids_encountered", voids},
            {"diknn.boundary_extensions", boundary_ext},
            {"serving.cache_hits", serving.cache_hits},
            {"serving.cache_misses", serving.cache_misses},
            {"serving.cache_expired", serving.cache_expired},
            {"serving.coalesced", serving.coalesced},
            {"serving.shed", serving.shed},
            {"net.allocs", net_allocs}};
  }
};

Counts CollectCounts(Network& net, const GpsrRouting& gpsr,
                     const Diknn* diknn, const ServingCounters* serving) {
  Counts c;
  const ChannelStats& ch = net.channel().stats();
  c.frames = ch.frames_sent;
  c.rx_attempted = ch.receptions_attempted;
  c.rx_delivered = ch.receptions_delivered;
  c.rx_collided = ch.receptions_collided;
  c.rx_lost = ch.receptions_lost;
  c.candidates = ch.candidates_scanned;
  for (Node* node : net.AllNodes()) {
    const MacStats& m = node->mac().stats();
    c.tx_attempts += m.tx_attempts;
    c.retries += m.retries;
    c.csma_failures += m.csma_failures;
    c.send_failures += m.send_failures;
    c.duplicates += m.duplicates_dropped;
  }
  c.net_allocs = net.channel().net_allocs().allocations;
  c.pool_fresh = net.channel().frame_pool_stats().fresh_allocations;
  c.pool_reuses = net.channel().frame_pool_stats().reuses;
  const GpsrRouting::Stats& gs = gpsr.stats();
  c.gpsr_sends = gs.sends;
  c.gpsr_deliveries = gs.deliveries;
  c.greedy_hops = gs.greedy_hops;
  c.perimeter_hops = gs.perimeter_hops;
  c.link_failures = gs.link_failures;
  c.ttl_expired = gs.ttl_expired;
  if (diknn != nullptr) {
    const DiknnStats& ds = diknn->stats();
    c.dk_issued = ds.queries_issued;
    c.dk_completed = ds.queries_completed;
    c.probes = ds.probes_sent;
    c.qnode_hops = ds.qnode_hops;
    c.replies = ds.replies_sent;
    c.voids = ds.voids_encountered;
    c.boundary_ext = ds.boundary_extensions;
  }
  if (serving != nullptr) c.serving = *serving;
  const EngineStats& es = net.sim().engine_stats();
  c.events_fired = es.events_fired;
  c.events_pushed = es.events_pushed;
  c.events_cancelled = es.events_cancelled;
  c.peak_resident = es.peak_resident;
  return c;
}

// Byte-exact rendering of a run's modeled outputs: per-query records,
// energy, the named traffic counters and (served runs) the SloReport.
std::string Fingerprint(const std::vector<QueryRecord>& records,
                        double energy_j, double beacon_energy_j,
                        const std::vector<std::pair<std::string, uint64_t>>&
                            counters,
                        const std::string& slo_json) {
  std::string out;
  char buf[160];
  for (const QueryRecord& r : records) {
    std::snprintf(buf, sizeof(buf), "q%" PRIu64 " %a %a %a %d\n", r.query_id,
                  r.latency, r.pre_accuracy, r.post_accuracy,
                  r.timed_out ? 1 : 0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "energy %a beacon %a\n", energy_j,
                beacon_energy_j);
  out += buf;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  return out + slo_json;
}

// ---------------------------------------------------------------------------
// The traced run's instruments: the program's query tracer (every query
// sampled), a transmit observer counting beacon frames, a flight recorder
// sampling channel counters, and a read-only probe on the recorder's
// tick that records the host time of every simulated slice. None of them
// writes simulation state; only the engine's event counts grow.

class TraceKit {
 public:
  TraceKit(bool enabled, uint64_t seed) : enabled_(enabled), seed_(seed) {}

  // Before warmup, where RunOnce attaches its tracer.
  void Attach(ProtocolStack& stack) {
    if (!enabled_) return;
    tracer_ = std::make_unique<Tracer>(1.0, seed_);
    stack.network().channel().set_tracer(tracer_.get());
    stack.gpsr().set_tracer(tracer_.get());
    if (stack.diknn() != nullptr) stack.diknn()->set_tracer(tracer_.get());
    stack.network().channel().AddTransmitObserver(
        [this](const Packet& packet, NodeId, Point) {
          if (packet.type == MessageType::kBeacon) ++beacon_frames_;
        });
  }

  // After warmup: sample until `end`.
  void StartRecorder(Network& net, SimTime end) {
    if (!enabled_) return;
    TimeSeriesOptions opts;
    opts.interval = kSliceS;
    recorder_ = std::make_unique<FlightRecorder>(opts);
    TimeSeries* frames_per_s = recorder_->AddSeries("net.frames_per_s");
    Network* net_ptr = &net;
    recorder_->AddProbe([this, net_ptr, frames_per_s](double t) {
      const uint64_t frames = net_ptr->channel().stats().frames_sent;
      frames_per_s->Append(
          t, static_cast<double>(frames - last_frames_) / kSliceS);
      last_frames_ = frames;
      const double now = WallNow();
      if (last_wall_ > 0.0) slice_ms_.push_back(1e3 * (now - last_wall_));
      last_wall_ = now;
    });
    last_frames_ = net.channel().stats().frames_sent;
    recorder_->ScheduleTicks(&net.sim(), net.sim().Now(), end);
  }

  Tracer* tracer() { return tracer_.get(); }
  uint64_t beacon_frames() const { return beacon_frames_; }
  uint64_t spans() const {
    return tracer_ != nullptr ? tracer_->stats().spans : 0;
  }
  std::vector<double>& slice_ms() { return slice_ms_; }

 private:
  bool enabled_;
  uint64_t seed_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<FlightRecorder> recorder_;
  uint64_t beacon_frames_ = 0;
  uint64_t last_frames_ = 0;
  double last_wall_ = 0.0;
  std::vector<double> slice_ms_;
};

// ---------------------------------------------------------------------------
// One serial simulation run (a field-2k repetition or a served-200 rung).

struct SerialRun {
  double build_s = 0.0, warmup_s = 0.0, rss_after_setup_mb = 0.0;
  double window_wall_s = 0.0, window_cpu_s = 0.0, window_sim_s = 0.0;
  uint64_t window_events = 0, window_receptions = 0;
  Counts counts;
  uint64_t beacon_frames = 0, tracer_spans = 0;
  std::vector<double> slice_ms;

  OutcomeCounts outcomes;
  uint64_t peak_inflight = 0;
  double duration_s = 0.0;            ///< Arrival window (goodput base).
  std::vector<double> latencies;      ///< Resolved queries.
  std::vector<double> queue_waits;
  std::vector<QueryRecord> records;   ///< RunOnce-shaped records.
  double post_sum = 0.0;
  uint64_t post_n = 0;
  double energy_j = 0.0, beacon_energy_j = 0.0;
  std::string slo_json;
  bool slo_consistent = true;
  double ref_s = 0.0;  ///< Median host reference time during the window.
  uint64_t lifecycle_violations = 0, leaked_entries = 0;

  std::string Fingerprint() const {
    return perfbench::Fingerprint(records, energy_j, beacon_energy_j,
                                  counts.Named(), slo_json);
  }
};

// The paper's one-at-a-time generator, as RunOnce drives it: exponential
// inter-arrivals from the static sink to uniformly random points, with
// pre-accuracy scored at issue and post-accuracy at receipt. Arrivals are
// simulator events, so the open loop can never run late.
struct PaperGenerator {
  const ExperimentConfig* config;
  Network* net;
  KnnProtocol* protocol;
  std::vector<QueryRecord>* records;
  Rng rng;
  SimTime deadline;
  uint64_t issued = 0;
  int inflight = 0;
  int peak_inflight = 0;

  void IssueNext() {
    Simulator& sim = net->sim();
    const SimTime next =
        sim.Now() + rng.Exponential(config->query_interval_mean);
    if (next >= deadline) return;
    sim.ScheduleAt(next, [this]() {
      const NodeId sink =
          config->static_sink
              ? 0
              : rng.UniformInt(0, config->network.node_count - 1);
      const Point q = rng.PointInRect(config->network.field);
      const int k = config->k;
      auto truth_pre = net->TrueKnn(q, k);
      ++issued;
      peak_inflight = std::max(peak_inflight, ++inflight);
      protocol->IssueQuery(
          sink, q, k,
          [this, q, k, truth_pre = std::move(truth_pre)](
              const KnnResult& result) {
            --inflight;
            QueryRecord rec;
            rec.query_id = result.query_id;
            rec.latency = result.Latency();
            rec.timed_out = result.timed_out;
            const auto returned = result.CandidateIds();
            rec.pre_accuracy = Accuracy(returned, truth_pre);
            rec.post_accuracy = Accuracy(returned, net->TrueKnn(q, k));
            records->push_back(rec);
          });
      IssueNext();
    });
  }
};

// Builds, warms up and runs one serial stack. With a workload spec the
// QueryDriver runs the window; otherwise the paper generator does. The
// sequence of calls mirrors RunOnce so the reproduction check can demand
// byte equality.
SerialRun RunSerial(const ExperimentConfig& config, uint64_t seed, bool traced,
                    SpanLog* log, HostReference* ref = nullptr) {
  SerialRun run;
  TraceKit kit(traced, seed);
  ScopedSpan rep_span(log, "rep", "harness");

  const double t0 = WallNow();
  std::unique_ptr<ProtocolStack> stack;
  {
    ScopedSpan span(log, "build", "harness");
    stack = std::make_unique<ProtocolStack>(config, seed);
  }
  Network& net = stack->network();
  Simulator& sim = net.sim();
  kit.Attach(*stack);
  const double t1 = WallNow();
  {
    ScopedSpan span(log, "warmup", "net");
    net.Warmup(config.warmup);
  }
  const double t2 = WallNow();
  run.build_s = t1 - t0;
  run.warmup_s = t2 - t1;
  run.rss_after_setup_mb = CurrentRssMb();

  std::unique_ptr<LifecycleAuditor> auditor;
  if (config.audit_lifecycle && stack->diknn() != nullptr) {
    auditor = std::make_unique<LifecycleAuditor>(stack->diknn(),
                                                 &stack->gpsr());
  }
  const SimTime start = sim.Now();
  const SimTime end = start + config.duration + config.drain;
  kit.StartRecorder(net, end);

  const double maintenance0 = net.TotalEnergy(EnergyCategory::kMaintenance);
  const double query0 = net.TotalEnergy(EnergyCategory::kQuery);
  const double beacon0 = net.TotalEnergy(EnergyCategory::kBeacon);

  // RunOnce's steady-state mark for the allocation gate: reset the net
  // counters halfway through the measured window.
  {
    Network* net_ptr = &net;
    KnnProtocol* protocol_ptr = &stack->protocol();
    sim.ScheduleAt(start + config.duration * 0.5, [net_ptr, protocol_ptr]() {
      net_ptr->channel().net_allocs().Reset();
      protocol_ptr->ResetAllocCounters();
    });
  }

  const uint64_t events0 = sim.engine_stats().events_fired;
  const uint64_t receptions0 = net.channel().stats().receptions_attempted;
  const ServingCounters* serving = nullptr;
  std::unique_ptr<QueryDriver> driver;
  std::unique_ptr<PaperGenerator> generator;
  if (config.workload.has_value()) {
    driver = std::make_unique<QueryDriver>(
        &net, &stack->gpsr(), &stack->protocol(), *config.workload,
        seed * 0x9e3779b97f4a7c15ULL + 17,
        config.static_sink ? 0 : kInvalidNodeId);
    driver->set_tracer(kit.tracer());
    const double cpu0 = CpuNow();
    const double w0 = WallNow();
    SloReport slo;
    {
      ScopedSpan span(log, "query_driver.run", "workload");
      slo = driver->Run(config.duration, config.drain);
    }
    run.window_wall_s = WallNow() - w0;
    run.window_cpu_s = CpuNow() - cpu0;
    run.slo_json = slo.ToJson();
    run.slo_consistent = slo.Consistent();
    run.peak_inflight = slo.peak_inflight;
    run.duration_s = slo.duration;
    if (driver->serving() != nullptr) serving = &driver->serving()->counters();
  } else {
    generator = std::make_unique<PaperGenerator>(PaperGenerator{
        &config, &net, &stack->protocol(), &run.records,
        Rng(seed * 0x9e3779b97f4a7c15ULL + 17), start + config.duration});
    generator->IssueNext();
    // Chunked RunUntil fires the same events in the same order as one
    // call. Traced runs record a span per simulated second; untraced runs
    // time the host reference between slices, outside the window's clock.
    const SimTime slice = traced ? 1.0 : kReferenceSliceS;
    const size_t ref0 = ref != nullptr ? ref->count() : 0;
    for (SimTime t = start; t < end;) {
      t = std::min(t + slice, end);
      const double cpu0 = CpuNow();
      const double w0 = WallNow();
      {
        ScopedSpan span(log, "slice", "sim");
        sim.RunUntil(t);
      }
      run.window_wall_s += WallNow() - w0;
      run.window_cpu_s += CpuNow() - cpu0;
      if (ref != nullptr) ref->Sample();
    }
    if (ref != nullptr) run.ref_s = ref->MedianOf(ref0, ref->count());
  }
  run.window_sim_s = end - start;
  run.window_events = sim.engine_stats().events_fired - events0;
  run.window_receptions =
      net.channel().stats().receptions_attempted - receptions0;

  run.energy_j = (net.TotalEnergy(EnergyCategory::kQuery) - query0) +
                 (net.TotalEnergy(EnergyCategory::kMaintenance) -
                  maintenance0);
  run.beacon_energy_j = net.TotalEnergy(EnergyCategory::kBeacon) - beacon0;
  run.counts = CollectCounts(net, stack->gpsr(), stack->diknn(), serving);
  run.beacon_frames = kit.beacon_frames();
  run.tracer_spans = kit.spans();
  run.slice_ms = std::move(kit.slice_ms());
  if (auditor != nullptr) {
    run.lifecycle_violations = auditor->violations();
    run.leaked_entries = auditor->FinalResidue();
    if (!auditor->FlowStateBounded()) ++run.lifecycle_violations;
  }

  if (driver != nullptr) {
    for (const WorkloadQueryRecord& r : driver->records()) {
      QueryRecord rec;
      rec.query_id = r.id;
      rec.latency = r.latency;
      rec.timed_out = r.outcome == QueryOutcome::kTimedOut;
      rec.pre_accuracy = std::max(r.pre_accuracy, 0.0);
      rec.post_accuracy = std::max(r.post_accuracy, 0.0);
      run.records.push_back(rec);
      if (r.outcome == QueryOutcome::kCompleted ||
          r.outcome == QueryOutcome::kDeadlineMissed) {
        run.latencies.push_back(r.latency);
      }
      if (r.post_accuracy >= 0.0) {
        run.post_sum += r.post_accuracy;
        ++run.post_n;
      }
      run.queue_waits.push_back(r.queue_wait);
    }
    run.outcomes = Tally(driver->records());
  } else {
    const PaperGenerator& g = *generator;
    run.outcomes.issued = g.issued;
    run.peak_inflight = static_cast<uint64_t>(g.peak_inflight);
    run.duration_s = config.duration;
    for (const QueryRecord& r : run.records) {
      if (r.timed_out) {
        ++run.outcomes.timed_out;
      } else {
        ++run.outcomes.completed;
        run.latencies.push_back(r.latency);
      }
      run.post_sum += r.post_accuracy;
      ++run.post_n;
    }
    // Queries still unresolved when the drain ends count as timed out.
    run.outcomes.timed_out += g.issued - run.records.size();
  }
  return run;
}

// RunOnce's view of the same config and seed, rendered like SerialRun.
std::string RunOnceFingerprint(const ExperimentConfig& config, uint64_t seed,
                               const Counts& names_from) {
  std::vector<QueryRecord> records;
  const RunMetrics m = RunOnce(config, seed, &records);
  std::vector<std::pair<std::string, uint64_t>> counters = names_from.Named();
  for (auto& [name, value] : counters) value = m.obs.CounterValue(name);
  return Fingerprint(records, m.energy_joules, m.beacon_energy_joules,
                     counters,
                     config.workload.has_value() ? m.slo.ToJson() : "");
}

// Serial set-ups (ProtocolStack + warmup) timed on their own.
HostTimes SerialSetups(const ExperimentConfig& config, uint64_t seed,
                       int count, HostReference* ref) {
  return TimeSetups(ref, count, [&](int i) {
    auto stack =
        std::make_unique<ProtocolStack>(config, RepSeed(seed, 1000 + i));
    stack->network().Warmup(config.warmup);
    return stack;
  });
}

std::string ListValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report assembly.

void AddMetric(std::vector<Metric>* out, const std::string& name,
               const std::string& unit, const std::string& better,
               double value, const std::string& note) {
  out->push_back({name, unit, better, value, note});
}

std::string RatioNote(const Ratio& r, const char* base_name) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g / %.6g %s", r.num, r.base, base_name);
  return buf;
}

std::string TailNote(const TailPercentile& t) {
  char buf[128];
  if (t.ok) {
    std::snprintf(buf, sizeof(buf), "n=%zu, %zu beyond", t.samples, t.beyond);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "n=%zu, %zu beyond: not reported, needs n >= %zu", t.samples,
                  t.beyond, t.needed);
  }
  return buf;
}

void SetLayer(Report* report, const std::string& name, double value,
              const std::string& note = "") {
  Metric& m = report->per_layer[name];
  m.value = std::isfinite(value) ? value : 0.0;
  m.note = note;
}

void SetLayerRatio(Report* report, const std::string& name, const Ratio& r,
                   const char* base_name) {
  SetLayer(report, name, r.value(), RatioNote(r, base_name));
}

void AddCheck(Report* report, const std::string& name, bool passed,
              const std::string& detail) {
  report->checks.push_back({name, passed, detail});
}

// Per-layer block of the serial workloads: host ratios and engine counts
// from the untraced runs, traffic counts from the traced twins.
void SerialLayerMetrics(const std::vector<const SerialRun*>& untraced,
                        const std::vector<const SerialRun*>& traced,
                        uint64_t issued, Report* report) {
  std::vector<double> build, warmup, cpu, ns_event, ns_rx;
  Counts counts;
  for (const SerialRun* r : untraced) {
    build.push_back(r->build_s);
    warmup.push_back(r->warmup_s);
    cpu.push_back(r->window_cpu_s / r->window_sim_s);
    ns_event.push_back(1e9 * r->window_wall_s /
                       std::max<uint64_t>(r->window_events, 1));
    ns_rx.push_back(1e9 * r->window_wall_s /
                    std::max<uint64_t>(r->window_receptions, 1));
    counts.Add(r->counts);
  }
  SetLayer(report, "harness.build_s", Median(build), "median over runs");
  SetLayer(report, "harness.warmup_s", Median(warmup), "median over runs");
  SetLayer(report, "harness.rss_after_setup_mb",
           untraced.front()->rss_after_setup_mb, "first run");
  SetLayer(report, "harness.cpu_per_sim_s", Median(cpu), "median over runs");
  SetLayer(report, "engine.events_fired",
           static_cast<double>(counts.events_fired), "untraced runs");
  SetLayer(report, "engine.events_pushed",
           static_cast<double>(counts.events_pushed), "untraced runs");
  SetLayerRatio(report, "engine.cancel_ratio",
                {static_cast<double>(counts.events_cancelled),
                 static_cast<double>(counts.events_pushed)},
                "pushes");
  SetLayer(report, "engine.peak_resident",
           static_cast<double>(counts.peak_resident), "max over runs");
  SetLayer(report, "sim.ns_per_event", Median(ns_event),
           "untraced window wall / events fired, median");
  SetLayer(report, "net.ns_per_reception", Median(ns_rx),
           "untraced window wall / receptions, median");

  Counts tc;
  uint64_t beacons = 0, spans = 0;
  std::vector<double> slices;
  for (const SerialRun* r : traced) {
    tc.Add(r->counts);
    beacons += r->beacon_frames;
    spans += r->tracer_spans;
    slices.insert(slices.end(), r->slice_ms.begin(), r->slice_ms.end());
  }
  const TailPercentile s50 = PercentileWithTail(slices, 50.0);
  const TailPercentile s99 = PercentileWithTail(slices, 99.0);
  SetLayer(report, "sim.slice_wall_p50_ms", s50.value, TailNote(s50));
  SetLayer(report, "sim.slice_wall_p99_ms", s99.value, TailNote(s99));

  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  SetLayer(report, "channel.frames_sent", d(tc.frames));
  SetLayerRatio(report, "net.beacon_share", {d(beacons), d(tc.frames)},
                "frames");
  SetLayer(report, "channel.receptions_attempted", d(tc.rx_attempted));
  SetLayerRatio(report, "channel.delivered_ratio",
                {d(tc.rx_delivered), d(tc.rx_attempted)}, "receptions");
  SetLayerRatio(report, "channel.collided_ratio",
                {d(tc.rx_collided), d(tc.rx_attempted)}, "receptions");
  SetLayerRatio(report, "channel.candidates_per_frame",
                {d(tc.candidates), d(tc.frames)}, "frames");
  SetLayerRatio(report, "channel.useful_scan_ratio",
                {d(tc.rx_attempted), d(tc.candidates)}, "candidates");
  SetLayer(report, "mac.tx_attempts", d(tc.tx_attempts));
  SetLayerRatio(report, "mac.retry_ratio", {d(tc.retries), d(tc.tx_attempts)},
                "tx attempts");
  SetLayer(report, "mac.csma_failures", d(tc.csma_failures));
  SetLayer(report, "mac.send_failures", d(tc.send_failures));
  SetLayer(report, "mac.duplicates_dropped", d(tc.duplicates));
  SetLayer(report, "net.allocs", d(tc.net_allocs), "steady-state half");
  SetLayerRatio(report, "pool.frame_reuse_ratio",
                {d(tc.pool_reuses), d(tc.pool_reuses + tc.pool_fresh)},
                "frame acquisitions");
  SetLayer(report, "gpsr.sends", d(tc.gpsr_sends));
  SetLayerRatio(report, "gpsr.delivery_ratio",
                {d(tc.gpsr_deliveries), d(tc.gpsr_sends)}, "sends");
  SetLayerRatio(report, "gpsr.perimeter_share",
                {d(tc.perimeter_hops), d(tc.perimeter_hops + tc.greedy_hops)},
                "hops");
  SetLayer(report, "gpsr.link_failures", d(tc.link_failures));
  SetLayer(report, "gpsr.ttl_expired", d(tc.ttl_expired));
  SetLayer(report, "diknn.queries_issued", d(tc.dk_issued));
  SetLayerRatio(report, "diknn.completion_ratio",
                {d(tc.dk_completed), d(tc.dk_issued)}, "DIKNN queries");
  SetLayer(report, "diknn.probes_sent", d(tc.probes));
  SetLayer(report, "diknn.qnode_hops", d(tc.qnode_hops));
  SetLayer(report, "diknn.replies_sent", d(tc.replies));
  SetLayer(report, "diknn.voids_encountered", d(tc.voids));
  SetLayer(report, "diknn.boundary_extensions", d(tc.boundary_ext));
  SetLayerRatio(report, "knn.frames_per_query",
                {d(tc.frames - beacons), d(issued)}, "issued queries");
  const ServingCounters& sc = tc.serving;
  SetLayerRatio(report, "serving.cache_hit_ratio",
                {d(sc.cache_hits), d(sc.cache_hits + sc.cache_misses)},
                "cache lookups");
  SetLayerRatio(report, "serving.coalesced_share",
                {d(sc.coalesced), d(issued)}, "issued queries");
  SetLayerRatio(report, "serving.shed_share", {d(sc.shed), d(issued)},
                "issued queries");
  SetLayer(report, "serving.cache_expired", d(sc.cache_expired));
  SetLayer(report, "tracer.spans", d(spans), "program tracer, traced runs");
}

std::vector<double> Milli(std::vector<double> seconds) {
  for (double& v : seconds) v *= 1e3;
  return seconds;
}

// wall_per_sim_s and setup_s at the reference speed, raw values noted.
// `wall` holds the measured runs' host seconds per simulated second.
void HostMetrics(const HostTimes& wall, const HostTimes& setup,
                 const HostReference& ref, const std::string& runs,
                 Report* report) {
  const std::vector<double> scaled = wall.Scaled();
  AddMetric(&report->end_to_end, "wall_per_sim_s", "s/s", "lower",
            Median(scaled),
            "median of " + std::to_string(scaled.size()) + " " + runs +
                " at reference speed: " + ListValues(scaled));
  const std::vector<double> setup_scaled = setup.Scaled();
  AddMetric(&report->end_to_end, "setup_s", "s", "lower", Median(setup_scaled),
            "median of " + std::to_string(setup_scaled.size()) +
                " set-ups at reference speed");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "raw host time: wall_per_sim_s %.6g s/s, setup_s %.6g s "
                "(medians); host reference %.3f ms (median of %zu, nominal "
                "%.0f ms)",
                Median(wall.raw), Median(setup.raw), 1e3 * ref.median_s(),
                ref.count(), 1e3 * kReferenceNominalS);
  report->notes.push_back(buf);
  report->notes.push_back("raw wall_per_sim_s per run: " +
                          ListValues(wall.raw) + "; reference ms: " +
                          ListValues(Milli(wall.ref)));
  report->notes.push_back("raw setup_s per set-up: " + ListValues(setup.raw) +
                          "; reference ms: " + ListValues(Milli(setup.ref)));
}

void WorkloadLayerMetrics(const OutcomeCounts& c, uint64_t peak_inflight,
                          const std::vector<double>& queue_waits,
                          Report* report) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  SetLayer(report, "workload.issued", d(c.issued));
  SetLayer(report, "workload.peak_inflight", d(peak_inflight));
  const TailPercentile qw = PercentileWithTail(queue_waits, 50.0);
  SetLayer(report, "workload.queue_wait_p50_s", qw.value,
           queue_waits.empty() ? "no admission queue" : TailNote(qw));
  SetLayerRatio(report, "workload.reject_ratio", {d(c.rejected), d(c.issued)},
                "issued");
  SetLayerRatio(report, "workload.timeout_ratio",
                {d(c.timed_out), d(c.issued)}, "issued");
  SetLayerRatio(report, "workload.miss_ratio",
                {d(c.deadline_missed), d(c.issued)}, "issued");
}

void OverheadMetric(double traced_wall, double untraced_wall,
                    const SpanLog& log, Report* report) {
  SetLayerRatio(report, "obs.overhead_ratio", {traced_wall, untraced_wall},
                "s untraced wall");
  for (const auto& [layer, seconds] : log.SelfSeconds()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "span self time %-9s %.4f s", layer.c_str(),
                  seconds);
    report->notes.push_back(buf);
  }
}

void WriteSpans(const Options& o, const SpanLog& log, Report* report) {
  if (!log.enabled() || o.out_dir.empty()) return;
  const std::string path =
      o.out_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) +
      ".json";
  std::ofstream out(path);
  out << log.ToJson(o.provenance);
  report->notes.push_back(out ? "spans written to " + path
                              : "could not write " + path);
}

// Modeled query metrics of a serial workload, from pooled runs.
void ModeledQueryMetrics(const std::vector<const SerialRun*>& runs,
                         Report* report) {
  std::vector<double> latencies;
  OutcomeCounts c;
  double post_sum = 0.0, energy = 0.0;
  uint64_t post_n = 0;
  for (const SerialRun* r : runs) {
    latencies.insert(latencies.end(), r->latencies.begin(),
                     r->latencies.end());
    c.Add(r->outcomes);
    post_sum += r->post_sum;
    post_n += r->post_n;
    energy += r->energy_j;
  }
  const TailPercentile p50 = PercentileWithTail(latencies, 50.0);
  const TailPercentile p95 = PercentileWithTail(latencies, 95.0);
  AddMetric(&report->modeled, "query_p50_s", "s", "lower", p50.value,
            TailNote(p50));
  AddMetric(&report->modeled, "query_p95_s", "s", "lower", p95.value,
            TailNote(p95));
  const Ratio fail = FailRatio(c);
  AddMetric(&report->modeled, "query_fail_ratio", "ratio", "lower",
            fail.value(), RatioNote(fail, "issued"));
  const Ratio post{post_sum, static_cast<double>(post_n)};
  AddMetric(&report->modeled, "post_accuracy", "ratio", "higher", post.value(),
            RatioNote(post, "scored queries (sum / count)"));
  const Ratio epq{energy, static_cast<double>(c.issued)};
  AddMetric(&report->modeled, "energy_j_per_query", "J", "lower", epq.value(),
            RatioNote(epq, "issued (J / queries)"));
}

std::string Seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f s", s);
  return buf;
}

// ---------------------------------------------------------------------------
// field-2k

ExperimentConfig FieldConfig() {
  ExperimentConfig c;  // Section 5.1 defaults: k=40, S=8, exp(4 s), RWP.
  c.network.node_count = kFieldNodes;
  c.network.field = Rect::Field(kFieldSide, kFieldSide);
  c.duration = kFieldWindow;
  c.runs = 1;
  c.jobs = 1;
  return c;
}

void RunField(const Options& o, Report* report) {
  report->label =
      "serial engine, DIKNN, paper generator (open loop, exp(4 s) "
      "arrivals, k=40, static sink, S=8), N=2000 on 363.7 m, random "
      "waypoint mu_max=10 m/s";
  const ExperimentConfig config = FieldConfig();
  const int reps = Reps(o, kFieldNominalRepS);
  SpanLog log(o.trace, o.seed), off(false);
  std::vector<SerialRun> untraced, traced;
  HostReference ref;
  for (int r = 0; r < reps; ++r) {
    untraced.push_back(
        RunSerial(config, RepSeed(o.seed, r), false, &off, &ref));
    if (o.trace) {
      traced.push_back(RunSerial(config, RepSeed(o.seed, r), true, &log));
    }
  }
  report->simulations = untraced.size() + traced.size() + 1;

  HostTimes wall;
  std::vector<const SerialRun*> u, t;
  double u_wall = 0.0, t_wall = 0.0;
  for (const SerialRun& r : untraced) {
    wall.Add(r.window_wall_s / r.window_sim_s, r.ref_s);
    u.push_back(&r);
    u_wall += r.build_s + r.warmup_s + r.window_wall_s;
    AddCheck(report, "net.allocs == 0 (steady state)", r.counts.net_allocs == 0,
             std::to_string(r.counts.net_allocs) + " allocations");
  }
  for (const SerialRun& r : traced) {
    t.push_back(&r);
    t_wall += r.build_s + r.warmup_s + r.window_wall_s;
  }
  HostMetrics(wall, SerialSetups(config, o.seed, kFieldSetups, &ref), ref,
              "runs of " + Seconds(untraced[0].window_sim_s) + " simulated",
              report);
  ModeledQueryMetrics(u, report);

  const std::string mine = untraced[0].Fingerprint();
  const std::string theirs =
      RunOnceFingerprint(config, RepSeed(o.seed, 0), untraced[0].counts);
  AddCheck(report, "reproduces RunOnce (records, energy, counters)",
           mine == theirs, std::to_string(mine.size()) + " bytes compared");
  for (size_t i = 0; i < traced.size(); ++i) {
    AddCheck(report, "traced run == untraced run (modeled outputs)",
             traced[i].Fingerprint() == untraced[i].Fingerprint(),
             "run " + std::to_string(i));
  }
  report->notes.push_back(
      "open loop in simulated time: arrivals are simulator events, so the "
      "generator cannot run late and no lateness is reported");

  if (o.trace) {
    OutcomeCounts c;
    uint64_t peak = 0;
    for (const SerialRun* r : t) {
      c.Add(r->outcomes);
      peak = std::max(peak, r->peak_inflight);
    }
    SerialLayerMetrics(u, t, c.issued, report);
    WorkloadLayerMetrics(c, peak, {}, report);
    OverheadMetric(t_wall, u_wall, log, report);
    WriteSpans(o, log, report);
  }
}

// ---------------------------------------------------------------------------
// served-200

ExperimentConfig ServedConfig(double rate) {
  ExperimentConfig c;
  c.duration = kServedWindow;
  c.audit_lifecycle = true;
  c.runs = 1;
  c.jobs = 1;
  char spec[512];
  std::snprintf(spec, sizeof(spec), kServedSpec, rate);
  std::string error;
  c.workload = WorkloadSpec::Parse(spec, &error);
  if (!c.workload) {
    std::fprintf(stderr, "perfbench: bad served spec: %s\n", error.c_str());
    std::exit(2);
  }
  return c;
}

void RunServed(const Options& o, Report* report) {
  report->label =
      "serial engine, DIKNN + serving front end, QueryDriver open-loop "
      "Poisson ladder 1..32 q/s, knn/window/aggregate 0.8/0.1/0.1, k 20..40, "
      "hotspot+Zipf, 4 s deadline, N=200 on 115 m, lifecycle audit on";
  const int reps = Reps(o, kServedNominalRepS);
  const size_t rungs = std::size(kServedRates);
  SpanLog log(o.trace, o.seed), off(false);
  // [rep][rung]
  std::vector<std::vector<SerialRun>> untraced(reps), traced;
  if (o.trace) traced.resize(reps);
  HostReference ref;
  // Reference samples r * rungs .. (r + 1) * rungs bracket ladder r.
  for (int r = 0; r < reps; ++r) {
    for (double rate : kServedRates) {
      ref.Sample();
      const ExperimentConfig config = ServedConfig(rate);
      untraced[r].push_back(
          RunSerial(config, RepSeed(o.seed, r), false, &off));
      if (o.trace) {
        traced[r].push_back(RunSerial(config, RepSeed(o.seed, r), true, &log));
      }
    }
  }
  ref.Sample();
  report->simulations = (untraced.size() + traced.size() + 1) * rungs;

  HostTimes wall;
  std::vector<Rung> ladder(rungs);
  std::vector<const SerialRun*> report_u, report_t;
  double u_wall = 0.0, t_wall = 0.0;
  bool consistent = true, allocs_zero = true;
  uint64_t violations = 0, leaked = 0, allocs = 0;
  const auto audit = [&](const SerialRun& run) {
    consistent = consistent && run.slo_consistent;
    violations += run.lifecycle_violations;
    leaked += run.leaked_entries;
  };
  for (int r = 0; r < reps; ++r) {
    double rep_wall = 0.0, rep_sim = 0.0;
    for (size_t i = 0; i < rungs; ++i) {
      const SerialRun& run = untraced[r][i];
      rep_wall += run.window_wall_s;
      rep_sim += run.window_sim_s;
      u_wall += run.build_s + run.warmup_s + run.window_wall_s;
      ladder[i].rate_qps = kServedRates[i];
      ladder[i].counts.Add(run.outcomes);
      audit(run);
      allocs += run.counts.net_allocs;
      allocs_zero = allocs_zero && run.counts.net_allocs == 0;
      if (kServedRates[i] == kServedReportRate) report_u.push_back(&run);
      if (o.trace) {
        const SerialRun& twin = traced[r][i];
        audit(twin);
        t_wall += twin.build_s + twin.warmup_s + twin.window_wall_s;
        if (kServedRates[i] == kServedReportRate) report_t.push_back(&twin);
        AddCheck(report, "traced run == untraced run (SloReport, counters)",
                 twin.Fingerprint() == run.Fingerprint(),
                 "run " + std::to_string(r) + ", " +
                     std::to_string(static_cast<int>(kServedRates[i])) +
                     " q/s");
      }
    }
    wall.Add(rep_wall / rep_sim,
             ref.MedianOf(r * rungs, (r + 1) * rungs + 1));
  }
  HostMetrics(wall,
              SerialSetups(ServedConfig(kServedReportRate), o.seed,
                           kServedSetups, &ref),
              ref,
              "ladders of " + Seconds(untraced[0][0].window_sim_s) +
                  " simulated per rung",
              report);

  ModeledQueryMetrics(report_u, report);
  OutcomeCounts at_rate;
  double duration = 0.0;
  for (const SerialRun* r : report_u) {
    at_rate.Add(r->outcomes);
    duration += r->duration_s;
  }
  const Ratio goodput{static_cast<double>(at_rate.completed), duration};
  AddMetric(&report->modeled, "goodput_qps", "1/s", "higher", goodput.value(),
            RatioNote(goodput,
                      "simulated s at 8 q/s (on-time completions / s)"));
  const Knee knee = KneeQps(ladder);
  AddMetric(&report->modeled, "knee_qps", "1/s", "higher", knee.qps,
            !knee.passed_any ? "no rung reaches 90% on time (below 1 q/s)"
            : knee.censored  ? "every rung passes: knee at or above 32 q/s"
                             : "highest rung with >= 90% on time");
  for (const Rung& rung : ladder) {
    const Ratio on_time{static_cast<double>(rung.counts.completed),
                        static_cast<double>(rung.counts.issued)};
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "ladder %4.0f q/s: on time %.3f (%s), fail %.3f",
                  rung.rate_qps, on_time.value(),
                  RatioNote(on_time, "issued").c_str(),
                  FailRatio(rung.counts).value());
    report->notes.push_back(buf);
  }

  AddCheck(report, "SloReport::Consistent() on every rung", consistent,
           std::to_string(reps * rungs) + " untraced rungs" +
               (o.trace ? " + traced twins" : ""));
  AddCheck(report, "lifecycle audit: 0 violations, 0 leaked",
           violations == 0 && leaked == 0,
           std::to_string(violations) + " violations, " +
               std::to_string(leaked) + " leaked");
  AddCheck(report, "net.allocs == 0 (steady state)", allocs_zero,
           std::to_string(allocs) + " allocations over all rungs");
  for (size_t i = 0; i < rungs; ++i) {
    const std::string mine = untraced[0][i].Fingerprint();
    const std::string theirs = RunOnceFingerprint(
        ServedConfig(kServedRates[i]), RepSeed(o.seed, 0),
        untraced[0][i].counts);
    AddCheck(report, "reproduces RunOnce (SloReport, records, counters)",
             mine == theirs,
             std::to_string(static_cast<int>(kServedRates[i])) + " q/s, " +
                 std::to_string(mine.size()) + " bytes compared");
  }
  report->notes.push_back(
      "open loop in simulated time: arrivals are simulator events, so the "
      "generator cannot run late and no lateness is reported");

  if (o.trace) {
    OutcomeCounts c;
    uint64_t peak = 0;
    std::vector<double> waits;
    for (const SerialRun* r : report_t) {
      c.Add(r->outcomes);
      peak = std::max(peak, r->peak_inflight);
      waits.insert(waits.end(), r->queue_waits.begin(), r->queue_waits.end());
    }
    SerialLayerMetrics(report_u, report_t, c.issued, report);
    WorkloadLayerMetrics(c, peak, waits, report);
    OverheadMetric(t_wall, u_wall, log, report);
    WriteSpans(o, log, report);
  }
}

// ---------------------------------------------------------------------------
// sharded-20k

int ShardCount() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return cpus > 0 ? std::min(kShardedShards, cpus) : kShardedShards;
}

ExperimentConfig ShardedConfig() {
  ExperimentConfig c;
  c.network.node_count = kShardedNodes;
  c.network.field = Rect::Field(kShardedSide, kShardedSide);
  c.duration = kShardedWindow;
  c.shards = ShardCount();
  c.runs = 1;
  c.jobs = 1;
  return c;
}

// The substrate config RunOnce hands the windowed engine for a
// workload-free sharded run.
PsimConfig ToPsimConfig(const ExperimentConfig& config, uint64_t seed) {
  const NetworkConfig& net = config.network;
  PsimConfig pc;
  pc.node_count = net.node_count;
  pc.field = net.field;
  pc.radio_range_m = net.radio_range_m;
  pc.bit_rate_bps = net.bit_rate_bps;
  pc.loss_rate = net.loss_rate;
  pc.beacon_interval = net.beacon_interval;
  pc.neighbor_timeout = net.neighbor_timeout;
  pc.max_speed = net.mobility == MobilityKind::kStatic ? 0.0 : net.max_speed;
  pc.mac = net.mac;
  pc.scheduler = net.scheduler;
  pc.shards = config.shards;
  pc.duration = config.warmup + config.duration;
  pc.seed = seed;
  return pc;
}

struct PsimRun {
  double setup_s = 0.0, wall_s = 0.0, cpu_s = 0.0, sim_s = 0.0;
  double rss_after_setup_mb = 0.0;
  PsimResult result;
};

PsimRun RunSharded(const ExperimentConfig& config, uint64_t seed, bool traced,
                   SpanLog* log) {
  PsimRun run;
  PsimConfig pc = ToPsimConfig(config, seed);
  if (traced) pc.ts.interval = kSliceS;
  ScopedSpan rep_span(log, "rep", "harness");
  const double t0 = WallNow();
  std::unique_ptr<PsimEngine> engine;
  {
    ScopedSpan span(log, "build", "psim");
    engine = std::make_unique<PsimEngine>(pc);
  }
  run.setup_s = WallNow() - t0;
  run.rss_after_setup_mb = CurrentRssMb();
  const double cpu0 = CpuNow();
  const double w0 = WallNow();
  {
    ScopedSpan span(log, "psim.run", "psim");
    run.result = engine->Run();
  }
  run.wall_s = WallNow() - w0;
  run.cpu_s = CpuNow() - cpu0;
  run.sim_s = pc.duration;
  return run;
}

// The partition-invariant traffic totals plus the invariant obs subset.
std::string PsimFingerprint(const PsimResult& r) {
  const PsimStats::Invariants inv = r.totals.InvariantCounters();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 "\n",
                inv.frames_sent, inv.receptions_attempted,
                inv.receptions_delivered, inv.receptions_collided,
                inv.candidates_scanned, inv.neighbor_updates);
  return buf + InvariantObsJson(r.obs);
}

void RunShardedWorkload(const Options& o, Report* report) {
  const ExperimentConfig config = ShardedConfig();
  report->label =
      "beacon substrate only: windowed parallel engine (src/psim), " +
      std::to_string(config.shards) +
      " shards, N=20000 on 1150 m, random waypoint mu_max=10 m/s, no query "
      "plane";
  if (config.shards < kShardedShards) {
    report->notes.push_back("shards clamped to " +
                            std::to_string(config.shards) + " by nproc");
  }
  const int reps = Reps(o, kShardedNominalRepS);
  SpanLog log(o.trace, o.seed), off(false);
  std::vector<PsimRun> untraced, traced;
  HostReference ref;
  for (int r = 0; r < reps; ++r) {
    ref.Sample();
    ref.Sample();
    untraced.push_back(RunSharded(config, RepSeed(o.seed, r), false, &off));
    if (o.trace) {
      traced.push_back(RunSharded(config, RepSeed(o.seed, r), true, &log));
    }
  }
  ref.Sample();
  ref.Sample();
  report->simulations = untraced.size() + traced.size() + 1;

  HostTimes wall;
  std::vector<double> build, cpu, busy_max, wait_share, efficiency, ns_rx;
  PsimStats totals;
  uint64_t steady_allocs = 0, audit_mismatches = 0;
  double u_wall = 0.0, t_wall = 0.0;
  for (size_t r = 0; r < untraced.size(); ++r) {
    const PsimRun& run = untraced[r];
    const PsimResult& res = run.result;
    // Run r sits between reference samples 2r .. 2r + 3.
    wall.Add(run.wall_s / run.sim_s, ref.MedianOf(2 * r, 2 * r + 4));
    build.push_back(run.setup_s);
    cpu.push_back(run.cpu_s / run.sim_s);
    u_wall += run.setup_s + run.wall_s;
    double bmax = 0.0, bsum = 0.0, worst_wait = 0.0;
    for (const PsimStats& s : res.shard_stats) {
      bmax = std::max(bmax, s.busy_s);
      bsum += s.busy_s;
      worst_wait = std::max(
          worst_wait, Ratio{s.barrier_wait_s, s.busy_s + s.barrier_wait_s}
                          .value());
    }
    busy_max.push_back(bmax);
    wait_share.push_back(worst_wait);
    efficiency.push_back(Ratio{bsum, res.shards * run.wall_s}.value());
    ns_rx.push_back(1e9 * run.wall_s /
                    std::max<uint64_t>(res.totals.receptions_attempted, 1));
    totals += res.totals;
    steady_allocs += res.obs.CounterValue("net.allocs");
    audit_mismatches += res.totals.audit_mismatches;
  }
  for (const PsimRun& run : traced) t_wall += run.setup_s + run.wall_s;

  const HostTimes setup = TimeSetups(&ref, kShardedSetups, [&](int i) {
    return std::make_unique<PsimEngine>(
        ToPsimConfig(config, RepSeed(o.seed, 1000 + i)));
  });
  HostMetrics(wall, setup, ref,
              "runs of " + Seconds(untraced[0].sim_s) + " simulated", report);

  AddCheck(report, "psim.audit_mismatches == 0", audit_mismatches == 0,
           std::to_string(audit_mismatches) + " mismatches over " +
               std::to_string(totals.audit_probes) + " probes");
  // RunMetrics carries psim's obs snapshot but not its PsimStats, so the
  // reproduction compares the partition-invariant obs subset.
  const std::string mine = InvariantObsJson(untraced[0].result.obs);
  const std::string theirs =
      InvariantObsJson(RunOnce(config, RepSeed(o.seed, 0)).obs);
  AddCheck(report, "reproduces RunOnce (partition-invariant obs)",
           mine == theirs, std::to_string(mine.size()) + " bytes compared");
  for (size_t i = 0; i < traced.size(); ++i) {
    AddCheck(report, "traced run == untraced run (invariant counters)",
             PsimFingerprint(traced[i].result) ==
                 PsimFingerprint(untraced[i].result),
             "run " + std::to_string(i));
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "known defect, not gated: sharded runs allocate in steady "
                "state (psim.steady_allocs = %" PRIu64 " over %d runs)",
                steady_allocs, reps);
  report->notes.push_back(buf);
  report->notes.push_back(
      "beacon substrate only: psim drops the paper generator without a "
      "workload spec, so no query metrics are printed");

  if (o.trace) {
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    SetLayer(report, "harness.build_s", Median(build),
             "engine build, median over runs");
    SetLayer(report, "harness.rss_after_setup_mb",
             untraced.front().rss_after_setup_mb, "first run");
    SetLayer(report, "harness.cpu_per_sim_s", Median(cpu),
             "all shard threads, median");
    EngineStats es;
    for (const PsimRun& run : untraced) {
      es.events_fired += run.result.engine.events_fired;
      es.events_pushed += run.result.engine.events_pushed;
      es.events_cancelled += run.result.engine.events_cancelled;
      es.peak_resident = std::max(es.peak_resident,
                                  run.result.engine.peak_resident);
    }
    SetLayer(report, "engine.events_fired", d(es.events_fired),
             "all shards");
    SetLayer(report, "engine.events_pushed", d(es.events_pushed),
             "all shards");
    SetLayerRatio(report, "engine.cancel_ratio",
                  {d(es.events_cancelled), d(es.events_pushed)}, "pushes");
    SetLayer(report, "engine.peak_resident", d(es.peak_resident),
             "max shard");
    SetLayer(report, "net.allocs", d(steady_allocs),
             "known defect, not gated");
    SetLayer(report, "psim.windows", d(totals.windows), "summed over shards");
    SetLayer(report, "psim.frames_sent", d(totals.frames_sent));
    SetLayer(report, "psim.receptions_attempted",
             d(totals.receptions_attempted));
    SetLayerRatio(report, "psim.boundary_share",
                  {d(totals.boundary_frames), d(totals.frames_sent)},
                  "frames");
    SetLayer(report, "psim.migrations", d(totals.migrations_out));
    SetLayer(report, "psim.busy_max_s", Median(busy_max), "median");
    SetLayer(report, "psim.barrier_wait_share", Median(wait_share),
             "worst shard, median");
    SetLayer(report, "psim.parallel_efficiency", Median(efficiency),
             "busy sum / (shards x wall), median");
    SetLayer(report, "psim.ns_per_reception", Median(ns_rx), "median");
    SetLayer(report, "psim.steady_allocs", d(steady_allocs),
             "known defect, not gated");
    SetLayer(report, "psim.audit_mismatches", d(audit_mismatches));
    OverheadMetric(t_wall, u_wall, log, report);
    WriteSpans(o, log, report);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"field-2k", "served-200",
                                                 "sharded-20k"};
  return names;
}

const std::vector<Metric>& PerLayerCatalogue() {
  static const std::vector<Metric> catalogue = [] {
    const char* rows[][3] = {
        {"harness.build_s", "s", "lower"},
        {"harness.warmup_s", "s", "lower"},
        {"harness.rss_after_setup_mb", "MB", "lower"},
        {"harness.cpu_per_sim_s", "s/s", "lower"},
        {"engine.events_fired", "count", "lower"},
        {"engine.events_pushed", "count", "lower"},
        {"engine.cancel_ratio", "ratio", "lower"},
        {"engine.peak_resident", "count", "lower"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.slice_wall_p50_ms", "ms", "lower"},
        {"sim.slice_wall_p99_ms", "ms", "lower"},
        {"channel.frames_sent", "count", "lower"},
        {"net.beacon_share", "ratio", "lower"},
        {"channel.receptions_attempted", "count", "lower"},
        {"channel.delivered_ratio", "ratio", "higher"},
        {"channel.collided_ratio", "ratio", "lower"},
        {"channel.candidates_per_frame", "count", "lower"},
        {"channel.useful_scan_ratio", "ratio", "higher"},
        {"net.ns_per_reception", "ns", "lower"},
        {"mac.tx_attempts", "count", "lower"},
        {"mac.retry_ratio", "ratio", "lower"},
        {"mac.csma_failures", "count", "lower"},
        {"mac.send_failures", "count", "lower"},
        {"mac.duplicates_dropped", "count", "lower"},
        {"net.allocs", "count", "lower"},
        {"pool.frame_reuse_ratio", "ratio", "higher"},
        {"gpsr.sends", "count", "lower"},
        {"gpsr.delivery_ratio", "ratio", "higher"},
        {"gpsr.perimeter_share", "ratio", "lower"},
        {"gpsr.link_failures", "count", "lower"},
        {"gpsr.ttl_expired", "count", "lower"},
        {"diknn.queries_issued", "count", "higher"},
        {"diknn.completion_ratio", "ratio", "higher"},
        {"diknn.probes_sent", "count", "lower"},
        {"diknn.qnode_hops", "count", "lower"},
        {"diknn.replies_sent", "count", "lower"},
        {"diknn.voids_encountered", "count", "lower"},
        {"diknn.boundary_extensions", "count", "lower"},
        {"knn.frames_per_query", "count", "lower"},
        {"serving.cache_hit_ratio", "ratio", "higher"},
        {"serving.coalesced_share", "ratio", "higher"},
        {"serving.shed_share", "ratio", "lower"},
        {"serving.cache_expired", "count", "lower"},
        {"workload.issued", "count", "higher"},
        {"workload.peak_inflight", "count", "lower"},
        {"workload.queue_wait_p50_s", "s", "lower"},
        {"workload.reject_ratio", "ratio", "lower"},
        {"workload.timeout_ratio", "ratio", "lower"},
        {"workload.miss_ratio", "ratio", "lower"},
        {"psim.windows", "count", "lower"},
        {"psim.frames_sent", "count", "lower"},
        {"psim.receptions_attempted", "count", "lower"},
        {"psim.boundary_share", "ratio", "lower"},
        {"psim.migrations", "count", "lower"},
        {"psim.busy_max_s", "s", "lower"},
        {"psim.barrier_wait_share", "ratio", "lower"},
        {"psim.parallel_efficiency", "ratio", "higher"},
        {"psim.ns_per_reception", "ns", "lower"},
        {"psim.steady_allocs", "count", "lower"},
        {"psim.audit_mismatches", "count", "lower"},
        {"obs.overhead_ratio", "ratio", "lower"},
        {"tracer.spans", "count", "lower"},
    };
    std::vector<Metric> out;
    for (const auto& row : rows) {
      out.push_back({row[0], row[1], row[2], 0.0, ""});
    }
    return out;
  }();
  return catalogue;
}

bool RunWorkload(const Options& options, Report* report) {
  const std::string pinned = PinToCurrentCpu();
  if (options.workload == "field-2k") {
    RunField(options, report);
  } else if (options.workload == "served-200") {
    RunServed(options, report);
  } else if (options.workload == "sharded-20k") {
    RunShardedWorkload(options, report);
  } else {
    return false;
  }
  report->notes.push_back(pinned);
  AddMetric(&report->end_to_end, "peak_rss_mb", "MB", "lower", PeakRssMb(),
            "peak resident memory of the process");
  return true;
}

}  // namespace perfbench
