// Randomized end-to-end property tests: drive each protocol through
// randomly drawn configurations and query sequences, asserting the
// invariants that must hold regardless of topology, mobility, loss, or
// contention:
//
//   1. every IssueQuery handler fires exactly once;
//   2. results never exceed k candidates and contain no duplicates;
//   3. returned ids are real, non-infrastructure node ids;
//   4. simulation time stays monotone and the run terminates;
//   5. energy accounting only ever increases.
//
// And seeded random and mutated inputs for the three text parsers
// (WorkloadSpec, FaultPlan, JsonValue), asserting that:
//
//   6. no input crashes a parser (run these under the asan preset too);
//   7. every accepted spec round-trips:
//      Parse(x.ToSpec()).ToSpec() == x.ToSpec(), with only finite numbers;
//   8. every well-formed JSON document parses to the value it encodes.

#include <cctype>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "faults/fault_plan.h"
#include "harness/experiment.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

struct FuzzCase {
  ProtocolKind protocol;
  uint64_t seed;
};

class ProtocolFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ProtocolFuzzTest, InvariantsHoldUnderRandomConfigs) {
  const FuzzCase& fuzz = GetParam();
  Rng rng(fuzz.seed);

  ExperimentConfig config;
  config.protocol = fuzz.protocol;
  config.network.node_count = rng.UniformInt(60, 220);
  const double side = rng.Uniform(80.0, 160.0);
  config.network.field = Rect::Field(side, side);
  config.network.max_speed = rng.Uniform(0.0, 25.0);
  config.network.loss_rate = rng.Uniform(0.0, 0.2);
  config.network.placement = rng.Bernoulli(0.3)
                                 ? PlacementKind::kClustered
                                 : PlacementKind::kUniform;
  config.k = rng.UniformInt(1, 60);
  config.diknn.num_sectors = rng.UniformInt(1, 12);
  config.diknn.rendezvous = rng.Bernoulli(0.7);
  config.diknn.collection_scheme =
      static_cast<CollectionScheme>(rng.UniformInt(0, 2));

  ProtocolStack stack(config, fuzz.seed);
  Network& net = stack.network();
  net.Warmup(2.5);

  const int mobile = net.config().node_count;
  int handler_calls = 0;
  const int queries = 3;
  double last_energy = net.TotalEnergy();

  for (int i = 0; i < queries; ++i) {
    const Point q = rng.PointInRect(config.network.field);
    const int k = config.k;
    stack.protocol().IssueQuery(
        0, q, k, [&, k](const KnnResult& result) {
          ++handler_calls;
          EXPECT_LE(result.candidates.size(), static_cast<size_t>(k));
          std::unordered_set<NodeId> seen;
          for (const KnnCandidate& c : result.candidates) {
            EXPECT_TRUE(seen.insert(c.id).second)
                << "duplicate candidate " << c.id;
            EXPECT_GE(c.id, 0);
            EXPECT_LT(c.id, mobile) << "non-sensor id returned";
          }
          EXPECT_GE(result.completed_at, result.issued_at);
        });
    // Monotone clock + monotone energy while draining.
    const SimTime before = net.sim().Now();
    net.sim().RunUntil(before + 12.0);
    EXPECT_GE(net.sim().Now(), before);
    const double energy = net.TotalEnergy();
    EXPECT_GE(energy, last_energy);
    last_energy = energy;
  }

  EXPECT_EQ(handler_calls, queries) << "handler must fire exactly once";
  EXPECT_EQ(net.sim().pending_events() > 0, true)
      << "beaconing keeps the simulation alive";
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  const ProtocolKind kinds[] = {ProtocolKind::kDiknn,
                                ProtocolKind::kKptKnnb,
                                ProtocolKind::kPeerTree,
                                ProtocolKind::kFlooding,
                                ProtocolKind::kCentralized};
  uint64_t seed = 1000;
  for (ProtocolKind kind : kinds) {
    for (int i = 0; i < 3; ++i) {
      cases.push_back({kind, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, ProtocolFuzzTest, ::testing::ValuesIn(MakeCases()),
    [](const auto& info) {
      std::string name = ProtocolName(info.param.protocol);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

// --- Text parsers -----------------------------------------------------

constexpr int kParserInputs = 20000;

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
}

// Values that probe the numeric readers: signs, zero, exponents at and
// past the double range, non-finite spellings, int overflow, garbage.
std::string RandomValue(Rng& rng) {
  static const std::vector<std::string> kSpecial = {
      "0",    "-0",   "1",          "-1",          "0.5",    "1e-300",
      "1e308", "1e999", "-1e999",   "nan",         "inf",    "-inf",
      "0x10", "",     "abc",        "1.5.2",       " 3",     "2147483647",
      "2147483648",   "-2147483649", "4294967297", "99999999999999999999",
      "1,",   "=",    "@",          "1e",          "+4",     "00012"};
  char buf[64];
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return Pick(rng, kSpecial);
    case 1:
      std::snprintf(buf, sizeof(buf), "%d", rng.UniformInt(-5, 120));
      return buf;
    case 2:
      std::snprintf(buf, sizeof(buf), "%.*g", rng.UniformInt(1, 17),
                    rng.Uniform(-2.0, 60.0));
      return buf;
    default:
      std::snprintf(buf, sizeof(buf), "%.*g", rng.UniformInt(1, 17),
                    rng.Uniform(0.0, 1.0));
      return buf;
  }
}

// A spec-shaped string over `sections` and `keys`: clauses of
// section@key=value,... joined by ';', with missing separators, empty
// clauses and unknown names mixed in.
std::string RandomSpecText(Rng& rng, const std::vector<std::string>& sections,
                           const std::vector<std::string>& keys) {
  std::string out;
  const int clauses = rng.UniformInt(0, 6);
  for (int c = 0; c < clauses; ++c) {
    if (c > 0) out += rng.Bernoulli(0.95) ? ";" : ";;";
    out += rng.Bernoulli(0.95) ? Pick(rng, sections) : RandomValue(rng);
    if (rng.Bernoulli(0.97)) out += '@';
    const int pairs = rng.UniformInt(0, 5);
    for (int k = 0; k < pairs; ++k) {
      if (k > 0) out += ',';
      out += rng.Bernoulli(0.95) ? Pick(rng, keys) : RandomValue(rng);
      if (rng.Bernoulli(0.97)) out += '=';
      out += RandomValue(rng);
    }
  }
  if (rng.Bernoulli(0.05)) out += ';';
  return out;
}

// Up to eight random byte edits of `text`: deletions, insertions (grammar
// punctuation, digits, letters or any byte), and duplicated spans.
std::string Mutate(Rng& rng, std::string text) {
  static const std::string kAlphabet =
      "@=,;.-+eE0123456789abcdefghijklmnopqrstuvwxyz{}[]\":\\ ";
  const int edits = rng.UniformInt(1, 8);
  for (int i = 0; i < edits; ++i) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(text.size())));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 1:
        text.insert(at, 1,
                    kAlphabet[static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int>(kAlphabet.size()) - 1))]);
        break;
      case 2:
        text.insert(at, 1, static_cast<char>(rng.UniformInt(0, 255)));
        break;
      default: {
        const size_t len = static_cast<size_t>(rng.UniformInt(1, 12));
        text.insert(at, text.substr(at, len));
        break;
      }
    }
  }
  return text;
}

// Property 7 for one input of a spec type (WorkloadSpec or FaultPlan).
// Returns whether the input was accepted.
template <typename Spec>
bool ExpectRoundTrip(const std::string& input) {
  const auto parsed = Spec::Parse(input);
  if (!parsed) return false;
  const std::string canonical = parsed->ToSpec();
  for (const char* non_finite : {"=nan", "=-nan", "=inf", "=-inf"}) {
    EXPECT_EQ(canonical.find(non_finite), std::string::npos)
        << "input: " << input << "\ncanonical: " << canonical;
  }
  std::string error;
  const auto again = Spec::Parse(canonical, &error);
  EXPECT_TRUE(again.has_value())
      << "input: " << input << "\ncanonical: " << canonical << "\n" << error;
  if (again) {
    EXPECT_EQ(again->ToSpec(), canonical) << "input: " << input;
  }
  return true;
}

// Runs random and mutated inputs through ExpectRoundTrip<Spec>, starting
// mutations from `corpus`. Requires that some inputs of each kind parse,
// so the round-trip check is never vacuous.
template <typename Spec>
void FuzzSpecParser(uint64_t seed, const std::vector<std::string>& corpus,
                    const std::vector<std::string>& sections,
                    const std::vector<std::string>& keys) {
  Rng rng(seed);
  int random_accepted = 0;
  int mutated_accepted = 0;
  for (int i = 0; i < kParserInputs; ++i) {
    if (ExpectRoundTrip<Spec>(RandomSpecText(rng, sections, keys))) {
      ++random_accepted;
    }
    if (ExpectRoundTrip<Spec>(Mutate(rng, Pick(rng, corpus)))) {
      ++mutated_accepted;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(random_accepted, kParserInputs / 100);
  EXPECT_GT(mutated_accepted, kParserInputs / 100);
}

TEST(ParserFuzzTest, WorkloadSpecRoundTrips) {
  const std::vector<std::string> corpus = {
      "",
      "arrival@kind=poisson,rate=6;mix@knn=0.8,window=0.1,aggregate=0.1;"
      "k@lo=20,hi=40;deadline@s=4;admit@inflight=64,queue=32,shed=1;"
      "cache@ttl=8,cells=4;coalesce@window=2.5,kslack=10",
      "arrival@kind=closed,sessions=16,think=0.25;mix@continuous=1;"
      "continuous@period=0.5,rounds=4;trace@rate=0.5",
      "arrival@kind=fixed,rate=3;mix@knnb=2,knn=1;window@side=25;"
      "space@kind=hotspot,n=2,sigma=5,skew=1.2;"
      "timeseries@interval=1,capacity=64",
  };
  const std::vector<std::string> sections = {
      "arrival", "mix",    "k",        "space",      "deadline", "admit",
      "cache",   "coalesce", "window", "continuous", "trace",    "timeseries"};
  const std::vector<std::string> keys = {
      "kind",     "rate",   "sessions", "think",  "knn",      "knnb",
      "window",   "continuous", "aggregate", "lo", "hi",      "n",
      "sigma",    "skew",   "s",        "inflight", "queue",  "shed",
      "ttl",      "cells",  "kslack",   "side",   "period",   "rounds",
      "interval", "capacity", "poisson", "fixed", "closed",   "hotspot"};
  FuzzSpecParser<WorkloadSpec>(0xF00D, corpus, sections, keys);
}

TEST(ParserFuzzTest, FaultPlanRoundTrips) {
  const std::vector<std::string> corpus = {
      "",
      "kill@t=5,count=2;ackloss@t=8,dur=2",
      "dup@t=4,dur=8,prob=0.3;ackloss@t=10,dur=6,prob=0.5,src=3,dst=4;"
      "dup@t=20,dur=4,prob=1",
      "churn@t=1,up=5,down=2,frac=0.1;freeze@t=2,node=3,dur=1;"
      "teleport@t=3,node=4,x=10,y=20;revive@t=9,node=3;"
      "drop@t=0,dur=1,prob=0.25",
  };
  const std::vector<std::string> sections = {
      "kill", "revive", "churn", "ackloss", "drop", "dup", "freeze",
      "teleport"};
  const std::vector<std::string> keys = {
      "t",   "t",   "t",   "dur", "node", "count", "prob", "src",
      "dst", "x",   "y",   "up",  "down", "frac"};
  FuzzSpecParser<FaultPlan>(0xFA17, corpus, sections, keys);
}

// Inputs the fuzzers above found accepted and mis-read, now rejected.
TEST(ParserFuzzTest, FixedCasesRejectNonFiniteAndOverflowingNumbers) {
  for (const char* spec :
       {"arrival@kind=poisson,rate=nan", "deadline@s=inf",
        "mix@knn=nan", "trace@rate=nan", "k@lo=4294967297",
        "admit@inflight=4294967360", "arrival@kind=poisson,rate=1e999"}) {
    EXPECT_FALSE(WorkloadSpec::Parse(spec).has_value()) << spec;
  }
  for (const char* spec :
       {"kill@t=inf,count=1", "ackloss@t=1,dur=1,prob=nan",
        "dup@t=0,dur=nan", "kill@t=1,node=4294967297",
        "churn@t=0,up=inf"}) {
    EXPECT_FALSE(FaultPlan::Parse(spec).has_value()) << spec;
  }
}

// A random JSON value of depth <= `depth`, built directly.
JsonValue RandomJson(Rng& rng, int depth) {
  JsonValue v;
  const int kind = rng.UniformInt(0, depth > 0 ? 5 : 3);
  switch (kind) {
    case 0:
      v.kind = JsonValue::Kind::kNull;
      break;
    case 1:
      v.kind = JsonValue::Kind::kBool;
      v.boolean = rng.Bernoulli(0.5);
      break;
    case 2:
      v.kind = JsonValue::Kind::kNumber;
      v.number = rng.Bernoulli(0.5) ? rng.UniformInt(-1000, 1000)
                                    : rng.Uniform(-1e6, 1e6);
      break;
    case 3: {
      v.kind = JsonValue::Kind::kString;
      const int len = rng.UniformInt(0, 12);
      for (int i = 0; i < len; ++i) {
        v.string += static_cast<char>(rng.UniformInt(1, 126));
      }
      break;
    }
    case 4: {
      v.kind = JsonValue::Kind::kArray;
      const int n = rng.UniformInt(0, 4);
      for (int i = 0; i < n; ++i) {
        v.array.push_back(RandomJson(rng, depth - 1));
      }
      break;
    }
    default: {
      v.kind = JsonValue::Kind::kObject;
      const int n = rng.UniformInt(0, 4);
      for (int i = 0; i < n; ++i) {
        // Distinct keys: the parser keeps duplicates, Find() the first.
        std::string key = "k";
        key += std::to_string(i);
        v.object.emplace_back(std::move(key), RandomJson(rng, depth - 1));
      }
      break;
    }
  }
  return v;
}

// Serializes `v` as JSON. With an Rng, sprinkles optional whitespace.
void WriteJson(const JsonValue& v, Rng* ws, std::string* out) {
  const auto space = [&] {
    if (ws != nullptr && ws->Bernoulli(0.2)) {
      *out += " \n\t"[ws->UniformInt(0, 2)];
    }
  };
  const auto string = [&](const std::string& s) {
    *out += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        *out += '\\';
        *out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(c));
        *out += buf;
      } else {
        *out += c;
      }
    }
    *out += '"';
  };
  space();
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      *out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      string(v.string);
      break;
    case JsonValue::Kind::kArray:
      *out += '[';
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) *out += ',';
        WriteJson(v.array[i], ws, out);
      }
      *out += ']';
      break;
    case JsonValue::Kind::kObject:
      *out += '{';
      for (size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) *out += ',';
        space();
        string(v.object[i].first);
        space();
        *out += ':';
        WriteJson(v.object[i].second, ws, out);
      }
      *out += '}';
      break;
  }
  space();
}

std::string CanonicalJson(const JsonValue& v) {
  std::string out;
  WriteJson(v, nullptr, &out);
  return out;
}

TEST(ParserFuzzTest, JsonParsesWellFormedAndSurvivesMutation) {
  Rng rng(0x1503);
  int mutated_accepted = 0;
  for (int i = 0; i < kParserInputs; ++i) {
    const JsonValue value = RandomJson(rng, rng.UniformInt(0, 5));
    std::string text;
    WriteJson(value, &rng, &text);
    std::string error;
    const auto parsed = JsonValue::Parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << "\n" << error;
    ASSERT_EQ(CanonicalJson(*parsed), CanonicalJson(value)) << text;

    const auto mutated = JsonValue::Parse(Mutate(rng, text));
    if (mutated) {
      ++mutated_accepted;
      EXPECT_FALSE(CanonicalJson(*mutated).empty());  // Walk the value.
    }
  }
  EXPECT_GT(mutated_accepted, 0);
}

// Deep nesting: the parser recursed once per level with no bound, so a
// long enough run of '[' overflowed the stack. Now it refuses past 256.
TEST(ParserFuzzTest, JsonDeepNestingFailsCleanly) {
  for (const int depth : {1, 255, 256, 257, 100000}) {
    for (const char* brackets : {"[]", "{}"}) {
      std::string open;
      std::string close;
      for (int i = 0; i < depth; ++i) {
        open += brackets[0] == '[' ? "[" : "{\"a\":";
        close += brackets[1];
      }
      const std::string inner = brackets[0] == '[' ? "" : "0";
      EXPECT_EQ(JsonValue::Parse(open + inner + close).has_value(),
                depth <= 256)
          << brackets << " x" << depth;
      EXPECT_FALSE(JsonValue::Parse(open).has_value());
    }
  }
}

}  // namespace
}  // namespace diknn
