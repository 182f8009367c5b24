// Tests for lmp::trace: Chrome trace_event JSON schema validity, per-track
// timestamp monotonicity, byte-determinism across identical runs, the
// null-collector fast path, and the metrics-export JSON.
//
// A minimal recursive-descent JSON parser (below) validates the output the
// way a consumer (chrome://tracing, Perfetto) would: the file must parse,
// and each event must carry the required fields with the right types.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "common/units.h"
#include "core/migration.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "core/task_scheduler.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::trace {
namespace {

// --- Mini JSON parser ---------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  // Parses the full document; sets ok=false on any syntax error.
  JsonValue Parse(bool* ok) {
    JsonValue v = ParseValue();
    SkipWs();
    *ok = !failed_ && pos_ == s_.size();
    return v;
  }

 private:
  void Fail() { failed_ = true; }
  char Peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char Next() { return pos_ < s_.size() ? s_[pos_++] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (Peek() != c) {
      Fail();
      return false;
    }
    ++pos_;
    return true;
  }

  JsonValue ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue{ParseString()};
      case 't':
        return ParseLiteral("true", JsonValue{true});
      case 'f':
        return ParseLiteral("false", JsonValue{false});
      case 'n':
        return ParseLiteral("null", JsonValue{nullptr});
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseLiteral(std::string_view lit, JsonValue v) {
    if (s_.substr(pos_, lit.size()) != lit) {
      Fail();
      return JsonValue{nullptr};
    }
    pos_ += lit.size();
    return v;
  }

  std::string ParseString() {
    std::string out;
    if (!Consume('"')) return out;
    while (true) {
      const char c = Next();
      if (c == '\0') {
        Fail();
        return out;
      }
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = Next();
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = Next();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                Fail();
                return out;
              }
            }
            out += static_cast<char>(code);  // BMP-below-0x80 is enough here
            break;
          }
          default:
            Fail();
            return out;
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (pos_ == start) {
      Fail();
      return JsonValue{nullptr};
    }
    return JsonValue{std::stod(std::string(s_.substr(start, pos_ - start)))};
  }

  JsonValue ParseObject() {
    JsonObject obj;
    if (!Consume('{')) return JsonValue{std::move(obj)};
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{std::move(obj)};
    }
    while (true) {
      SkipWs();
      std::string key = ParseString();
      if (failed_ || !Consume(':')) return JsonValue{std::move(obj)};
      obj.emplace(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Consume('}');
      return JsonValue{std::move(obj)};
    }
  }

  JsonValue ParseArray() {
    JsonArray arr;
    if (!Consume('[')) return JsonValue{std::move(arr)};
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{std::move(arr)};
    }
    while (true) {
      arr.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Consume(']');
      return JsonValue{std::move(arr)};
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- Scenario: a small traced simulation ----------------------------------------

// Runs a migration workload with tracing attached and returns the trace
// JSON.  Deterministic: same calls, same sim time, every run.
std::string TracedMigrationRun() {
  TraceCollector collector;
  sim::FluidSimulator sim;
  auto topo =
      fabric::Topology::MakeLogical(&sim, 4, fabric::LinkProfile::Link1());
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(8);
  config.server_shared_memory = MiB(8);
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);

  collector.BeginProcess("tracing_test");
  collector.set_clock([&sim] { return sim.now(); });
  sim.set_trace(&collector);
  manager.set_trace(&collector);

  // A few flows with known paths.
  sim.StartFlow(1e6, {topo.core(0, 0), topo.dram(0)});
  sim.StartFlow(2e6, {topo.core(0, 1), topo.port(0), topo.port(1),
                      topo.dram(1)});
  sim.Run();

  // An allocation and a migration.
  auto buf = manager.Allocate(MiB(1), 1);
  EXPECT_TRUE(buf.ok());
  const auto seg = manager.Describe(*buf)->segments[0];
  manager.access_tracker().RecordAccess(seg, 0, MiB(4), sim.now());
  core::MigrationEngine engine(
      &manager, core::MigrationConfig{.dominance_threshold = 0.5,
                                      .benefit_factor = 0.0,
                                      .max_migrations_per_round = 4});
  EXPECT_TRUE(engine.RunOnce(sim.now(), nullptr).ok());

  // Link samples and shipped-task spans.
  topo.SampleUtilization(&collector);
  core::TaskScheduler sched(&sim, &topo, /*slots_per_server=*/2);
  sched.set_trace(&collector);
  EXPECT_TRUE(sched.Submit(core::ComputeTask{0, 1e6, 1000}).ok());
  EXPECT_TRUE(sched.Submit(core::ComputeTask{1, 0, 500}).ok());
  sched.Drain();

  return collector.ToChromeJson();
}

// --- Tests ----------------------------------------------------------------------

TEST(TracingTest, ChromeJsonParsesAndHasRequiredFields) {
  const std::string json = TracedMigrationRun();
  bool ok = false;
  JsonValue doc = JsonParser(json).Parse(&ok);
  ASSERT_TRUE(ok) << "trace JSON failed to parse";
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.object().contains("traceEvents"));
  ASSERT_TRUE(doc.object().contains("displayTimeUnit"));

  const JsonArray& events = doc.object().at("traceEvents").array();
  ASSERT_GT(events.size(), 5u);
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& obj = ev.object();
    ASSERT_TRUE(obj.contains("name"));
    ASSERT_TRUE(obj.contains("cat"));
    ASSERT_TRUE(obj.contains("ph"));
    ASSERT_TRUE(obj.contains("ts"));
    ASSERT_TRUE(obj.contains("pid"));
    ASSERT_TRUE(obj.contains("tid"));
    EXPECT_TRUE(obj.at("name").is_string());
    EXPECT_TRUE(obj.at("cat").is_string());
    EXPECT_TRUE(obj.at("ts").is_number());
    const std::string& ph = obj.at("ph").str();
    ASSERT_EQ(ph.size(), 1u);
    EXPECT_NE(std::string("BEiCM").find(ph[0]), std::string::npos)
        << "unexpected phase " << ph;
    if (ph == "i") {
      // Instant events need an explicit scope to render.
      ASSERT_TRUE(obj.contains("s"));
      EXPECT_EQ(obj.at("s").str(), "t");
    }
  }
}

TEST(TracingTest, TimestampsMonotonicPerTrack) {
  const std::string json = TracedMigrationRun();
  bool ok = false;
  JsonValue doc = JsonParser(json).Parse(&ok);
  ASSERT_TRUE(ok);
  std::map<std::pair<double, double>, double> last_ts;
  for (const JsonValue& ev : doc.object().at("traceEvents").array()) {
    const JsonObject& obj = ev.object();
    if (obj.at("ph").str() == "M") continue;  // metadata carries no time
    const auto key = std::make_pair(obj.at("pid").number(),
                                    obj.at("tid").number());
    const double ts = obj.at("ts").number();
    auto [it, inserted] = last_ts.emplace(key, ts);
    if (!inserted) {
      EXPECT_GE(ts, it->second)
          << "track (" << key.first << "," << key.second
          << ") went backwards";
      it->second = ts;
    }
    EXPECT_GE(ts, 0.0) << "sim timestamps are never negative";
  }
}

TEST(TracingTest, SpanBeginsAndEndsPairPerTrack) {
  const std::string json = TracedMigrationRun();
  bool ok = false;
  JsonValue doc = JsonParser(json).Parse(&ok);
  ASSERT_TRUE(ok);
  std::map<std::pair<double, double>, int> depth;
  bool saw_span = false;
  for (const JsonValue& ev : doc.object().at("traceEvents").array()) {
    const JsonObject& obj = ev.object();
    const std::string& ph = obj.at("ph").str();
    if (ph != "B" && ph != "E") continue;
    saw_span = true;
    const auto key = std::make_pair(obj.at("pid").number(),
                                    obj.at("tid").number());
    depth[key] += ph == "B" ? 1 : -1;
    EXPECT_GE(depth[key], 0) << "E before B on a track";
  }
  EXPECT_TRUE(saw_span);
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on track (" << key.first << ","
                    << key.second << ")";
  }
}

TEST(TracingTest, OutputIsByteDeterministic) {
  EXPECT_EQ(TracedMigrationRun(), TracedMigrationRun());
}

TEST(TracingTest, DisabledCollectorIsInert) {
  // No set_trace calls: same simulation, no events, identical sim results.
  auto run = [](TraceCollector* collector) {
    sim::FluidSimulator sim;
    auto topo = fabric::Topology::MakeLogical(&sim, 2,
                                              fabric::LinkProfile::Link1());
    if (collector != nullptr) sim.set_trace(collector);
    sim.StartFlow(1e6, {topo.core(0, 0), topo.dram(0)});
    sim.StartFlow(3e6, {topo.core(0, 1), topo.dram(0)});
    sim.Run();
    return sim.now();
  };
  TraceCollector collector;
  const SimTime traced = run(&collector);
  const SimTime untraced = run(nullptr);
  EXPECT_EQ(traced, untraced) << "tracing must not perturb simulation";
  EXPECT_GT(collector.event_count(), 0u);
}

TEST(TracingTest, ClockDrivesFunctionalLayerTimestamps) {
  TraceCollector collector;
  EXPECT_EQ(collector.now(), 0);  // no clock: harmless zero
  SimTime t = 42;
  collector.set_clock([&t] { return t; });
  EXPECT_EQ(collector.now(), 42);
  t = 43;
  EXPECT_EQ(collector.now(), 43);
  collector.set_clock({});
  EXPECT_EQ(collector.now(), 0);
}

TEST(TracingTest, ProcessesSeparateIndependentTimelines) {
  TraceCollector collector;
  collector.BeginProcess("first");
  collector.Instant(Category::kHarness, "a", 100);
  collector.BeginProcess("second");
  collector.Instant(Category::kHarness, "a", 5);  // restarts at earlier time

  bool ok = false;
  JsonValue doc = JsonParser(collector.ToChromeJson()).Parse(&ok);
  ASSERT_TRUE(ok);
  const JsonArray& events = doc.object().at("traceEvents").array();
  ASSERT_EQ(events.size(), 4u);
  // Two metadata events naming the processes, with distinct pids.
  EXPECT_EQ(events[0].object().at("ph").str(), "M");
  EXPECT_EQ(events[2].object().at("ph").str(), "M");
  EXPECT_NE(events[0].object().at("pid").number(),
            events[2].object().at("pid").number());
  // The instants inherit their process pid, so t=5 after t=100 is fine.
  EXPECT_EQ(events[1].object().at("pid").number(),
            events[0].object().at("pid").number());
  EXPECT_EQ(events[3].object().at("pid").number(),
            events[2].object().at("pid").number());
}

TEST(TracingTest, ArgStringsAreEscaped) {
  TraceCollector collector;
  collector.Instant(Category::kHarness, "weird \"name\"\n", 0,
                    {Arg("key\twith\ttabs", "value\\with\"stuff\n")});
  bool ok = false;
  JsonValue doc = JsonParser(collector.ToChromeJson()).Parse(&ok);
  ASSERT_TRUE(ok) << "escaping must keep the document parseable";
  const JsonObject& ev = doc.object().at("traceEvents").array()[0].object();
  EXPECT_EQ(ev.at("name").str(), "weird \"name\"\n");
  EXPECT_EQ(ev.at("args").object().at("key\twith\ttabs").str(),
            "value\\with\"stuff\n");
}

TEST(TracingTest, MetricsJsonContainsEveryRegisteredMetric) {
  MetricsRegistry registry;
  registry.Increment("lmp.alloc.count", 3);
  registry.Increment("lmp.migrate.bytes", 1024);
  registry.SetGauge("lmp.util", 0.375);
  registry.SetGauge("lmp.big", 1.5e300);

  bool ok = false;
  JsonValue doc = JsonParser(MetricsJson(registry)).Parse(&ok);
  ASSERT_TRUE(ok);
  const JsonObject& counters = doc.object().at("counters").object();
  const JsonObject& gauges = doc.object().at("gauges").object();
  ASSERT_EQ(counters.size(), 2u);
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(counters.at("lmp.alloc.count").number(), 3);
  EXPECT_EQ(counters.at("lmp.migrate.bytes").number(), 1024);
  EXPECT_DOUBLE_EQ(gauges.at("lmp.util").number(), 0.375);
  EXPECT_DOUBLE_EQ(gauges.at("lmp.big").number(), 1.5e300);
}

// A cached counter handle stays valid however many metrics are created
// after it, and what is added through it is what Counter() and the
// metrics export read.
TEST(TracingTest, CounterHandleSurvivesLaterInsertions) {
  MetricsRegistry registry;
  std::uint64_t& hops = registry.GetCounter("ops.hops");
  EXPECT_EQ(registry.Counter("ops.hops"), 0u);
  hops += 2;
  for (int i = 0; i < 2000; ++i) {
    registry.Increment("filler." + std::to_string(i));
    registry.GetHistogram("filler_hist." + std::to_string(i)).Record(1);
  }
  hops += 5;
  registry.Increment("ops.hops", 3);
  EXPECT_EQ(&registry.GetCounter("ops.hops"), &hops);
  EXPECT_EQ(registry.Counter("ops.hops"), 10u);

  bool ok = false;
  JsonValue doc = JsonParser(MetricsJson(registry)).Parse(&ok);
  ASSERT_TRUE(ok);
  const JsonObject& counters = doc.object().at("counters").object();
  EXPECT_EQ(counters.size(), 2001u);
  EXPECT_EQ(counters.at("ops.hops").number(), 10);
}

TEST(TracingTest, MetricsJsonFromTracedRunCoversPoolCounters) {
  // End-to-end: a PoolManager run against a private registry exports every
  // counter it incremented.
  MetricsRegistry registry;
  cluster::ClusterConfig config;
  config.num_servers = 2;
  config.server_total_memory = MiB(8);
  config.server_shared_memory = MiB(8);
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  manager.set_metrics(&registry);
  auto buf = manager.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager.Free(*buf).ok());

  bool ok = false;
  JsonValue doc = JsonParser(MetricsJson(registry)).Parse(&ok);
  ASSERT_TRUE(ok);
  const JsonObject& counters = doc.object().at("counters").object();
  EXPECT_EQ(counters.size(), registry.counters().size());
  for (const auto& [name, value] : registry.counters()) {
    ASSERT_TRUE(counters.contains(name)) << name << " missing from export";
    EXPECT_EQ(counters.at(name).number(), static_cast<double>(value));
  }
}

TEST(TracingTest, WriteFilesRoundTrip) {
  TraceCollector collector;
  collector.BeginProcess("files");
  collector.Instant(Category::kHarness, "mark", 1000);
  const std::string trace_path =
      testing::TempDir() + "/tracing_test_trace.json";
  ASSERT_TRUE(collector.WriteChromeJson(trace_path).ok());

  MetricsRegistry registry;
  registry.Increment("c", 7);
  const std::string metrics_path =
      testing::TempDir() + "/tracing_test_metrics.json";
  ASSERT_TRUE(WriteMetricsJson(registry, metrics_path).ok());

  std::FILE* f = std::fopen(trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  const std::size_t n = std::fread(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  contents.resize(n);
  EXPECT_EQ(contents, collector.ToChromeJson());

  EXPECT_FALSE(collector.WriteChromeJson("/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace lmp::trace
