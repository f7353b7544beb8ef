#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/ireduct.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "dp/workload.h"
#include "minijson.h"

namespace ireduct {
namespace obs {
namespace {

#if IREDUCT_ENABLE_TRACING

// Restores the (empty) installed state even when a test fails mid-body.
class ScopedInstall {
 public:
  explicit ScopedInstall(EventLog* log) { EventLog::Install(log); }
  ~ScopedInstall() { EventLog::Install(nullptr); }
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EventLogTest, SerializesFieldsInOrderWithSeq) {
  EventLog log;
  log.Emit("test.alpha", {{"round", uint64_t{3}},
                          {"scale", 2.5},
                          {"label", std::string_view("x\"y")}});
  log.Emit("test.beta", {{"neg", int64_t{-4}}});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"seq\":0,\"type\":\"test.alpha\",\"round\":3,\"scale\":2.5,"
            "\"label\":\"x\\\"y\"}");
  EXPECT_EQ(lines[1], "{\"seq\":1,\"type\":\"test.beta\",\"neg\":-4}");
  for (const std::string& line : lines) {
    EXPECT_TRUE(minijson::Parse(line).has_value()) << line;
  }
}

TEST(EventLogTest, RingDropsOldestAndKeepsSeqMonotonic) {
  EventLog log(/*capacity=*/3);
  for (int i = 0; i < 7; ++i) {
    log.Emit("test.ring", {{"i", i}});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_emitted(), 7u);
  EXPECT_EQ(log.total_dropped(), 4u);
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 3u);
  // The survivors are the newest three; their seq gap records the drops.
  EXPECT_EQ(lines[0].rfind("{\"seq\":4,", 0), 0u) << lines[0];
  EXPECT_EQ(lines[2].rfind("{\"seq\":6,", 0), 0u) << lines[2];
}

TEST(EventLogTest, DrainEmptiesBufferButCountersKeepRunning) {
  EventLog log;
  log.Emit("test.drain", {{"i", 1}});
  std::string out;
  log.Drain(&out);
  EXPECT_EQ(out, "{\"seq\":0,\"type\":\"test.drain\",\"i\":1}\n");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_emitted(), 1u);
  log.Emit("test.drain", {{"i", 2}});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"seq\":1,", 0), 0u) << lines[0];
}

TEST(EventLogTest, SummaryCountsByTypeAcrossDrains) {
  EventLog log;
  log.Emit("test.a", {});
  log.Emit("test.b", {});
  log.Emit("test.a", {});
  std::string sink;
  log.Drain(&sink);
  log.Emit("test.a", {});
  EXPECT_EQ(log.CountType("test.a"), 3u);
  EXPECT_EQ(log.CountType("test.b"), 1u);
  EXPECT_EQ(log.SummaryJson(),
            "{\"emitted\":4,\"dropped\":0,\"buffered\":1,"
            "\"by_type\":{\"test.a\":3,\"test.b\":1}}");
}

TEST(EventLogTest, WallClockIsOptIn) {
  EventLog log;
  log.Emit("test.clock", {});
  log.set_wall_clock(true);
  log.Emit("test.clock", {});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("ts_us"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ts_us\":"), std::string::npos);
  // Instants carry a timestamp but no duration.
  EXPECT_EQ(lines[1].find("dur_us"), std::string::npos);
}

// Without the wall clock a span is byte-identical to an Emit of the same
// fields at scope exit, so spans keep the default stream deterministic.
TEST(EventLogTest, UntimedSpanMatchesEmit) {
  EventLog log;
  ScopedInstall install(&log);
  {
    EventSpan span("test.span");
    span.Field("n", uint64_t{3});
    span.Field("x", 0.5);
    span.Field("name", std::string("a\"b"));
    log.Emit("test.inner", {});
  }
  log.Emit("test.span", {{"n", uint64_t{3}},
                         {"x", 0.5},
                         {"name", std::string_view("a\"b")}});
  const std::vector<std::string> lines = log.SnapshotLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"seq\":0,\"type\":\"test.inner\"}");
  // Same bytes apart from the seq.
  EXPECT_EQ(lines[1].substr(lines[1].find(",\"type\"")),
            lines[2].substr(lines[2].find(",\"type\"")));
  EXPECT_EQ(lines[1],
            "{\"seq\":1,\"type\":\"test.span\",\"n\":3,\"x\":0.5,"
            "\"name\":\"a\\\"b\"}");
}

TEST(EventLogTest, InstallRoutesEmissionGlobally) {
  EXPECT_EQ(EventLog::Get(), nullptr);
  EventLog log;
  ScopedInstall install(&log);
  ASSERT_EQ(EventLog::Get(), &log);
  EventLog::Get()->Emit("test.global", {});
  EXPECT_EQ(log.total_emitted(), 1u);
}

// The determinism contract: a fixed workload and seed produce byte-equal
// event streams on every rerun, regardless of how many evaluator threads
// happen to exist in the process (events are only emitted from sequential
// code).
TEST(EventLogTest, MechanismEventStreamIsDeterministic) {
  auto workload = Workload::Create(
      {2, 3, 4, 5000, 6000, 7000},
      {QueryGroup{"tiny", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  ASSERT_TRUE(workload.ok());
  IReductParams params;
  params.epsilon = 0.2;
  params.delta = 1.0;
  params.lambda_max = 1000;
  params.lambda_delta = 10;

  auto run = [&](size_t busy_threads) {
    // Unrelated pool churn must not perturb the stream.
    ThreadPool pool(busy_threads);
    for (size_t i = 0; i < 4 * busy_threads; ++i) {
      pool.Submit([] {});
    }
    EventLog log;
    ScopedInstall install(&log);
    BitGen gen(7);
    auto out = RunIReduct(*workload, params, gen);
    EXPECT_TRUE(out.ok());
    pool.Wait();
    return log.SnapshotJsonl();
  };

  const std::string first = run(1);
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"type\":\"ireduct.round\""), std::string::npos);
  EXPECT_EQ(first, run(1));  // rerun
  EXPECT_EQ(first, run(4));  // thread count
}

TEST(EventLogTest, WriteFileAppendsAndDrains) {
  const std::string path = testing::TempDir() + "/event_log_write.jsonl";
  std::remove(path.c_str());
  EventLog log;
  log.Emit("test.write", {{"i", 1}});
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(log.size(), 0u);
  log.Emit("test.write", {{"i", 2}});
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(ReadAll(path),
            "{\"seq\":0,\"type\":\"test.write\",\"i\":1}\n"
            "{\"seq\":1,\"type\":\"test.write\",\"i\":2}\n");
  std::remove(path.c_str());
}

TEST(EventLogTest, FailedWriteKeepsBuffer) {
  const std::string path = testing::TempDir() + "/event_log_fail.jsonl";
  std::remove(path.c_str());
  EventLog log;
  log.Emit("test.fail", {{"i", 1}});
  ASSERT_TRUE(
      FaultInjector::Global().Configure("event_log.write:fail@1").ok());
  EXPECT_FALSE(log.WriteFile(path).ok());
  FaultInjector::Global().Reset();
  // Nothing was lost: the retry writes the same bytes.
  EXPECT_EQ(log.size(), 1u);
  ASSERT_TRUE(log.WriteFile(path).ok());
  EXPECT_EQ(ReadAll(path), "{\"seq\":0,\"type\":\"test.fail\",\"i\":1}\n");
  std::remove(path.c_str());
}

// A drain racing an emitter must neither lose nor repeat an event: every
// line lands in the file or stays buffered for the next drain.
TEST(EventLogTest, WriteFileDuringEmitLosesNothing) {
  const std::string path = testing::TempDir() + "/event_log_race.jsonl";
  std::remove(path.c_str());
  constexpr uint64_t kEvents = 20000;
  EventLog log(/*capacity=*/2 * kEvents);
  std::atomic<bool> done{false};
  std::thread emitter([&log, &done] {
    for (uint64_t i = 0; i < kEvents; ++i) {
      log.Emit("test.race", {{"i", i}});
    }
    done.store(true);
  });
  bool writes_ok = true;
  while (!done.load()) writes_ok = log.WriteFile(path).ok() && writes_ok;
  emitter.join();
  EXPECT_TRUE(writes_ok);
  std::string stream = ReadAll(path);
  log.Drain(&stream);
  std::remove(path.c_str());

  std::vector<int> seen(kEvents, 0);
  std::istringstream lines(stream);
  for (std::string line; std::getline(lines, line);) {
    auto parsed = minijson::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const auto seq = static_cast<uint64_t>(parsed->Find("seq")->number);
    ASSERT_LT(seq, kEvents);
    ++seen[seq];
  }
  for (uint64_t seq = 0; seq < kEvents; ++seq) {
    ASSERT_EQ(seen[seq], 1) << "seq " << seq;
  }
}

TEST(EventLogTest, ConcurrentEmitIsLossless) {
  EventLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Emit("test.mt", {{"t", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.total_emitted(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.size() + log.total_dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Every buffered line has a distinct, increasing seq.
  const std::vector<std::string> lines = log.SnapshotLines();
  uint64_t prev = 0;
  bool first = true;
  for (const std::string& line : lines) {
    auto parsed = minijson::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const uint64_t seq =
        static_cast<uint64_t>(parsed->Find("seq")->number);
    if (!first) {
      EXPECT_GT(seq, prev);
    }
    prev = seq;
    first = false;
  }
}


// Chrome-trace export of the stream. The log runs with its wall clock on,
// as under `ireduct_tool --trace-out`, so spans carry durations.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_.set_wall_clock(true);
    EventLog::Install(&log_);
  }
  void TearDown() override { EventLog::Install(nullptr); }

  std::optional<minijson::Value> ParsedTrace(
      const std::map<std::string, std::string>& other_data = {}) const {
    return minijson::Parse(
        ChromeTraceJson(log_.SnapshotLines(), other_data));
  }

  EventLog log_;
};

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  {
    EventSpan span("unit.work");
    span.Field("items", uint64_t{3});
    span.Field("mode", std::string_view("fast"));
  }
  EXPECT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_.CountType("unit.work"), 1u);

  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const minijson::Value& event = events->array[0];
  EXPECT_EQ(event.Find("name")->text, "unit.work");
  EXPECT_EQ(event.Find("ph")->text, "X");
  ASSERT_NE(event.Find("ts"), nullptr);
  EXPECT_GT(event.Find("ts")->number, 0.0);
  ASSERT_NE(event.Find("dur"), nullptr);
  const minijson::Value* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->Find("items")->number, 3.0);
  EXPECT_EQ(args->Find("mode")->text, "fast");
  EXPECT_DOUBLE_EQ(args->Find("seq")->number, 0.0);
  // The envelope fields do not repeat as args.
  EXPECT_EQ(args->Find("type"), nullptr);
  EXPECT_EQ(args->Find("ts_us"), nullptr);
  EXPECT_EQ(args->Find("dur_us"), nullptr);
}

TEST_F(TraceTest, NestedSpansNestInTime) {
  {
    EventSpan outer("unit.outer");
    {
      EventSpan inner("unit.inner");
    }
  }
  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 2u);
  // Inner closes first, so it is recorded first.
  const minijson::Value& inner = events->array[0];
  const minijson::Value& outer = events->array[1];
  EXPECT_EQ(inner.Find("name")->text, "unit.inner");
  EXPECT_EQ(outer.Find("name")->text, "unit.outer");
  // Containment: outer starts no later and ends no earlier than inner.
  // Start stamps come from the system clock and durations from the steady
  // clock, each truncated to whole microseconds, so allow 2 us of rounding.
  const double outer_start = outer.Find("ts")->number;
  const double outer_end = outer_start + outer.Find("dur")->number;
  const double inner_start = inner.Find("ts")->number;
  const double inner_end = inner_start + inner.Find("dur")->number;
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end + 2, inner_end);
}

TEST_F(TraceTest, InstantEventsAndOtherData) {
  log_.Emit("unit.instant", {{"k", 1.0}});
  auto parsed = ParsedTrace({{"ledger", "{\"spent\":0.5}"}});
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].Find("ph")->text, "i");
  EXPECT_EQ(events->array[0].Find("dur"), nullptr);
  EXPECT_DOUBLE_EQ(events->array[0].Find("args")->Find("k")->number, 1.0);
  const minijson::Value* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  const minijson::Value* ledger = other->Find("ledger");
  ASSERT_NE(ledger, nullptr);
  EXPECT_DOUBLE_EQ(ledger->Find("spent")->number, 0.5);
}

TEST_F(TraceTest, EscapesSpecialCharacters) {
  {
    EventSpan span("quote\"back\\slash\nnewline");
    span.Field("why", std::string_view("tab\there"));
  }
  auto parsed = ParsedTrace();
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value& event = parsed->Find("traceEvents")->array[0];
  EXPECT_EQ(event.Find("name")->text, "quote\"back\\slash\nnewline");
  EXPECT_EQ(event.Find("args")->Find("why")->text, "tab\there");
}

TEST(TraceDisabledTest, NoRecorderMeansNoRecording) {
  EventLog::Install(nullptr);
  EventLog bystander;
  {
    EventSpan span("unit.unrecorded");
    span.Field("ignored", 1.0);
    EXPECT_FALSE(span.recording());
  }
  EXPECT_EQ(bystander.total_emitted(), 0u);
  EXPECT_FALSE(EventLog::active());
}

TEST(TraceDisabledTest, SpanBindsRecorderAtConstruction) {
  EventLog log;
  EventLog::Install(&log);
  {
    EventSpan span("unit.bound");
    // Uninstalling mid-span must not lose the event (nor crash): the span
    // holds the log it started on.
    EventLog::Install(nullptr);
  }
  EXPECT_EQ(log.CountType("unit.bound"), 1u);
}

// An empty stream (also what a build without tracing exports) is a valid
// Chrome trace.
TEST(TraceJsonTest, EmptyRecorderIsValidChromeTrace) {
  auto parsed = minijson::Parse(ChromeTraceJson({}, {}));
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, minijson::Value::kArray);
  EXPECT_TRUE(events->array.empty());
  EXPECT_EQ(parsed->Find("displayTimeUnit")->text, "ms");
}

// Without the wall clock there is no timing to export: every event is an
// instant at ts 0.
TEST(TraceJsonTest, UntimedStreamExportsInstants) {
  EventLog log;
  {
    ScopedInstall install(&log);
    EventSpan span("unit.untimed");
  }
  auto parsed = minijson::Parse(ChromeTraceJson(log.SnapshotLines(), {}));
  ASSERT_TRUE(parsed.has_value());
  const minijson::Value& event = parsed->Find("traceEvents")->array[0];
  EXPECT_EQ(event.Find("ph")->text, "i");
  EXPECT_DOUBLE_EQ(event.Find("ts")->number, 0.0);
}

#else  // !IREDUCT_ENABLE_TRACING

TEST(EventLogTest, StubsAreInertAndFree) {
  EventLog log;
  EXPECT_EQ(EventLog::Get(), nullptr);
  EXPECT_FALSE(EventLog::active());
  log.Emit("test.stub", {{"i", 1}});
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_emitted(), 0u);
  EXPECT_EQ(log.SummaryJson(),
            "{\"emitted\":0,\"dropped\":0,\"buffered\":0,\"by_type\":{}}");
  EXPECT_TRUE(log.WriteFile("/nonexistent/dir/file").ok());
  EventSpan span("test.stub");
  span.Field("i", 1.0);
  EXPECT_FALSE(span.recording());
  EXPECT_EQ(ChromeTraceJson(log.SnapshotLines(), {}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

#endif  // IREDUCT_ENABLE_TRACING

}  // namespace
}  // namespace obs
}  // namespace ireduct
