#include "service/query_server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "marginals/marginal_set.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "service/wire.h"

namespace ireduct {
namespace {

Dataset MakeDataset(int rows = 2000) {
  auto schema = Schema::Create({{"A", 4}, {"B", 2}});
  EXPECT_TRUE(schema.ok());
  Dataset d(std::move(schema).value());
  BitGen gen(1);
  for (int r = 0; r < rows; ++r) {
    const uint16_t a = static_cast<uint16_t>(gen.UniformInt(4));
    const uint16_t b = gen.Bernoulli(0.25) ? 1 : 0;
    EXPECT_TRUE(d.AppendRow(std::vector<uint16_t>{a, b}).ok());
  }
  return d;
}

std::string CountToJson(double v) {
  std::string out;
  obs::JsonWriter w(&out);
  w.Double(v);
  return out;
}

// The fixed 4-step script every parity tenant runs: two mechanism releases
// interleaved with two ad-hoc counts, so the parity check covers both RNG
// consumers and the accountant's sequential composition.
constexpr double kBudget = 2.0;

std::vector<MarginalSpec> OneWaySpecs() {
  return {MarginalSpec{{0}}, MarginalSpec{{1}}};
}

std::vector<MarginalSpec> TwoWaySpec() { return {MarginalSpec{{0, 1}}}; }

// Runs the script serially against a direct PrivateQuerySession — the
// golden the server must match byte-for-byte.
std::vector<std::string> RunScriptSerial(const Dataset& d, uint64_t seed) {
  auto session = PrivateQuerySession::Create(&d, kBudget, seed);
  EXPECT_TRUE(session.ok());
  std::vector<std::string> out;
  auto r1 = session->PublishMarginals(OneWaySpecs(), MechanismSpec("ireduct"),
                                      0.4, 5.0, 40);
  EXPECT_TRUE(r1.ok()) << r1.status();
  out.push_back(MarginalReleaseToJson(*r1));
  auto c1 = session->CountQuery(ConjunctiveQuery{{{1, 1}}}, 0.1);
  EXPECT_TRUE(c1.ok());
  out.push_back(CountToJson(*c1));
  auto r2 = session->PublishMarginals(TwoWaySpec(), MechanismSpec("two_phase"),
                                      0.3, 5.0, 40);
  EXPECT_TRUE(r2.ok()) << r2.status();
  out.push_back(MarginalReleaseToJson(*r2));
  auto c2 = session->CountQuery(ConjunctiveQuery{{{0, 2}}}, 0.05);
  EXPECT_TRUE(c2.ok());
  out.push_back(CountToJson(*c2));
  return out;
}

// Runs the same script for `num_tenants` tenants through a QueryServer,
// submitting every request while the dispatcher is paused (so batched
// configurations actually coalesce) with the steps interleaved across
// tenants. Returns per-tenant serialized outcomes.
std::vector<std::vector<std::string>> RunScriptThroughServer(
    const Dataset& d, uint64_t seed_base, int num_tenants, int workers,
    bool batching) {
  QueryServerConfig config;
  config.workers = workers;
  config.batching = batching;
  config.max_queue = 64;
  config.max_inflight_per_tenant = 8;
  config.max_batch = 64;
  auto server = QueryServer::Create(config);
  EXPECT_TRUE(server.ok());
  EXPECT_TRUE((*server)->AddDataset("census", d).ok());
  std::vector<std::string> names;
  for (int t = 0; t < num_tenants; ++t) {
    names.push_back("tenant" + std::to_string(t));
    EXPECT_TRUE(
        (*server)->OpenTenant(names.back(), "census", kBudget, seed_base + t)
            .ok());
  }
  (*server)->Pause();
  std::vector<std::vector<std::future<Result<MarginalRelease>>>> releases(
      num_tenants);
  std::vector<std::vector<std::future<Result<double>>>> counts(num_tenants);
  // Interleave by step: tenant order within a step is irrelevant (each
  // tenant has its own session), per-tenant order is what the contract
  // fixes.
  for (int t = 0; t < num_tenants; ++t) {
    releases[t].push_back((*server)->SubmitMarginals(
        names[t], OneWaySpecs(), MechanismSpec("ireduct"), 0.4, 5.0, 40));
  }
  for (int t = 0; t < num_tenants; ++t) {
    counts[t].push_back(
        (*server)->SubmitCount(names[t], ConjunctiveQuery{{{1, 1}}}, 0.1));
  }
  for (int t = 0; t < num_tenants; ++t) {
    releases[t].push_back((*server)->SubmitMarginals(
        names[t], TwoWaySpec(), MechanismSpec("two_phase"), 0.3, 5.0, 40));
  }
  for (int t = 0; t < num_tenants; ++t) {
    counts[t].push_back(
        (*server)->SubmitCount(names[t], ConjunctiveQuery{{{0, 2}}}, 0.05));
  }
  (*server)->Resume();
  std::vector<std::vector<std::string>> out(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    auto r1 = releases[t][0].get();
    EXPECT_TRUE(r1.ok()) << r1.status();
    auto c1 = counts[t][0].get();
    EXPECT_TRUE(c1.ok()) << c1.status();
    auto r2 = releases[t][1].get();
    EXPECT_TRUE(r2.ok()) << r2.status();
    auto c2 = counts[t][1].get();
    EXPECT_TRUE(c2.ok()) << c2.status();
    out[t] = {MarginalReleaseToJson(*r1), CountToJson(*c1),
              MarginalReleaseToJson(*r2), CountToJson(*c2)};
  }
  (*server)->Drain();
  return out;
}

TEST(QueryServerTest, CreateValidatesConfig) {
  QueryServerConfig bad;
  bad.workers = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_queue = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_inflight_per_tenant = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.max_batch = 0;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  bad = QueryServerConfig{};
  bad.retry_after_ms = -1;
  EXPECT_FALSE(QueryServer::Create(bad).ok());
  EXPECT_TRUE(QueryServer::Create(QueryServerConfig{}).ok());
}

TEST(QueryServerTest, DatasetAndTenantLifecycle) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE((*server)->AddDataset("", MakeDataset()).ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->AddDataset("census", MakeDataset()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_NE((*server)->dataset("census"), nullptr);
  EXPECT_EQ((*server)->dataset("nope"), nullptr);

  EXPECT_EQ((*server)->OpenTenant("t", "nope", 1.0, 1).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 1).ok());
  EXPECT_EQ((*server)->OpenTenant("t", "census", 1.0, 1).code(),
            StatusCode::kFailedPrecondition);

  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->budget, 1.0);
  EXPECT_DOUBLE_EQ(budget->spent, 0.0);
  EXPECT_EQ((*server)->GetBudget("nope").status().code(),
            StatusCode::kNotFound);

  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.num_datasets, 1u);
  EXPECT_EQ(stats.num_tenants, 1u);
}

TEST(QueryServerTest, SyncWrappersAnswerAndCharge) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 2).ok());
  auto count = (*server)->CountQuery("t", ConjunctiveQuery{{{1, 1}}}, 0.4);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_NEAR(*count, 500, 150);  // true count ~500 of 2000 rows
  auto release = (*server)->PublishMarginals(
      "t", OneWaySpecs(), MechanismSpec("ireduct"), 0.3, 5.0, 40);
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_EQ(release->marginals.size(), 2u);
  auto budget = (*server)->GetBudget("t");
  ASSERT_TRUE(budget.ok());
  EXPECT_NEAR(budget->spent, 0.4 + release->epsilon_spent, 1e-9);
  // completed is bumped after the promise resolves; settle first.
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// The acceptance-criteria lock: responses from the concurrent batched
// pipeline are bit-identical to a serial per-tenant run, across worker
// counts, batched and unbatched, at several seeds.
TEST(QueryServerTest, BatchedResponsesMatchSerialGolden) {
  const Dataset d = MakeDataset();
  constexpr int kTenants = 3;
  for (const uint64_t seed_base : {100u, 200u, 300u}) {
    std::vector<std::vector<std::string>> golden;
    for (int t = 0; t < kTenants; ++t) {
      golden.push_back(RunScriptSerial(d, seed_base + t));
    }
    for (const int workers : {1, 2, 8}) {
      for (const bool batching : {true, false}) {
        const auto got = RunScriptThroughServer(d, seed_base, kTenants,
                                                workers, batching);
        ASSERT_EQ(got.size(), golden.size());
        for (int t = 0; t < kTenants; ++t) {
          EXPECT_EQ(got[t], golden[t])
              << "tenant " << t << " diverged at seed_base " << seed_base
              << " workers " << workers << " batching " << batching;
        }
      }
    }
  }
}

#if IREDUCT_ENABLE_TRACING

// Runs every tenant's count-and-ireduct script through a server with an
// event log installed (submitted while paused, interleaved by step, as in
// RunScriptThroughServer) and returns the whole event stream.
std::string ServerEventStream(const Dataset& d, uint64_t seed_base,
                              int num_tenants, int workers, bool batching) {
  obs::EventLog log;
  obs::EventLog::Install(&log);
  {
    QueryServerConfig config;
    config.workers = workers;
    config.batching = batching;
    config.max_queue = 64;
    config.max_inflight_per_tenant = 8;
    config.max_batch = 64;
    auto server = QueryServer::Create(config);
    EXPECT_TRUE(server.ok());
    EXPECT_TRUE((*server)->AddDataset("census", d).ok());
    for (int t = 0; t < num_tenants; ++t) {
      EXPECT_TRUE((*server)
                      ->OpenTenant("tenant" + std::to_string(t), "census",
                                   kBudget, seed_base + t)
                      .ok());
    }
    (*server)->Pause();
    std::vector<std::future<Result<MarginalRelease>>> releases;
    std::vector<std::future<Result<double>>> counts;
    for (const auto& specs : {OneWaySpecs(), TwoWaySpec()}) {
      for (int t = 0; t < num_tenants; ++t) {
        releases.push_back((*server)->SubmitMarginals(
            "tenant" + std::to_string(t), specs, MechanismSpec("ireduct"),
            0.3, 5.0, 40));
      }
      for (int t = 0; t < num_tenants; ++t) {
        counts.push_back((*server)->SubmitCount(
            "tenant" + std::to_string(t), ConjunctiveQuery{{{1, 1}}}, 0.1));
      }
    }
    (*server)->Resume();
    for (auto& f : releases) EXPECT_TRUE(f.get().ok());
    for (auto& f : counts) EXPECT_TRUE(f.get().ok());
    (*server)->Drain();
  }
  obs::EventLog::Install(nullptr);
  EXPECT_EQ(log.total_dropped(), 0u);
  return log.SnapshotJsonl();
}

// The stream without the events that describe the batching itself
// (server.batch) and without seq, which counts those events too.
std::string RequestEvents(const std::string& stream) {
  std::istringstream lines(stream);
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"server.batch\"") != std::string::npos) {
      continue;
    }
    out += line.substr(line.find(",\"type\""));
    out.push_back('\n');
  }
  return out;
}

// The server's event-stream golden: the stream is byte-identical across
// worker counts, and its request events (sessions, mechanism rounds) are
// byte-identical with batching on and off. Only the server.batch events,
// which record the batch widths and fused passes, depend on batching.
TEST(QueryServerTest, EventStreamIsDeterministicAcrossWorkersAndBatching) {
  const Dataset d = MakeDataset();
  constexpr int kTenants = 3;
  for (const uint64_t seed_base : {100u, 200u, 300u}) {
    std::string batched_requests;
    for (const bool batching : {true, false}) {
      const std::string first =
          ServerEventStream(d, seed_base, kTenants, 1, batching);
      for (const char* type :
           {"server.batch", "session.count_query",
            "session.publish_marginals", "ireduct.round"}) {
        EXPECT_NE(first.find("\"type\":\"" + std::string(type) + "\""),
                  std::string::npos)
            << type;
      }
      for (const int workers : {2, 8}) {
        EXPECT_EQ(ServerEventStream(d, seed_base, kTenants, workers,
                                    batching),
                  first)
            << "seed_base " << seed_base << " workers " << workers
            << " batching " << batching;
      }
      if (batching) {
        batched_requests = RequestEvents(first);
      } else {
        EXPECT_EQ(RequestEvents(first), batched_requests)
            << "seed_base " << seed_base;
      }
    }
  }
}

#endif  // IREDUCT_ENABLE_TRACING

TEST(QueryServerTest, BatchingCoalescesIntoFusedPasses) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_batch = 16;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("a", "census", 1.0, 1).ok());
  ASSERT_TRUE((*server)->OpenTenant("b", "census", 1.0, 2).ok());
  (*server)->Pause();
  auto fa = (*server)->SubmitMarginals("a", OneWaySpecs(),
                                       MechanismSpec("dwork"), 0.2, 5.0, 40);
  auto fb = (*server)->SubmitMarginals("b", OneWaySpecs(),
                                       MechanismSpec("dwork"), 0.2, 5.0, 40);
  (*server)->Resume();
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  // Both requests drained in one batch and shared one fused pass.
  EXPECT_EQ(stats.max_batch_width, 2u);
  EXPECT_EQ(stats.fused_passes, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServerTest, QueueFullShedsWithResourceExhaustedAndNoCharge) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_queue = 2;
  config.max_inflight_per_tenant = 100;
  config.retry_after_ms = 75;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 3).ok());
  (*server)->Pause();
  auto f1 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  auto f2 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  auto f3 = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  // The shed resolves immediately, before the dispatcher ever runs.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto shed = f3.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retry after 75ms"),
            std::string::npos);
  // Nothing was charged for the shed request — or for the queued ones yet.
  auto before = (*server)->GetBudget("t");
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ(before->spent, 0.0);
  (*server)->Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  (*server)->Drain();
  auto after = (*server)->GetBudget("t");
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->spent, 0.2);  // exactly the two admitted charges
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(QueryServerTest, TenantInflightCapShedsOnlyTheChattyTenant) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_queue = 100;
  config.max_inflight_per_tenant = 1;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("chatty", "census", 1.0, 4).ok());
  ASSERT_TRUE((*server)->OpenTenant("quiet", "census", 1.0, 5).ok());
  (*server)->Pause();
  auto f1 = (*server)->SubmitCount("chatty", ConjunctiveQuery{}, 0.1);
  auto f2 = (*server)->SubmitCount("chatty", ConjunctiveQuery{}, 0.1);
  auto f3 = (*server)->SubmitCount("quiet", ConjunctiveQuery{}, 0.1);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto shed = f2.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // The other tenant still has queue room.
  ASSERT_NE(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  (*server)->Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f3.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.shed_tenant_cap, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
}

TEST(QueryServerTest, UnknownTenantIsNotFound) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  auto count = (*server)->SubmitCount("ghost", ConjunctiveQuery{}, 0.1);
  ASSERT_EQ(count.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto result = count.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// A bad spec anywhere in a coalesced batch must not take its siblings
// down: the fused pass falls back to the classic per-request path, the
// broken request reports its own error and the valid one still succeeds.
TEST(QueryServerTest, InvalidSpecInBatchFallsBackPerRequest) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.max_batch = 16;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("bad", "census", 1.0, 6).ok());
  ASSERT_TRUE((*server)->OpenTenant("good", "census", 1.0, 7).ok());
  (*server)->Pause();
  auto fbad = (*server)->SubmitMarginals(
      "bad", {MarginalSpec{{9}}}, MechanismSpec("ireduct"), 0.2, 5.0, 40);
  auto fgood = (*server)->SubmitMarginals(
      "good", OneWaySpecs(), MechanismSpec("ireduct"), 0.2, 5.0, 40);
  (*server)->Resume();
  auto bad = fbad.get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  auto good = fgood.get();
  EXPECT_TRUE(good.ok()) << good.status();
  (*server)->Drain();
  auto bad_budget = (*server)->GetBudget("bad");
  ASSERT_TRUE(bad_budget.ok());
  EXPECT_DOUBLE_EQ(bad_budget->spent, 0.0);
  // The poisoned union never ran a fused pass.
  EXPECT_EQ((*server)->Stats().fused_passes, 0u);
}

TEST(QueryServerTest, JournaledTenantsSurviveServerRestart) {
  const Dataset d = MakeDataset();
  const std::string journal_dir = testing::TempDir() + "query_server_test_" +
                                  std::to_string(::getpid()) +
                                  "/journals/nested";
  QueryServerConfig config;
  config.journal_dir = journal_dir;
  double spent = 0;
  {
    auto server = QueryServer::Create(config);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->AddDataset("census", d).ok());
    // The journal directory does not exist yet; OpenTenant must create it.
    ASSERT_TRUE((*server)->OpenTenant("alice", "census", 1.0, 8).ok());
    ASSERT_TRUE(
        (*server)->CountQuery("alice", ConjunctiveQuery{{{1, 1}}}, 0.25).ok());
    struct stat st{};
    EXPECT_EQ(::stat((journal_dir + "/alice.journal").c_str(), &st), 0);
    auto budget = (*server)->GetBudget("alice");
    ASSERT_TRUE(budget.ok());
    spent = budget->spent;
    EXPECT_DOUBLE_EQ(spent, 0.25);
  }
  // A new server over the same journal_dir: re-opening would truncate the
  // ledger (refused); resuming recovers the recorded spend.
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->OpenTenant("alice", "census", 1.0, 8).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*server)->ResumeTenant("alice", "census", 9).ok());
  auto budget = (*server)->GetBudget("alice");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->spent, spent);
  EXPECT_DOUBLE_EQ(budget->remaining, 1.0 - spent);
  // And the resumed tenant keeps working.
  EXPECT_TRUE((*server)->CountQuery("alice", ConjunctiveQuery{}, 0.1).ok());
}

TEST(QueryServerTest, ResumeTenantRequiresJournaledServer) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  EXPECT_EQ((*server)->ResumeTenant("t", "census", 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServerTest, UnbatchedModeDispatchesOneAtATime) {
  const Dataset d = MakeDataset();
  QueryServerConfig config;
  config.batching = false;
  auto server = QueryServer::Create(config);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 10).ok());
  (*server)->Pause();
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back((*server)->SubmitCount("t", ConjunctiveQuery{}, 0.05));
  }
  (*server)->Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  (*server)->Drain();
  const QueryServerStats stats = (*server)->Stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch_width, 1u);
  EXPECT_EQ(stats.fused_passes, 0u);
}

TEST(QueryServerTest, DestructorRejectsStillQueuedRequests) {
  const Dataset d = MakeDataset();
  auto server = QueryServer::Create(QueryServerConfig{});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->AddDataset("census", d).ok());
  ASSERT_TRUE((*server)->OpenTenant("t", "census", 1.0, 11).ok());
  (*server)->Pause();
  auto f = (*server)->SubmitCount("t", ConjunctiveQuery{}, 0.1);
  server->reset();  // destroys the paused server with the request queued
  auto result = f.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ireduct
