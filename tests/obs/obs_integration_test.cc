// End-to-end observability: run the real iReduct mechanism and a real
// private session with an event log installed, then assert that the
// event/metrics/ledger views all agree with the mechanism's own outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/ireduct.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"
#include "minijson.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/private_session.h"

namespace ireduct {
namespace {

Result<Workload> SmallWorkload() {
  return Workload::PerQuery({12, 40, 90, 250, 1200, 9000});
}

IReductParams SmallParams() {
  IReductParams params;
  params.epsilon = 0.5;
  params.delta = 5;
  params.lambda_max = 200;
  params.lambda_delta = 2;
  return params;
}

#if IREDUCT_ENABLE_TRACING

// Parses every buffered line of `log`; a line that does not parse fails
// the calling test.
std::vector<minijson::Value> ParsedEvents(const obs::EventLog& log) {
  std::vector<minijson::Value> events;
  for (const std::string& line : log.SnapshotLines()) {
    auto parsed = minijson::Parse(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (parsed.has_value()) events.push_back(std::move(*parsed));
  }
  return events;
}

TEST(ObsIntegrationTest, OneMoveEventPerIReductIteration) {
  auto workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());

  obs::EventLog log;
  obs::EventLog::Install(&log);
  BitGen gen(2011);
  auto out = RunIReduct(*workload, SmallParams(), gen);
  obs::EventLog::Install(nullptr);

  ASSERT_TRUE(out.ok());
  ASSERT_GT(out->iterations, 0u);
  EXPECT_EQ(log.CountType("ireduct.move"), out->iterations);

  // Every move carries the full field set, the λ move matches the
  // configured step, and the GS after it stays within ε.
  size_t moves = 0;
  for (const minijson::Value& event : ParsedEvents(log)) {
    if (event.Find("type")->text != "ireduct.move") continue;
    ++moves;
    for (const char* key :
         {"round", "group", "old_lambda", "new_lambda", "gs_after"}) {
      ASSERT_NE(event.Find(key), nullptr) << key;
    }
    EXPECT_NEAR(event.Find("old_lambda")->number -
                    event.Find("new_lambda")->number,
                SmallParams().lambda_delta, 1e-9);
    EXPECT_LE(event.Find("gs_after")->number, SmallParams().epsilon);
  }
  EXPECT_EQ(moves, out->iterations);
}

TEST(ObsIntegrationTest, MetricsCountersTrackMechanismOutput) {
  auto workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t iterations_before =
      registry.counter("ireduct.iterations").value();
  const uint64_t draws_before =
      registry.counter("ireduct.resample_draws").value();

  BitGen gen(7);
  auto out = RunIReduct(*workload, SmallParams(), gen);
  ASSERT_TRUE(out.ok());

  EXPECT_EQ(registry.counter("ireduct.iterations").value(),
            iterations_before + out->iterations);
  EXPECT_EQ(registry.counter("ireduct.resample_draws").value(),
            draws_before + out->resample_calls);
}

TEST(ObsIntegrationTest, SessionTraceCarriesEpsilonAndLedgerMatches) {
  auto schema = Schema::Create({{"A", 3}});
  ASSERT_TRUE(schema.ok());
  Dataset dataset(std::move(schema).value());
  BitGen rows(3);
  for (int r = 0; r < 2000; ++r) {
    ASSERT_TRUE(dataset
                    .AppendRow(std::vector<uint16_t>{static_cast<uint16_t>(
                        rows.UniformInt(3))})
                    .ok());
  }

  obs::EventLog log;
  obs::EventLog::Install(&log);
  auto session = PrivateQuerySession::Create(&dataset, 1.0, 11);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->CountQuery(ConjunctiveQuery{{{0, 1}}}, 0.25).ok());
  const std::vector<MarginalSpec> specs = {MarginalSpec{{0}}};
  ASSERT_TRUE(session->PublishMarginals(specs, 0.5, 2.0, 50).ok());
  obs::EventLog::Install(nullptr);

  EXPECT_EQ(log.CountType("session.count_query"), 1u);
  EXPECT_EQ(log.CountType("session.publish_marginals"), 1u);

  // The count-query span advertises exactly the ε slice charged.
  size_t count_spans = 0;
  for (const minijson::Value& event : ParsedEvents(log)) {
    if (event.Find("type")->text == "session.count_query") {
      ++count_spans;
      EXPECT_DOUBLE_EQ(event.Find("epsilon")->number, 0.25);
    }
  }
  EXPECT_EQ(count_spans, 1u);

  // The session ledger accounts for both releases and sums to spent().
  ASSERT_EQ(session->ledger().size(), 2u);
  double ledger_total = 0;
  for (const PrivacyCharge& charge : session->ledger()) {
    ledger_total += charge.epsilon;
  }
  EXPECT_DOUBLE_EQ(ledger_total, session->spent());
}

#endif  // IREDUCT_ENABLE_TRACING

TEST(ObsIntegrationTest, AccountantExportTotalsMatchSpent) {
  auto workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  BitGen gen(5);
  auto out = RunIReduct(*workload, SmallParams(), gen);
  ASSERT_TRUE(out.ok());

  auto accountant = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(accountant.ok());
  ASSERT_TRUE(accountant->Charge("ireduct release", out->epsilon_spent).ok());
  ASSERT_TRUE(accountant->Charge("follow-up count", 0.01).ok());

  auto parsed = minijson::Parse(accountant->ExportLedgerJson());
  ASSERT_TRUE(parsed.has_value()) << accountant->ExportLedgerJson();
  double total = 0;
  for (const minijson::Value& charge : parsed->Find("charges")->array) {
    total += charge.Find("epsilon")->number;
  }
  EXPECT_DOUBLE_EQ(total, accountant->spent());
  EXPECT_DOUBLE_EQ(parsed->Find("spent")->number, accountant->spent());
  EXPECT_DOUBLE_EQ(parsed->Find("budget")->number, accountant->budget());
}

}  // namespace
}  // namespace ireduct
