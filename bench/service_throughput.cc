// Multi-tenant query service throughput: batched admission pipeline vs the
// classic per-request path, swept over tenant count.
//
// Setup: one QueryServer per (tenant count, mode) cell over the shared
// cached census dataset. Every tenant runs the same script — WAVES waves,
// each wave one all-1-way PublishMarginals release — with the waves
// submitted concurrently across tenants (queued while the dispatcher is
// paused, so the batched mode actually coalesces them into fused
// true-table passes sharing the process-wide MarginalCache). The unbatched
// mode dispatches the identical stream one request at a time through the
// per-spec full-dataset scan path — the architectural baseline.
//
// Parity is enforced, not assumed: every response from both modes is
// compared byte-for-byte (serialized MarginalReleaseToJson) against a
// serial per-tenant PrivateQuerySession run at the same seeds. Batching
// changes wall-clock only, never bytes; the bench exits nonzero on any
// divergence.
//
// The acceptance bar is batched throughput >= SERVICE_MIN_SPEEDUP x the
// unbatched throughput at the largest tenant count (default 1.5; 0
// disables). The speedup is architectural — shared scans and cache hits,
// not parallelism — so it holds on a single-core runner.
//
// Results land in BENCH_SERVICE.json in the working directory.
//
// Environment knobs:
//   CENSUS_ROWS          dataset size (default 400000).
//   SERVICE_TENANTS      comma-separated tenant counts (default "1,4,8").
//   SERVICE_WAVES        concurrent request waves per cell (default 4).
//   SERVICE_MIN_SPEEDUP  the gate; 0 disables (default 1.5).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/logging.h"
#include "eval/table_printer.h"
#include "marginals/marginal_set.h"
#include "obs/json.h"
#include "service/query_server.h"
#include "service/wire.h"

namespace {

using namespace ireduct;

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The per-request script parameters — identical in every mode so responses
// are comparable byte-for-byte. The default mechanism is the Laplace
// baseline (dwork): its per-cell noise cost is negligible next to the
// true-table scans, so the bench isolates the admission pipeline's scan
// amortization rather than mechanism runtime (which is identical in every
// mode and would only dilute the contrast — swap in SERVICE_MECHANISM=
// ireduct to measure the mechanism-bound regime).
constexpr double kEpsilonPerWave = 0.1;
constexpr double kDelta = 5.0;
constexpr int kLambdaSteps = 60;

MechanismSpec ServiceMechanism() {
  const char* env = std::getenv("SERVICE_MECHANISM");
  return MechanismSpec(env != nullptr && *env != '\0' ? env : "dwork");
}

uint64_t TenantSeed(int tenant) { return 1000 + static_cast<uint64_t>(tenant); }

// Serial golden: each tenant's script against its own direct session, one
// tenant after another. This is the byte-level contract both server modes
// must reproduce.
std::vector<std::vector<std::string>> RunSerial(
    const Dataset& dataset, const std::vector<MarginalSpec>& specs,
    int tenants, int waves) {
  std::vector<std::vector<std::string>> out(tenants);
  for (int t = 0; t < tenants; ++t) {
    auto session = PrivateQuerySession::Create(
        &dataset, waves * kEpsilonPerWave + 1.0, TenantSeed(t));
    IREDUCT_CHECK(session.ok());
    for (int w = 0; w < waves; ++w) {
      auto release = session->PublishMarginals(
          specs, ServiceMechanism(), kEpsilonPerWave, kDelta,
          kLambdaSteps);
      IREDUCT_CHECK(release.ok());
      out[t].push_back(MarginalReleaseToJson(*release));
    }
  }
  return out;
}

struct ModeResult {
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  QueryServerStats stats;
  std::vector<std::vector<std::string>> responses;  // [tenant][wave]
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

ModeResult RunMode(const Dataset& dataset,
                   const std::vector<MarginalSpec>& specs, int tenants,
                   int waves, bool batched) {
  QueryServerConfig config;
  config.batching = batched;
  config.max_batch = 64;
  config.max_queue = static_cast<size_t>(4 * tenants + 16);
  config.max_inflight_per_tenant = waves + 1;
  auto server = QueryServer::Create(config);
  IREDUCT_CHECK(server.ok());
  IREDUCT_CHECK((*server)->AddDataset("census", dataset).ok());
  std::vector<std::string> names;
  for (int t = 0; t < tenants; ++t) {
    names.push_back("tenant" + std::to_string(t));
    IREDUCT_CHECK((*server)
                      ->OpenTenant(names.back(), "census",
                                   waves * kEpsilonPerWave + 1.0,
                                   TenantSeed(t))
                      .ok());
  }

  ModeResult result;
  result.responses.resize(tenants);
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(tenants) * waves);
  const auto run_start = std::chrono::steady_clock::now();
  for (int w = 0; w < waves; ++w) {
    // Queue the whole wave while the dispatcher is parked — the
    // coalescing window a loaded service sees naturally.
    (*server)->Pause();
    std::vector<std::future<Result<MarginalRelease>>> futures;
    futures.reserve(tenants);
    const auto wave_start = std::chrono::steady_clock::now();
    for (int t = 0; t < tenants; ++t) {
      futures.push_back((*server)->SubmitMarginals(
          names[t], specs, ServiceMechanism(), kEpsilonPerWave, kDelta,
          kLambdaSteps));
    }
    (*server)->Resume();
    // Phase B resolves strictly in admission order, so waiting in
    // submission order observes each completion as it happens.
    for (int t = 0; t < tenants; ++t) {
      auto release = futures[t].get();
      latencies.push_back(Seconds(wave_start) * 1e3);
      IREDUCT_CHECK(release.ok());
      result.responses[t].push_back(MarginalReleaseToJson(*release));
    }
  }
  result.seconds = Seconds(run_start);
  (*server)->Drain();
  result.stats = (*server)->Stats();
  result.qps = result.seconds > 0
                   ? static_cast<double>(tenants) * waves / result.seconds
                   : 0;
  result.p50_ms = Percentile(latencies, 0.50);
  result.p99_ms = Percentile(latencies, 0.99);
  return result;
}

void WriteMode(obs::JsonWriter& writer, const char* key,
               const ModeResult& mode) {
  writer.Key(key);
  writer.BeginObject();
  writer.Key("seconds");
  writer.Double(mode.seconds);
  writer.Key("qps");
  writer.Double(mode.qps);
  writer.Key("p50_ms");
  writer.Double(mode.p50_ms);
  writer.Key("p99_ms");
  writer.Double(mode.p99_ms);
  writer.KV("admitted", mode.stats.admitted);
  writer.KV("batches", mode.stats.batches);
  writer.KV("fused_passes", mode.stats.fused_passes);
  writer.KV("max_batch_width", mode.stats.max_batch_width);
  writer.EndObject();
}

}  // namespace

int main() {
  bench::RegisterStandardMetrics();
  const Dataset& dataset = bench::GetCensus(CensusKind::kBrazil);
  auto all_specs = AllKWaySpecs(dataset.schema(), 2);
  IREDUCT_CHECK(all_specs.ok());
  // Keep the workload scan-bound: drop the giant-domain pairs (Occupation x
  // Age alone is ~52k cells) whose per-cell noise and response
  // serialization — identical in every mode — would otherwise swamp the
  // dataset-scan cost that batching amortizes.
  auto specs = std::make_unique<std::vector<MarginalSpec>>();
  for (const MarginalSpec& spec : *all_specs) {
    uint64_t cells = 1;
    for (const uint32_t a : spec.attributes) {
      cells *= dataset.schema().attribute(a).domain_size;
    }
    if (cells <= 256) specs->push_back(spec);
  }
  IREDUCT_CHECK(!specs->empty());

  const std::vector<int> tenant_list =
      EnvIntList("SERVICE_TENANTS", {1, 4, 8});
  const int waves = static_cast<int>(EnvInt64("SERVICE_WAVES", 4));
  const double min_speedup =
      EnvNonNegativeDouble("SERVICE_MIN_SPEEDUP", 1.5);

  std::string json;
  obs::JsonWriter writer(&json);
  writer.BeginObject();
  writer.KV("bench", "service_throughput");
  bench::WriteHostInfo(writer);
  writer.Key("rows");
  writer.UInt(dataset.num_rows());
  writer.Key("specs");
  writer.UInt(specs->size());
  writer.Key("waves");
  writer.UInt(static_cast<uint64_t>(waves));

  TablePrinter table({"tenants", "unbatched_qps", "batched_qps", "speedup",
                      "batched_p99_ms", "fused_passes"});
  bool parity_ok = true;
  double gate_speedup = 0;
  int gate_tenants = 0;
  writer.Key("cells");
  writer.BeginArray();
  for (const int tenants : tenant_list) {
    const auto golden = RunSerial(dataset, *specs, tenants, waves);
    ModeResult unbatched =
        RunMode(dataset, *specs, tenants, waves, /*batched=*/false);
    ModeResult batched =
        RunMode(dataset, *specs, tenants, waves, /*batched=*/true);
    const bool cell_parity =
        unbatched.responses == golden && batched.responses == golden;
    if (!cell_parity) {
      std::cerr << "PARITY FAILURE: server responses diverged from the "
                   "serial golden at "
                << tenants << " tenants\n";
      parity_ok = false;
    }
    const double speedup =
        unbatched.qps > 0 ? batched.qps / unbatched.qps : 0;
    if (tenants >= gate_tenants) {
      gate_tenants = tenants;
      gate_speedup = speedup;
    }
    table.AddRow({std::to_string(tenants), TablePrinter::Cell(unbatched.qps, 2),
                  TablePrinter::Cell(batched.qps, 2),
                  TablePrinter::Cell(speedup, 2),
                  TablePrinter::Cell(batched.p99_ms, 2),
                  std::to_string(batched.stats.fused_passes)});
    writer.BeginObject();
    writer.Key("tenants");
    writer.UInt(static_cast<uint64_t>(tenants));
    WriteMode(writer, "unbatched", unbatched);
    WriteMode(writer, "batched", batched);
    writer.Key("speedup");
    writer.Double(speedup);
    writer.Key("parity_ok");
    writer.Bool(cell_parity);
    writer.EndObject();
  }
  writer.EndArray();

  const bool speedup_ok = min_speedup <= 0 || gate_speedup >= min_speedup;
  writer.Key("gate_tenants");
  writer.UInt(static_cast<uint64_t>(gate_tenants));
  writer.Key("speedup_at_gate");
  writer.Double(gate_speedup);
  writer.Key("min_speedup");
  writer.Double(min_speedup);
  writer.Key("speedup_ok");
  writer.Bool(speedup_ok);
  writer.Key("parity_ok");
  writer.Bool(parity_ok);
  writer.EndObject();

  std::cout << "Multi-tenant service throughput: batched admission pipeline "
               "vs per-request dispatch ("
            << dataset.num_rows() << " rows, " << specs->size()
            << " specs/request, " << waves << " waves)\n\n";
  table.Print(std::cout);
  std::cout << "\nbatched speedup at " << gate_tenants
            << " tenants: " << gate_speedup << "x (required >= " << min_speedup
            << ")\n";
  if (!speedup_ok) {
    std::cerr << "SERVICE SPEEDUP FAILURE: " << gate_speedup
              << "x < required " << min_speedup << "x\n";
  }
  if (!parity_ok) {
    std::cerr << "SERVICE PARITY FAILURE: batched/unbatched responses must "
                 "be bit-identical to the serial run\n";
  }

  std::ofstream out("BENCH_SERVICE.json");
  out << json << "\n";
  std::cout << "Wrote BENCH_SERVICE.json\n";
  bench::EmitMetricsSnapshot("service_throughput");
  return speedup_ok && parity_ok ? 0 : 1;
}
