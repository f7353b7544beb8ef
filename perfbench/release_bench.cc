// Release benchmark: times cold private releases and a mixed query
// service against the library's public API, checks every output, and
// prints one JSON result line (see perfbench/README.md).
//
//   release_bench --workload release-ireduct|release-scan|service-mixed
//                 --seed N --seconds S --trace 0|1
//
// All inputs derive from --seed. Every file the run creates lives in
// .bench_run/<workload>-<pid>/ under the working directory and is removed
// at exit. With --trace 1 the run records spans around each call into a
// layer, writes them to .bench_run/<workload>.trace.json and prints the
// per-layer metrics; with --trace 0 it prints the end-to-end metrics.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/mechanism_registry.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "data/columnar.h"
#include "dp/ledger_journal.h"
#include "dp/privacy_accountant.h"
#include "eval/metrics.h"
#include "marginals/marginal_cache.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/private_session.h"
#include "service/query_server.h"
#include "service/wire.h"

namespace ireduct {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using obs::JsonValue;

// Set-up is repeated this many times per run and reported as the median,
// so one slow file-system call does not decide setup_s.
constexpr int kSetupRepeats = 5;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least p of the
// samples at or below it.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The highest percentile with at least ten samples beyond it: p99 once
// there are 1000 samples, otherwise the sample with ten larger ones above
// it (the largest when there are at most ten).
double TailLatency(const std::vector<double>& v) {
  if (v.empty()) return 0;
  if (v.size() >= 1000) return Percentile(v, 0.99);
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  return sorted.size() > 10 ? sorted[sorted.size() - 11] : sorted.back();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------
// Result line and checks

// Every metric the benchmark prints, in output order. Each workload
// prints the whole end-to-end list (--trace 0) or the whole per-layer list
// (--trace 1); a layer a workload does not exercise reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"release_s", "s"},    {"overall_error", "ratio"},
    {"p50_ms", "ms"},       {"p99_ms", "ms"},      {"saturated_qps", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.load_s", "s"},
    {"data.file_mb", "MB"},
    {"marginals.tables_s", "s"},
    {"marginals.rows_per_s", "1/s"},
    {"marginals.cells", "count"},
    {"marginals.post_s", "s"},
    {"marginals.cache_hit_ratio", "ratio"},
    {"marginals.cache_lookups", "count"},
    {"marginals.fused_passes", "count"},
    {"algorithms.mechanism_s", "s"},
    {"algorithms.iterations", "count"},
    {"algorithms.pick_s", "s"},
    {"algorithms.gs_full_recomputes", "count"},
    {"dp.resample_draws", "count"},
    {"dp.ns_per_draw", "ns"},
    {"dp.accept_ratio", "ratio"},
    {"dp.envelope_draws", "count"},
    {"dp.journal_append_ms", "ms"},
    {"dp.journal_fsync_ms", "ms"},
    {"dp.journal_appends", "count"},
    {"service.request_ms_mean", "ms"},
    {"service.requests", "count"},
    {"service.mean_batch_width", "ratio"},
    {"service.batches", "count"},
    {"service.max_batch_width", "count"},
    {"service.shed_frac", "ratio"},
    {"service.overload_requests", "count"},
    {"service.queue_depth_max", "count"},
    {"service.queue_wait_ms", "ms"},
    {"wire.ping_ms", "ms"},
    {"wire.response_kb", "KB"},
    {"common.pool_tasks", "count"},
    {"common.pool_task_wait_ms", "ms"},
    {"loadgen.lag_ms_p99", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.child_cover_frac", "ratio"},
    {"trace.self.release_s", "s"},
    {"trace.self.data.load_s", "s"},
    {"trace.self.marginals.tables_s", "s"},
    {"trace.self.marginals.workload_s", "s"},
    {"trace.self.algorithms.mechanism_s", "s"},
    {"trace.self.dp.charge_s", "s"},
    {"trace.self.marginals.post_s", "s"},
    {"trace.self.request.count_s", "s"},
    {"trace.self.request.marginals_s", "s"},
};

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  bool Lists(const std::string& name) const {
    for (const MetricDef& def : Defs()) {
      if (name == def.name) return true;
    }
    return false;
  }

  void Set(const std::string& name, double value) {
    if (Lists(name)) {
      values_[name] = value;
      return;
    }
    std::fprintf(stderr, "internal error: unlisted metric %s\n",
                 name.c_str());
    std::abort();
  }

  // One operation (a release or a request). A failed check marks it
  // failed and fails the run.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A run-level check (budget and journal agreement, determinism).
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  static void OperationFailed(const std::string& what) {
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  // Prints the table for people, then the result line last.
  void Print() const {
    for (const MetricDef& def : Defs()) {
      std::printf("# %-36s %.6g %s\n", def.name, Value(def.name), def.unit);
    }
    std::string out;
    obs::JsonWriter w(&out);
    w.BeginObject();
    w.Key("correct");
    w.Bool(correct());
    w.KV("attempted", attempted_);
    w.KV("failed", failed_);
    w.Key("metrics");
    w.BeginObject();
    for (const MetricDef& def : Defs()) {
      w.Key(def.name);
      w.BeginObject();
      w.KV("value", Value(def.name));
      w.KV("unit", def.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::span<const MetricDef> Defs() const {
    if (trace_) return kPerLayer;
    return kEndToEnd;
  }
  double Value(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  bool trace_;
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------------
// Spans: recorded in the benchmark's own code around calls into each
// layer, kept in memory and written at exit.

struct Span {
  std::string name;
  std::string key;  // request identity (service) or release index
  double start = 0;  // seconds since the run began
  double end = 0;
  int parent = -1;
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  // Opens a span; returns -1 (and records nothing) when tracing is off.
  int Begin(std::string name, int parent, std::string key = {}) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), std::move(key),
                      Seconds(origin_, Clock::now()), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[id].end = Seconds(origin_, Clock::now());
  }
  void Record(std::string name, std::string key, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), std::move(key), Seconds(origin_, start),
                      Seconds(origin_, end), -1});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span: the part of its interval that no child span covers.
  std::vector<double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = (spans_[i].end - spans_[i].start) -
                Covered(children[i], spans_[i].start, spans_[i].end);
    }
    return self;
  }

  bool WriteJson(const std::string& path) const {
    std::string out;
    obs::JsonWriter w(&out);
    w.BeginObject();
    w.Key("spans");
    w.BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.KV("id", static_cast<uint64_t>(i));
      w.KV("name", s.name);
      w.KV("key", s.key);
      w.KV("start_s", s.start);
      w.KV("end_s", s.end);
      // -1 marks a root span.
      w.Key("parent");
      w.Int(s.parent);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream file(path);
    file << out << '\n';
    return static_cast<bool>(file);
  }

 private:
  // Length of the union of `intervals`, clipped to [lo, hi].
  static double Covered(std::vector<std::pair<double, double>> intervals,
                        double lo, double hi) {
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double reach = lo;
    for (auto [a, b] : intervals) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    return covered;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Reports the mean self time of each span name and, for release spans,
// the share of the release their child spans cover; writes the spans.
void FinishTrace(const Tracer& tracer, const std::string& workload,
                 Report* report) {
  const std::vector<double> self = tracer.SelfTimes();
  std::map<std::string, std::pair<double, int>> by_name;
  double release_s = 0;
  for (size_t i = 0; i < self.size(); ++i) {
    const Span& s = tracer.spans()[i];
    by_name[s.name].first += self[i];
    by_name[s.name].second += 1;
    if (s.name == "release") release_s += s.end - s.start;
  }
  for (const auto& [name, sum_count] : by_name) {
    if (!report->Lists("trace.self." + name + "_s")) continue;
    report->Set("trace.self." + name + "_s",
                sum_count.first / sum_count.second);
  }
  if (release_s > 0) {
    report->Set("trace.child_cover_frac",
                1 - by_name["release"].first / release_s);
  }
  const std::string path = ".bench_run/" + workload + ".trace.json";
  report->Check(tracer.WriteJson(path), "writing " + path);
  std::printf("# trace: %zu spans written to %s\n", tracer.spans().size(),
              path.c_str());
}

// ---------------------------------------------------------------------
// Registry counters read from outside: deltas between two snapshots.

class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::Global().Snapshot()) {}
  void Stop() { after_ = obs::MetricsRegistry::Global().Snapshot(); }

  uint64_t Count(std::string_view name) const {
    return CounterIn(after_, name) - CounterIn(before_, name);
  }
  uint64_t Observations(std::string_view name) const {
    return HistIn(after_, name).first - HistIn(before_, name).first;
  }
  double Sum(std::string_view name) const {
    return HistIn(after_, name).second - HistIn(before_, name).second;
  }
  double Mean(std::string_view name) const {
    return Ratio(Sum(name), static_cast<double>(Observations(name)));
  }

 private:
  static uint64_t CounterIn(const obs::MetricsSnapshot& s,
                            std::string_view name) {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  }
  static std::pair<uint64_t, double> HistIn(const obs::MetricsSnapshot& s,
                                            std::string_view name) {
    for (const obs::HistogramSnapshot& h : s.histograms) {
      if (h.name == name) return {h.count, h.sum};
    }
    return {0, 0};
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------
// Run isolation: every file of a run lives under one directory named from
// the workload and pid, removed when the run ends.

class RunDir {
 public:
  explicit RunDir(const std::string& workload)
      : path_(".bench_run/" + workload + "-" + std::to_string(::getpid())) {
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::remove(".bench_run", ec);  // only if no other run or trace is left
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// Host and run stamp.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void PrintStamp(const std::string& workload, uint64_t seed, uint64_t rows,
                bool trace) {
  std::printf("# host: cpu=\"%s\" nproc=%d simd=%s build=%s tracing=%s\n",
              CpuModel().c_str(), Nproc(),
              simd::TierName(simd::ActiveTier()), PERFBENCH_BUILD_TYPE,
              IREDUCT_ENABLE_TRACING ? "on" : "off");
  std::printf("# run: workload=%s seed=%llu rows=%llu trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(rows), trace ? 1 : 0);
}

Result<double> TimedSetup(const std::function<Status()>& setup) {
  const Clock::time_point t0 = Clock::now();
  IREDUCT_RETURN_NOT_OK(setup());
  return Seconds(t0, Clock::now());
}

Status WriteCensusFile(uint64_t rows, uint64_t seed, const std::string& path) {
  CensusConfig config;
  config.kind = CensusKind::kBrazil;
  config.rows = rows;
  config.seed = seed;
  IREDUCT_ASSIGN_OR_RETURN(Dataset dataset, GenerateCensus(config));
  return WriteColumnar(dataset, path);
}

// ---------------------------------------------------------------------
// release-ireduct / release-scan

struct ReleaseWorkload {
  const char* name;
  uint64_t rows;
  int k;  // marginal arity: all k-way marginals are released
  const char* mechanism;
  double epsilon;
  int lambda_steps;  // read by ireduct only
};

constexpr ReleaseWorkload kReleaseIReduct{"release-ireduct", 200'000, 2,
                                          "ireduct", 0.05, 150};
constexpr ReleaseWorkload kReleaseScan{"release-scan", 4'000'000, 3, "dwork",
                                       0.1, 150};

// What one cold release measured and produced.
struct ReleaseSample {
  bool traced = false;
  double total_s = 0;
  double charge_s = 0;  // the journaled Charge call alone
  double overall_error = 0;
  uint64_t digest = 0;
  size_t cells = 0;
  size_t rows = 0;
  // Span durations by child name (traced releases only).
  std::map<std::string, double> step_s;
  uint64_t iterations = 0;
  uint64_t resample_draws = 0;
  uint64_t envelope_draws = 0;
  uint64_t noise_samples = 0;
  uint64_t gs_full_recomputes = 0;
  double pick_s = 0;
  uint64_t fused_passes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t journal_appends = 0;
  double journal_fsync_s = 0;
  uint64_t pool_tasks = 0;
  double pool_wait_s = 0;
};

// The steps of `ireduct_tool marginals`, called one at a time so each can
// be timed: load, true tables, workload, mechanism, journaled charge,
// post-processing. Returns false (after reporting) when a check fails.
bool RunRelease(const ReleaseWorkload& cfg, const std::string& data_path,
                const MechanismSpec& spec, uint64_t seed, double delta,
                ThreadPool* pool, Tracer* tracer, const RunDir& dir,
                int index, ReleaseSample* sample) {
  const auto fail = [&](const std::string& what) {
    Report::OperationFailed("release " + std::to_string(index) + ": " + what);
    return false;
  };
  MarginalCache::Global().Clear();
  RegistryDelta counters;
  const std::string key = std::to_string(index);
  const Clock::time_point t0 = Clock::now();
  const int release = tracer->Begin("release", -1, key);

  int span = tracer->Begin("data.load", release, key);
  Result<ColumnarFile> file = ColumnarFile::Open(data_path);
  if (!file.ok()) return fail(file.status().ToString());
  Result<Dataset> dataset = file->ToDataset();
  if (!dataset.ok()) return fail(dataset.status().ToString());
  tracer->End(span);

  span = tracer->Begin("marginals.tables", release, key);
  Result<std::vector<MarginalSpec>> specs =
      AllKWaySpecs(dataset->schema(), cfg.k);
  if (!specs.ok()) return fail(specs.status().ToString());
  Result<MarginalSetEvaluator> evaluator =
      MarginalSetEvaluator::Create(dataset->schema(), *specs);
  if (!evaluator.ok()) return fail(evaluator.status().ToString());
  Result<std::vector<Marginal>> tables = evaluator->Compute(*dataset, {}, pool);
  if (!tables.ok()) return fail(tables.status().ToString());
  tracer->End(span);

  span = tracer->Begin("marginals.workload", release, key);
  Result<MarginalWorkload> workload = MarginalWorkload::Create(std::move(*tables));
  if (!workload.ok()) return fail(workload.status().ToString());
  tracer->End(span);

  span = tracer->Begin("algorithms.mechanism", release, key);
  BitGen gen(seed);
  Result<MechanismOutput> out =
      MechanismRegistry::Global().Run(workload->workload(), spec, gen);
  if (!out.ok()) return fail(out.status().ToString());
  tracer->End(span);

  span = tracer->Begin("dp.charge", release, key);
  if (!(out->epsilon_spent <= cfg.epsilon)) {
    return fail("epsilon_spent " + std::to_string(out->epsilon_spent) +
                " exceeds the requested " + std::to_string(cfg.epsilon));
  }
  Result<PrivacyAccountant> accountant = PrivacyAccountant::Create(cfg.epsilon);
  if (!accountant.ok()) return fail(accountant.status().ToString());
  Result<LedgerJournal> journal = LedgerJournal::Create(
      dir.File("release-" + key + ".journal"), cfg.epsilon);
  if (!journal.ok()) return fail(journal.status().ToString());
  accountant->AttachJournal(&*journal);
  const Clock::time_point charge0 = Clock::now();
  const Status charged = accountant->Charge(
      std::string("marginals (") + cfg.mechanism + ")", out->epsilon_spent);
  sample->charge_s = Seconds(charge0, Clock::now());
  if (!charged.ok()) return fail(charged.ToString());
  tracer->End(span);

  span = tracer->Begin("marginals.post", release, key);
  Result<std::vector<Marginal>> published =
      workload->ToMarginals(out->answers);
  if (!published.ok()) return fail(published.status().ToString());
  tracer->End(span);
  tracer->End(release);
  sample->total_s = Seconds(t0, Clock::now());
  counters.Stop();

  // Checks and scoring, outside the timed release.
  if (published->size() != specs->size()) return fail("marginal count");
  size_t cells = 0;
  uint64_t digest = 14695981039346656037ull;
  for (const Marginal& m : *published) {
    size_t expect = 1;
    for (const uint32_t d : m.domain_sizes()) expect *= d;
    if (m.counts().size() != expect) return fail("marginal shape");
    for (const double c : m.counts()) {
      if (!std::isfinite(c)) return fail("non-finite answer");
    }
    cells += expect;
    digest = Fnv1a(m.counts().data(), m.counts().size() * sizeof(double),
                   digest);
  }
  if (cells != out->answers.size()) return fail("answer count");
  sample->cells = cells;
  sample->digest = digest;
  sample->rows = dataset->num_rows();
  sample->overall_error =
      OverallError(workload->workload(), out->answers, delta);
  if (!std::isfinite(sample->overall_error)) return fail("overall error");

  if (tracer->enabled()) {
    sample->traced = true;
    for (size_t i = release + 1; i < tracer->spans().size(); ++i) {
      const Span& s = tracer->spans()[i];
      sample->step_s[s.name] += s.end - s.start;
    }
  }
  sample->iterations = counters.Count("ireduct.iterations");
  sample->resample_draws = counters.Count("ireduct.resample_draws");
  sample->envelope_draws = counters.Count("noise_down.envelope_draws");
  sample->noise_samples = counters.Count("noise_down.samples");
  sample->gs_full_recomputes = counters.Count("ireduct.gs_full_recomputes");
  sample->pick_s = counters.Sum("ireduct.pick_seconds");
  sample->fused_passes = counters.Count("marginals.fused_passes");
  sample->cache_hits = counters.Count("marginals.cache_hits");
  sample->cache_lookups =
      sample->cache_hits + counters.Count("marginals.cache_misses");
  sample->journal_appends = counters.Count("journal.appends");
  sample->journal_fsync_s = counters.Mean("journal.fsync_seconds");
  sample->pool_tasks = counters.Count("thread_pool.tasks");
  sample->pool_wait_s = counters.Sum("thread_pool.task_wait_seconds");
  return true;
}

int RunReleaseWorkload(const ReleaseWorkload& cfg, uint64_t seed,
                       double seconds, bool trace) {
  PrintStamp(cfg.name, seed, cfg.rows, trace);
  RunDir dir(cfg.name);
  const std::string data_path = dir.File("census.col");

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Result<double> s =
        TimedSetup([&] { return WriteCensusFile(cfg.rows, seed, data_path); });
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 2;
    }
    setups.push_back(*s);
  }
  const uint64_t file_bytes = fs::file_size(data_path);

  const double n = static_cast<double>(cfg.rows);
  const double delta = 1e-4 * n;
  Result<const Mechanism*> mech =
      MechanismRegistry::Global().Get(cfg.mechanism);
  if (!mech.ok()) {
    std::fprintf(stderr, "%s\n", mech.status().ToString().c_str());
    return 2;
  }
  MechanismSpec spec(cfg.mechanism);
  (*mech)->SetSpecDefault(&spec, "epsilon", cfg.epsilon);
  (*mech)->SetSpecDefault(&spec, "delta", delta);
  (*mech)->SetSpecDefault(&spec, "lambda_max", n / 10);
  (*mech)->SetSpecDefault(&spec, "lambda_steps",
                          std::string_view(std::to_string(cfg.lambda_steps)));

  ThreadPool pool(Nproc());
  Report report(trace);
  std::vector<ReleaseSample> samples;
  // Releases run back to back until the next one would end past
  // `seconds`; at least two, so the determinism check always has a pair.
  // A traced run alternates traced and untraced releases so it can
  // report the tracing overhead.
  const Clock::time_point loop0 = Clock::now();
  Tracer tracer_on(true, loop0);
  Tracer tracer_off(false, loop0);
  while (true) {
    const int index = static_cast<int>(samples.size());
    const bool traced = trace && index % 2 == 0;
    ReleaseSample sample;
    const bool ok = RunRelease(cfg, data_path, spec, seed, delta, &pool,
                               traced ? &tracer_on : &tracer_off, dir, index,
                               &sample);
    report.Attempt(ok);
    if (!ok) break;
    samples.push_back(std::move(sample));
    const double elapsed = Seconds(loop0, Clock::now());
    if (samples.size() >= 2 &&
        elapsed + samples.back().total_s > seconds) {
      break;
    }
  }
  const double loop_s = Seconds(loop0, Clock::now());

  for (const ReleaseSample& s : samples) {
    report.Check(s.digest == samples.front().digest,
                 "releases at one seed differ in their answer digest");
    report.Check(s.iterations == samples.front().iterations &&
                     s.resample_draws == samples.front().resample_draws &&
                     s.cells == samples.front().cells,
                 "releases at one seed differ in their layer counts");
  }
  if (samples.empty()) {
    report.Print();
    return 1;
  }

  std::vector<double> totals;
  std::vector<double> traced_totals;
  std::vector<double> untraced_totals;
  for (const ReleaseSample& s : samples) {
    totals.push_back(s.total_s);
    (s.traced ? traced_totals : untraced_totals).push_back(s.total_s);
  }
  const ReleaseSample& last = samples.back();
  double release_time_s = 0;
  for (const double t : totals) release_time_s += t;
  std::printf("# releases: %zu in %.3f s (median %.4f s), cells=%zu\n",
              samples.size(), loop_s, Median(totals), last.cells);

  if (!trace) {
    report.Set("setup_s", Median(setups));
    report.Set("release_s", Median(totals));
    report.Set("overall_error", last.overall_error);
    // Releases run one at a time, back to back, so the loop is saturated
    // by construction: p50/p99 are release latencies and saturated_qps is
    // releases per second of release time.
    report.Set("p50_ms", 1000 * Median(totals));
    report.Set("p99_ms", 1000 * TailLatency(totals));
    report.Set("saturated_qps",
               static_cast<double>(totals.size()) / release_time_s);
    report.Set("peak_rss_mb", PeakRssMb());
  } else {
    const auto step = [&](const std::string& name) {
      std::vector<double> v;
      for (const ReleaseSample& s : samples) {
        const auto it = s.step_s.find(name);
        if (it != s.step_s.end()) v.push_back(it->second);
      }
      return Median(v);
    };
    std::vector<double> charges;
    for (const ReleaseSample& s : samples) charges.push_back(s.charge_s);
    const double tables_s = step("marginals.tables");
    const double mechanism_s = step("algorithms.mechanism");
    report.Set("data.load_s", step("data.load"));
    report.Set("data.file_mb", file_bytes / 1e6);
    report.Set("marginals.tables_s", tables_s);
    report.Set("marginals.rows_per_s", Ratio(last.rows, tables_s));
    report.Set("marginals.cells", last.cells);
    report.Set("marginals.post_s",
               step("marginals.workload") + step("marginals.post"));
    report.Set("marginals.cache_hit_ratio",
               Ratio(last.cache_hits, last.cache_lookups));
    report.Set("marginals.cache_lookups", last.cache_lookups);
    report.Set("marginals.fused_passes", last.fused_passes);
    report.Set("algorithms.mechanism_s", mechanism_s);
    report.Set("algorithms.iterations", last.iterations);
    report.Set("algorithms.pick_s", last.pick_s);
    report.Set("algorithms.gs_full_recomputes", last.gs_full_recomputes);
    report.Set("dp.resample_draws", last.resample_draws);
    report.Set("dp.ns_per_draw", 1e9 * Ratio(mechanism_s, last.resample_draws));
    report.Set("dp.accept_ratio",
               Ratio(last.noise_samples, last.envelope_draws));
    report.Set("dp.envelope_draws", last.envelope_draws);
    report.Set("dp.journal_append_ms", 1000 * Median(charges));
    report.Set("dp.journal_fsync_ms", 1000 * last.journal_fsync_s);
    report.Set("dp.journal_appends", last.journal_appends);
    report.Set("common.pool_tasks", last.pool_tasks);
    report.Set("common.pool_task_wait_ms",
               1000 * Ratio(last.pool_wait_s, last.pool_tasks));
    report.Set("trace.overhead_frac",
               Ratio(Median(traced_totals) - Median(untraced_totals),
                     Median(untraced_totals)));
    FinishTrace(tracer_on, cfg.name, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------
// service-mixed

// The measured phase is a closed loop: kOutstanding requests are always in
// flight on the one connection, and the sender sends the next planned
// request as soon as a response frees a slot. The server is saturated
// throughout, so every latency is dominated by the work queued ahead of
// the request (compute and fsync), not by scheduler wake-up jitter. An
// open loop at ~40% load put p50 on the edge between idle and queued
// requests and swung it by 20-50% between identical runs on a 4-core
// shared VM.
constexpr uint64_t kServiceRows = 200'000;
constexpr int kTenants = 4;
constexpr int kOutstanding = 2 * kTenants;
// The closed loop sends a fixed number of requests, so its layer counts
// repeat exactly at one seed: kRequestsPerSecond per --seconds (it serves
// ~70 req/s on a 4-core Xeon), and at least 1000 so p99 has ten samples
// beyond it.
constexpr size_t kMinRequests = 1000;
constexpr size_t kRequestsPerSecond = 80;
// Round trips of `ping` on the idle connection, timing the wire alone.
constexpr int kPings = 51;
constexpr int kMixBlock = 4;  // one marginal request per block of four
constexpr double kCountEpsilon = 0.01;
constexpr double kMarginalEpsilon = 0.1;
constexpr int kMarginalSteps = 60;
constexpr double kTenantBudget = 1e4;  // never the reason a request fails
constexpr size_t kMaxMarginalCells = 256;
// Admission queue of the served QueryServer. The overload burst offers
// about four times serial capacity (~70 req/s for this mix) on a seeded
// Poisson schedule, so the queue fills and sheds, and drains in ~1 s.
constexpr size_t kMaxQueue = 64;
constexpr double kOverloadRate = 280;  // requests per second
constexpr double kOverloadSeconds = 1.5;
// A run whose sender reacted later than this share of p50 measured its
// own generator, not the server, and flags itself invalid.
constexpr double kMaxLagShareOfP50 = 0.25;

enum Phase { kWarmup = 0, kSaturated = 1, kOverload = 2 };

struct Planned {
  uint64_t id = 0;
  Phase phase = kWarmup;
  double at = 0;  // open loop only: scheduled send after the phase origin
  bool marginals = false;
  int tenant = 0;
  std::string line;  // the request, serialized ahead of time
};

// Responses on the one client connection. The reader thread timestamps
// each line as it arrives; the sender waits on it. (WireClient reads only
// inside Receive, so it cannot timestamp responses while the sender is
// busy sending.)
class Connection {
 public:
  static Result<std::unique_ptr<Connection>> Open(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IoError("socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return Status::InvalidArgument("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return Status::IoError("connect " + path + ": " + std::strerror(errno));
    }
    return std::unique_ptr<Connection>(new Connection(fd));
  }

  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const std::string& line) {
    size_t done = 0;
    while (done < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + done, line.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  struct Arrival {
    Clock::time_point at;
    std::string line;
  };

  // Waits until at least `count` responses arrived in total; returns the
  // arrival time of the latest one, or nullopt at `deadline`.
  std::optional<Clock::time_point> WaitForCount(size_t count,
                                                Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!arrived_cv_.wait_until(lock, deadline,
                                [&] { return arrivals_.size() >= count; })) {
      return std::nullopt;
    }
    return last_arrival_;
  }

  size_t ArrivedCount() {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_.size();
  }

  std::map<uint64_t, Arrival> TakeArrivals() {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

 private:
  explicit Connection(int fd) : fd_(fd), reader_([this] { ReadLoop(); }) {}

  void ReadLoop() {
    std::string buffer;
    char chunk[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      const Clock::time_point now = Clock::now();
      buffer.append(chunk, static_cast<size_t>(n));
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        const size_t key = line.find("\"id\":");
        if (key == std::string::npos) continue;
        const uint64_t id = std::strtoull(line.c_str() + key + 5, nullptr, 10);
        std::lock_guard<std::mutex> lock(mu_);
        arrivals_.emplace(id, Arrival{now, std::move(line)});
        last_arrival_ = now;
        arrived_cv_.notify_all();
      }
    }
  }

  const int fd_;
  std::mutex mu_;
  std::condition_variable arrived_cv_;
  std::map<uint64_t, Arrival> arrivals_;  // guarded by mu_
  Clock::time_point last_arrival_;        // guarded by mu_
  std::thread reader_;  // last: reads the members above
};

// One started service: files, server, wire endpoint and client connection.
// Members are torn down in reverse order of declaration.
struct Service {
  std::string data_path;
  std::string journal_dir;
  double add_dataset_s = 0;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<WireServer> wire;
  std::unique_ptr<Connection> connection;
};

uint64_t TenantSeed(uint64_t seed, int tenant) {
  return seed * 1000003ull + static_cast<uint64_t>(tenant) + 1;
}

std::string TenantName(int tenant) { return "t" + std::to_string(tenant); }

Status StartService(const std::string& dir, uint64_t seed, Service* out) {
  fs::create_directories(dir);
  out->data_path = dir + "/census.col";
  out->journal_dir = dir + "/journals";
  IREDUCT_RETURN_NOT_OK(WriteCensusFile(kServiceRows, seed, out->data_path));
  QueryServerConfig config;
  config.workers = std::max(1, Nproc() - 1);
  config.journal_dir = out->journal_dir;
  config.max_queue = kMaxQueue;
  // Sheds come from the bounded queue alone, in arrival order.
  config.max_inflight_per_tenant = static_cast<int>(kMaxQueue);
  IREDUCT_ASSIGN_OR_RETURN(out->server, QueryServer::Create(config));
  const Clock::time_point add0 = Clock::now();
  IREDUCT_RETURN_NOT_OK(out->server->AddDatasetFile("census", out->data_path));
  out->add_dataset_s = Seconds(add0, Clock::now());
  for (int t = 0; t < kTenants; ++t) {
    IREDUCT_RETURN_NOT_OK(out->server->OpenTenant(
        TenantName(t), "census", kTenantBudget, TenantSeed(seed, t)));
  }
  IREDUCT_ASSIGN_OR_RETURN(out->wire,
                           WireServer::Start(out->server.get(),
                                             dir + "/wire.sock"));
  IREDUCT_ASSIGN_OR_RETURN(out->connection,
                           Connection::Open(dir + "/wire.sock"));
  return Status::OK();
}

// Plans `count` requests. Kinds come in blocks of kMixBlock holding
// exactly one marginal request, so the mix is exact and only its order is
// random. With `rate` > 0 the requests also get seeded Poisson send times.
void PlanPhase(Phase phase, size_t count, double rate, const Schema& schema,
               const std::vector<MarginalSpec>& marginal_specs, double delta,
               std::mt19937_64* rng, uint64_t* next_id,
               std::vector<Planned>* plan) {
  std::uniform_int_distribution<int> tenant_of(0, kTenants - 1);
  std::exponential_distribution<double> gap(rate > 0 ? rate : 1);
  double at = 0;
  int marginal_slot = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % kMixBlock == 0) {
      marginal_slot =
          std::uniform_int_distribution<int>(0, kMixBlock - 1)(*rng);
    }
    Planned p;
    p.id = (*next_id)++;
    p.phase = phase;
    p.marginals = static_cast<int>(i % kMixBlock) == marginal_slot;
    p.tenant = tenant_of(*rng);
    if (rate > 0) {
      p.at = at;
      at += gap(*rng);
    }
    WireRequest req;
    req.id = p.id;
    req.tenant = TenantName(p.tenant);
    if (p.marginals) {
      req.op = "marginals";
      req.specs = marginal_specs;
      req.mechanism = "ireduct";
      req.epsilon = kMarginalEpsilon;
      req.delta = delta;
      req.lambda_steps = kMarginalSteps;
    } else {
      req.op = "count";
      req.epsilon = kCountEpsilon;
      const int preds = std::uniform_int_distribution<int>(1, 2)(*rng);
      std::vector<uint32_t> attrs(schema.num_attributes());
      for (uint32_t a = 0; a < attrs.size(); ++a) attrs[a] = a;
      std::shuffle(attrs.begin(), attrs.end(), *rng);
      for (int k = 0; k < preds; ++k) {
        const uint32_t domain = schema.attribute(attrs[k]).domain_size;
        req.query.predicates.push_back(
            {attrs[k], static_cast<uint16_t>(
                           std::uniform_int_distribution<uint32_t>(
                               0, domain - 1)(*rng))});
      }
    }
    p.line = req.ToJson() + "\n";
    plan->push_back(std::move(p));
  }
}

struct PhaseRun {
  Clock::time_point origin;
  Clock::time_point end;   // arrival of the phase's last response
  std::vector<double> lag_s;  // how late each send was
  size_t queue_depth_max = 0;
  std::vector<uint64_t> ids;  // requests actually sent
  QueryServerStats stats_before;
  QueryServerStats stats_after;
  RegistryDelta counters;
  bool complete = false;
};

// The sender. In a closed loop (`outstanding` > 0) it keeps that many
// requests in flight; a send's lag is its delay after the response that
// freed its slot. In an open loop it sends on the planned schedule; a
// send's lag is its delay after the scheduled time. Either way it samples
// the server's queue depth after each send and finally waits for every
// response.
PhaseRun RunPhase(Phase phase, const std::vector<Planned>& plan,
                  int outstanding, Service* service,
                  std::map<uint64_t, Clock::time_point>* sent) {
  PhaseRun run;
  run.stats_before = service->server->Stats();
  const size_t arrived_before = service->connection->ArrivedCount();
  // An open loop starts its schedule just ahead, so the first send is on
  // time; a closed loop starts now.
  run.origin = Clock::now() + std::chrono::milliseconds(outstanding > 0 ? 0
                                                                        : 5);
  for (const Planned& p : plan) {
    if (p.phase != phase) continue;
    Clock::time_point due;
    if (outstanding > 0) {
      const size_t in_flight = run.ids.size();
      if (in_flight >= static_cast<size_t>(outstanding)) {
        const std::optional<Clock::time_point> freed =
            service->connection->WaitForCount(
                arrived_before + in_flight - outstanding + 1,
                Clock::now() + std::chrono::seconds(60));
        if (!freed) break;
        due = *freed;
      } else {
        due = Clock::now();
      }
    } else {
      due = run.origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(p.at));
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point now = Clock::now();
    if (!service->connection->Send(p.line)) break;
    (*sent)[p.id] = now;
    run.lag_s.push_back(std::max(0.0, Seconds(due, now)));
    run.ids.push_back(p.id);
    run.queue_depth_max =
        std::max(run.queue_depth_max, service->server->Stats().queue_depth);
  }
  const std::optional<Clock::time_point> last =
      service->connection->WaitForCount(
          arrived_before + run.ids.size(),
          Clock::now() + std::chrono::seconds(60));
  run.complete = last.has_value();
  run.end = last.value_or(Clock::now());
  run.counters.Stop();
  run.stats_after = service->server->Stats();
  return run;
}

// Outcome of one response, checked against the request it answers.
struct Outcome {
  bool ok = false;
  bool shed = false;
  double epsilon = 0;  // charged to the tenant
  double overall_error = 0;
  size_t bytes = 0;
  std::string error;
};

Outcome CheckResponse(const Planned& p, const std::string& line,
                      const Workload& truth, size_t cells, double delta) {
  Outcome o;
  o.bytes = line.size() + 1;
  Result<WireResponse> resp = WireResponse::Parse(line);
  if (!resp.ok()) {
    o.error = resp.status().ToString();
    return o;
  }
  if (!resp->ok) {
    o.shed = resp->retry_after_ms >= 0;
    o.error = resp->code + ": " + resp->message;
    return o;
  }
  Result<JsonValue> result = obs::JsonParse(resp->result_json);
  if (!result.ok()) {
    o.error = result.status().ToString();
    return o;
  }
  if (!p.marginals) {
    const JsonValue* value = result->Find("value");
    if (value == nullptr || !value->is(JsonValue::Kind::kNumber) ||
        !std::isfinite(value->number)) {
      o.error = "count value missing or not finite";
      return o;
    }
    o.epsilon = kCountEpsilon;
    o.ok = true;
    return o;
  }
  const JsonValue* eps = result->Find("epsilon_spent");
  const JsonValue* marginals = result->Find("marginals");
  if (eps == nullptr || !eps->is(JsonValue::Kind::kNumber) ||
      marginals == nullptr || !marginals->is(JsonValue::Kind::kArray)) {
    o.error = "malformed marginal release";
    return o;
  }
  if (!(eps->number > 0 && eps->number <= kMarginalEpsilon)) {
    o.error = "epsilon_spent " + eps->text + " outside (0, " +
              std::to_string(kMarginalEpsilon) + "]";
    return o;
  }
  std::vector<double> answers;
  answers.reserve(cells);
  for (const JsonValue& m : marginals->array) {
    const JsonValue* domain = m.Find("domain");
    const JsonValue* counts = m.Find("counts");
    if (domain == nullptr || counts == nullptr) {
      o.error = "malformed marginal";
      return o;
    }
    size_t expect = 1;
    for (const JsonValue& d : domain->array) {
      expect *= static_cast<size_t>(d.number);
    }
    if (counts->array.size() != expect) {
      o.error = "marginal shape does not match its domain";
      return o;
    }
    for (const JsonValue& c : counts->array) {
      if (!c.is(JsonValue::Kind::kNumber) || !std::isfinite(c.number)) {
        o.error = "non-finite marginal answer";
        return o;
      }
      answers.push_back(c.number);
    }
  }
  if (answers.size() != cells) {
    o.error = "release has " + std::to_string(answers.size()) +
              " cells, expected " + std::to_string(cells);
    return o;
  }
  o.epsilon = eps->number;
  o.overall_error = OverallError(truth, answers, delta);
  o.ok = true;
  return o;
}

// Round trips of `ping` one at a time on the idle connection: the wire
// and its reader thread without the admission pipeline.
std::vector<double> Pings(uint64_t first_id, Service* service) {
  std::vector<double> rtt;
  const size_t before = service->connection->ArrivedCount();
  for (int i = 0; i < kPings; ++i) {
    WireRequest ping;
    ping.id = first_id + i;
    ping.op = "ping";
    const Clock::time_point t0 = Clock::now();
    if (!service->connection->Send(ping.ToJson() + "\n")) break;
    const std::optional<Clock::time_point> back =
        service->connection->WaitForCount(
            before + i + 1, Clock::now() + std::chrono::seconds(10));
    if (!back) break;
    rtt.push_back(Seconds(t0, *back));
  }
  return rtt;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

int RunServiceWorkload(uint64_t seed, double seconds, bool trace) {
  const char* name = "service-mixed";
  PrintStamp(name, seed, kServiceRows, trace);
  RunDir dir(name);
  Report report(trace);

  // Set-up: data file, server, dataset, tenants, wire endpoint. Repeated;
  // the last one serves the run.
  std::vector<double> setups;
  std::vector<double> add_dataset;
  Service service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service = Service{};
    Result<double> s = TimedSetup([&] {
      return StartService(dir.File("setup-" + std::to_string(i)), seed,
                          &service);
    });
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 2;
    }
    setups.push_back(*s);
    add_dataset.push_back(service.add_dataset_s);
  }
  const Dataset* dataset = service.server->dataset("census");
  const Schema& schema = dataset->schema();
  const double delta = 1e-4 * static_cast<double>(dataset->num_rows());

  // The marginal request: every 2-way marginal with at most 256 cells.
  std::vector<MarginalSpec> marginal_specs;
  {
    Result<std::vector<MarginalSpec>> all = AllKWaySpecs(schema, 2);
    if (!all.ok()) return 2;
    for (const MarginalSpec& spec : *all) {
      size_t cells = 1;
      for (const uint32_t a : spec.attributes) {
        cells *= schema.attribute(a).domain_size;
      }
      if (cells <= kMaxMarginalCells) marginal_specs.push_back(spec);
    }
  }
  // True tables, only to score the releases.
  Result<std::vector<Marginal>> true_tables =
      ComputeMarginals(*dataset, marginal_specs);
  if (!true_tables.ok()) return 2;
  Result<MarginalWorkload> truth = MarginalWorkload::Create(*true_tables);
  if (!truth.ok()) return 2;
  const size_t cells = truth->workload().num_queries();

  std::mt19937_64 rng(seed);
  uint64_t next_id = 1;
  std::vector<Planned> plan;
  const size_t saturated_plan =
      std::max(kMinRequests,
               static_cast<size_t>(kRequestsPerSecond * seconds)) /
      kMixBlock * kMixBlock;
  PlanPhase(kWarmup, 2 * kMixBlock, 0, schema, marginal_specs, delta, &rng,
            &next_id, &plan);
  PlanPhase(kSaturated, saturated_plan, 0, schema, marginal_specs, delta,
            &rng, &next_id, &plan);
  PlanPhase(kOverload,
            static_cast<size_t>(kOverloadRate * kOverloadSeconds), kOverloadRate,
            schema, marginal_specs, delta, &rng, &next_id, &plan);

  std::map<uint64_t, Clock::time_point> sent;
  std::map<Phase, PhaseRun> runs;
  runs.emplace(kWarmup, RunPhase(kWarmup, plan, 1, &service, &sent));
  runs.emplace(kSaturated,
               RunPhase(kSaturated, plan, kOutstanding, &service, &sent));
  runs.emplace(kOverload, RunPhase(kOverload, plan, 0, &service, &sent));
  const std::vector<double> pings = Pings(next_id, &service);
  report.Check(pings.size() == kPings, "ping round trips failed");
  for (const auto& [phase, run] : runs) {
    report.Check(run.complete,
                 "responses missing after phase " + std::to_string(phase));
  }
  const std::map<uint64_t, Connection::Arrival> arrivals =
      service.connection->TakeArrivals();

  // Per-request outcomes and the ε each tenant was charged.
  Tracer tracer(trace, runs.at(kWarmup).origin);
  std::vector<double> spent_by_tenant(kTenants, 0);
  std::vector<double> latency, release_latency, release_error, bytes;
  size_t saturated_ok = 0;
  size_t overload_sent = 0;
  size_t overload_shed = 0;
  for (const Planned& p : plan) {
    const auto send = sent.find(p.id);
    const auto arrival = arrivals.find(p.id);
    if (send == sent.end() || arrival == arrivals.end()) {
      report.Attempt(false);
      Report::OperationFailed("request " + std::to_string(p.id) +
                              " got no response");
      continue;
    }
    const Outcome o = CheckResponse(p, arrival->second.line,
                                    truth->workload(), cells, delta);
    const double latency_s = Seconds(send->second, arrival->second.at);
    // Measured-phase spans are the ones the per-layer self times report.
    static const char* const kPhaseName[] = {"warmup", "request", "overload"};
    tracer.Record(std::string(kPhaseName[p.phase]) +
                      (p.marginals ? ".marginals" : ".count"),
                  TenantName(p.tenant) + "#" + std::to_string(p.id),
                  send->second, arrival->second.at);
    // Overload sheds are admission control doing its job; anywhere else
    // a shed, like any error or failed check, is a failed operation.
    const bool expected_shed = p.phase == kOverload && o.shed;
    report.Attempt(o.ok || expected_shed);
    if (!o.ok && !expected_shed) {
      Report::OperationFailed("request " + std::to_string(p.id) + ": " +
                              o.error);
    }
    if (o.ok) spent_by_tenant[p.tenant] += o.epsilon;
    if (p.phase == kSaturated && o.ok) {
      ++saturated_ok;
      latency.push_back(latency_s);
      bytes.push_back(static_cast<double>(o.bytes));
      if (p.marginals) {
        release_latency.push_back(latency_s);
        release_error.push_back(o.overall_error);
      }
    }
    if (p.phase == kOverload) {
      ++overload_sent;
      if (o.shed) ++overload_shed;
    }
  }
  report.Check(overload_shed > 0, "the overload burst shed nothing");

  // Sheds charge nothing: each tenant's spend equals the ε of its OK
  // responses, live and after recovery from its journal.
  service.connection.reset();
  service.wire->Stop();
  for (int t = 0; t < kTenants; ++t) {
    Result<QueryServer::TenantBudget> budget =
        service.server->GetBudget(TenantName(t));
    report.Check(budget.ok() && NearlyEqual(budget->spent, spent_by_tenant[t]),
                 "tenant " + TenantName(t) +
                     " spend differs from the sum of its OK responses");
  }
  service.wire.reset();
  service.server.reset();
  {
    Result<Dataset> reopened = ReadColumnar(service.data_path);
    report.Check(reopened.ok(), "re-reading the served dataset");
    for (int t = 0; reopened.ok() && t < kTenants; ++t) {
      Result<PrivateQuerySession> resumed =
          PrivateQuerySession::ResumeWithJournal(
              &*reopened, TenantSeed(seed, t),
              service.journal_dir + "/" + TenantName(t) + ".journal");
      report.Check(resumed.ok() &&
                       NearlyEqual(resumed->spent(), spent_by_tenant[t]),
                   "tenant " + TenantName(t) +
                       " journal recovers a different spend");
    }
  }

  const PhaseRun& measured = runs.at(kSaturated);
  const double measured_s = Seconds(measured.origin, measured.end);
  const double p50_ms = 1000 * Median(latency);
  const double lag_p99_ms = 1000 * Percentile(measured.lag_s, 0.99);
  const PhaseRun& overload = runs.at(kOverload);
  std::printf("# loadgen: closed loop, %d outstanding: %zu requests in "
              "%.2f s (%.1f/s); overload burst %zu at %.0f/s scheduled, "
              "%.1f/s achieved, %zu shed; sender lag p99 %.3f ms\n",
              kOutstanding, measured.ids.size(), measured_s,
              measured.ids.size() / measured_s, overload_sent,
              kOverloadRate,
              overload.ids.size() < 2
                  ? 0
                  : (overload.ids.size() - 1) /
                        Seconds(sent.at(overload.ids.front()),
                                sent.at(overload.ids.back())),
              overload_shed, lag_p99_ms);
  report.Check(lag_p99_ms <= kMaxLagShareOfP50 * p50_ms,
               "invalid run: sender lag p99 exceeds " +
                   std::to_string(kMaxLagShareOfP50) + " of p50");

  if (!trace) {
    report.Set("setup_s", Median(setups));
    report.Set("release_s", Median(release_latency));
    report.Set("overall_error", Median(release_error));
    report.Set("p50_ms", p50_ms);
    report.Set("p99_ms", 1000 * TailLatency(latency));
    report.Set("saturated_qps", saturated_ok / measured_s);
    report.Set("peak_rss_mb", PeakRssMb());
  } else {
    const RegistryDelta& c = measured.counters;
    const QueryServerStats& s0 = measured.stats_before;
    const QueryServerStats& s1 = measured.stats_after;
    const uint64_t lookups =
        c.Count("marginals.cache_hits") + c.Count("marginals.cache_misses");
    const double request_ms = 1000 * c.Mean("server.request_seconds");
    report.Set("data.load_s", Median(add_dataset));
    report.Set("data.file_mb", fs::file_size(service.data_path) / 1e6);
    report.Set("marginals.tables_s", c.Mean("marginals.fused_seconds"));
    report.Set("marginals.rows_per_s",
               Ratio(c.Count("marginals.fused_rows"),
                     c.Sum("marginals.fused_seconds")));
    report.Set("marginals.cells", cells);
    report.Set("marginals.cache_hit_ratio",
               Ratio(c.Count("marginals.cache_hits"), lookups));
    report.Set("marginals.cache_lookups", lookups);
    report.Set("marginals.fused_passes", s1.fused_passes - s0.fused_passes);
    report.Set("algorithms.mechanism_s", c.Mean("ireduct.run_seconds"));
    report.Set("algorithms.iterations", c.Count("ireduct.iterations"));
    report.Set("algorithms.pick_s",
               Ratio(c.Sum("ireduct.pick_seconds"),
                     c.Observations("ireduct.run_seconds")));
    report.Set("algorithms.gs_full_recomputes",
               c.Count("ireduct.gs_full_recomputes"));
    report.Set("dp.resample_draws", c.Count("ireduct.resample_draws"));
    report.Set("dp.ns_per_draw", 1e9 * Ratio(c.Sum("ireduct.run_seconds"),
                                             c.Count("ireduct.resample_draws")));
    report.Set("dp.accept_ratio", Ratio(c.Count("noise_down.samples"),
                                        c.Count("noise_down.envelope_draws")));
    report.Set("dp.envelope_draws", c.Count("noise_down.envelope_draws"));
    report.Set("dp.journal_append_ms", 1000 * c.Mean("journal.append_seconds"));
    report.Set("dp.journal_fsync_ms", 1000 * c.Mean("journal.fsync_seconds"));
    report.Set("dp.journal_appends", c.Count("journal.appends"));
    report.Set("service.request_ms_mean", request_ms);
    report.Set("service.requests", c.Observations("server.request_seconds"));
    report.Set("service.mean_batch_width",
               Ratio(s1.admitted - s0.admitted, s1.batches - s0.batches));
    report.Set("service.batches", s1.batches - s0.batches);
    report.Set("service.max_batch_width", s1.max_batch_width);
    report.Set("service.shed_frac", Ratio(overload_shed, overload_sent));
    report.Set("service.overload_requests", overload_sent);
    report.Set("service.queue_depth_max", measured.queue_depth_max);
    double latency_mean = 0;
    for (const double l : latency) latency_mean += l / latency.size();
    report.Set("service.queue_wait_ms", 1000 * latency_mean - request_ms);
    report.Set("wire.ping_ms", 1000 * Median(pings));
    double bytes_mean = 0;
    for (const double b : bytes) bytes_mean += b / bytes.size();
    report.Set("wire.response_kb", bytes_mean / 1024);
    report.Set("common.pool_tasks", c.Count("thread_pool.tasks"));
    report.Set("common.pool_task_wait_ms",
               1000 * c.Mean("thread_pool.task_wait_seconds"));
    report.Set("loadgen.lag_ms_p99", lag_p99_ms);
    // Request spans are built from timestamps the untraced run takes as
    // well, so tracing adds no work on this workload.
    report.Set("trace.overhead_frac", 0);
    FinishTrace(tracer, name, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace ireduct

int main(int argc, char** argv) {
  using namespace ireduct;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: release_bench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  if (args.workload == kReleaseIReduct.name) {
    return RunReleaseWorkload(kReleaseIReduct, args.seed, args.seconds,
                              args.trace);
  }
  if (args.workload == kReleaseScan.name) {
    return RunReleaseWorkload(kReleaseScan, args.seed, args.seconds,
                              args.trace);
  }
  if (args.workload == "service-mixed") {
    return RunServiceWorkload(args.seed, args.seconds, args.trace);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
