#include "service/query_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "data/columnar.h"
#include "marginals/marginal_cache.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

// Batch-width histogram bounds: powers of two 1..128. Must match the
// registration in RegisterStandardMetrics (both call ExponentialBuckets
// with these arguments).
std::span<const double> BatchWidthBounds() {
  static const std::vector<double> bounds =
      obs::ExponentialBuckets(1, 2, 8);
  return bounds;
}

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    QueryServerConfig config) {
  if (config.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1");
  }
  if (config.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (config.max_inflight_per_tenant < 1) {
    return Status::InvalidArgument("max_inflight_per_tenant must be >= 1");
  }
  if (config.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (config.retry_after_ms < 0) {
    return Status::InvalidArgument("retry_after_ms must be >= 0");
  }
  return std::unique_ptr<QueryServer>(new QueryServer(std::move(config)));
}

QueryServer::QueryServer(QueryServerConfig config)
    : config_(std::move(config)), pool_(config_.workers) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  queue_drained_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher exited without draining; every still-queued request
  // must resolve or its waiters would hang on a broken promise.
  for (Request& request : queue_) {
    Reject(request, Status::FailedPrecondition("query server stopped"));
  }
}

Status QueryServer::AddDataset(const std::string& name, Dataset dataset) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  const uint64_t fingerprint = dataset.Fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.count(name) != 0) {
    return Status::FailedPrecondition("dataset '" + name +
                                      "' already registered");
  }
  datasets_.emplace(name, DatasetState{std::move(dataset), fingerprint});
  return Status::OK();
}

Status QueryServer::AddDatasetFile(const std::string& name,
                                   const std::string& path) {
  IREDUCT_ASSIGN_OR_RETURN(ColumnarFile file, ColumnarFile::Open(path));
  IREDUCT_ASSIGN_OR_RETURN(Dataset dataset, file.ToDataset());
  // The file header records the content fingerprint, so registering an
  // mmap-backed dataset costs no extra full scan.
  const uint64_t fingerprint = file.fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.count(name) != 0) {
    return Status::FailedPrecondition("dataset '" + name +
                                      "' already registered");
  }
  datasets_.emplace(name, DatasetState{std::move(dataset), fingerprint});
  return Status::OK();
}

const Dataset* QueryServer::dataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second.dataset;
}

Status QueryServer::OpenTenant(const std::string& tenant,
                               const std::string& dataset_name,
                               double epsilon_budget, uint64_t seed) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto ds = datasets_.find(dataset_name);
  if (ds == datasets_.end()) {
    return Status::NotFound("dataset '" + dataset_name + "' is not registered");
  }
  if (tenants_.count(tenant) != 0) {
    return Status::FailedPrecondition("tenant '" + tenant +
                                      "' is already open");
  }
  auto state = std::make_unique<TenantState>();
  state->name = tenant;
  state->dataset_name = dataset_name;
  state->fingerprint = ds->second.fingerprint;
  state->dataset = &ds->second.dataset;
  if (config_.journal_dir.empty()) {
    IREDUCT_ASSIGN_OR_RETURN(
        PrivateQuerySession session,
        PrivateQuerySession::Create(state->dataset, epsilon_budget, seed));
    state->session =
        std::make_unique<PrivateQuerySession>(std::move(session));
  } else {
    IREDUCT_ASSIGN_OR_RETURN(
        PrivateQuerySession session,
        PrivateQuerySession::CreateWithJournal(
            state->dataset, epsilon_budget, seed,
            config_.journal_dir + "/" + tenant + ".journal"));
    state->session =
        std::make_unique<PrivateQuerySession>(std::move(session));
  }
  tenants_.emplace(tenant, std::move(state));
  IREDUCT_METRIC_GAUGE_SET("server.tenants",
                           static_cast<double>(tenants_.size()));
  IREDUCT_LOG(kInfo) << "opened tenant '" << tenant << "' on dataset '"
                     << dataset_name << "' with budget " << epsilon_budget;
  return Status::OK();
}

Status QueryServer::ResumeTenant(const std::string& tenant,
                                 const std::string& dataset_name,
                                 uint64_t seed) {
  if (config_.journal_dir.empty()) {
    return Status::FailedPrecondition(
        "ResumeTenant requires a journaled server (config.journal_dir)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto ds = datasets_.find(dataset_name);
  if (ds == datasets_.end()) {
    return Status::NotFound("dataset '" + dataset_name + "' is not registered");
  }
  if (tenants_.count(tenant) != 0) {
    return Status::FailedPrecondition("tenant '" + tenant +
                                      "' is already open");
  }
  auto state = std::make_unique<TenantState>();
  state->name = tenant;
  state->dataset_name = dataset_name;
  state->fingerprint = ds->second.fingerprint;
  state->dataset = &ds->second.dataset;
  IREDUCT_ASSIGN_OR_RETURN(
      PrivateQuerySession session,
      PrivateQuerySession::ResumeWithJournal(
          state->dataset, seed,
          config_.journal_dir + "/" + tenant + ".journal"));
  state->session = std::make_unique<PrivateQuerySession>(std::move(session));
  tenants_.emplace(tenant, std::move(state));
  IREDUCT_METRIC_GAUGE_SET("server.tenants",
                           static_cast<double>(tenants_.size()));
  return Status::OK();
}

Result<QueryServer::TenantBudget> QueryServer::GetBudget(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("tenant '" + tenant + "' is not open");
  }
  TenantBudget out;
  out.budget = it->second->session->budget();
  out.spent = it->second->session->spent();
  out.remaining = it->second->session->remaining();
  return out;
}

void QueryServer::Reject(Request& request, Status status) {
  if (request.kind == RequestKind::kMarginals) {
    request.marginals_promise.set_value(std::move(status));
  } else {
    request.count_promise.set_value(std::move(status));
  }
}

void QueryServer::Admit(const std::string& tenant_name, Request request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    lock.unlock();
    Reject(request, Status::FailedPrecondition("query server stopped"));
    return;
  }
  const auto it = tenants_.find(tenant_name);
  if (it == tenants_.end()) {
    lock.unlock();
    Reject(request,
           Status::NotFound("tenant '" + tenant_name + "' is not open"));
    return;
  }
  TenantState* tenant = it->second.get();
  const char* shed_reason = nullptr;
  if (queue_.size() >= config_.max_queue) {
    ++stats_.shed_queue_full;
    IREDUCT_METRIC_COUNT("server.shed_queue_full", 1);
    shed_reason = "queue_full";
  } else if (tenant->inflight >= config_.max_inflight_per_tenant) {
    ++stats_.shed_tenant_cap;
    IREDUCT_METRIC_COUNT("server.shed_tenant_cap", 1);
    shed_reason = "tenant_cap";
  }
  if (shed_reason != nullptr) {
    const size_t depth = queue_.size();
    lock.unlock();
    if (obs::EventLog* log = obs::EventLog::Get()) {
      log->Emit("server.shed", {{"tenant", tenant_name},
                                {"reason", shed_reason},
                                {"queue_depth", static_cast<uint64_t>(depth)}});
    }
    // Shed before the request touches a session: nothing has been charged
    // and nothing will be — the caller can retry verbatim.
    Reject(request,
           Status::ResourceExhausted(
               std::string("admission rejected (") + shed_reason +
               "); retry after " + std::to_string(config_.retry_after_ms) +
               "ms"));
    return;
  }
  request.tenant = tenant;
  ++tenant->inflight;
  ++stats_.admitted;
  queue_.push_back(std::move(request));
  IREDUCT_METRIC_COUNT("server.admitted", 1);
  IREDUCT_METRIC_GAUGE_SET("server.queue_depth",
                           static_cast<double>(queue_.size()));
  lock.unlock();
  work_ready_.notify_one();
}

std::future<Result<MarginalRelease>> QueryServer::SubmitMarginals(
    const std::string& tenant, std::vector<MarginalSpec> specs,
    MechanismSpec mechanism, double epsilon, double delta, int lambda_steps) {
  Request request;
  request.kind = RequestKind::kMarginals;
  request.specs = std::move(specs);
  request.mechanism = std::move(mechanism);
  request.epsilon = epsilon;
  request.delta = delta;
  request.lambda_steps = lambda_steps;
  std::future<Result<MarginalRelease>> future =
      request.marginals_promise.get_future();
  Admit(tenant, std::move(request));
  return future;
}

std::future<Result<double>> QueryServer::SubmitCount(const std::string& tenant,
                                                     ConjunctiveQuery query,
                                                     double epsilon) {
  Request request;
  request.kind = RequestKind::kCount;
  request.query = std::move(query);
  request.epsilon = epsilon;
  std::future<Result<double>> future = request.count_promise.get_future();
  Admit(tenant, std::move(request));
  return future;
}

Result<MarginalRelease> QueryServer::PublishMarginals(
    const std::string& tenant, std::vector<MarginalSpec> specs,
    MechanismSpec mechanism, double epsilon, double delta, int lambda_steps) {
  return SubmitMarginals(tenant, std::move(specs), std::move(mechanism),
                         epsilon, delta, lambda_steps)
      .get();
}

Result<double> QueryServer::CountQuery(const std::string& tenant,
                                       ConjunctiveQuery query,
                                       double epsilon) {
  return SubmitCount(tenant, std::move(query), epsilon).get();
}

void QueryServer::Pause() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  work_ready_.notify_all();
}

void QueryServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_ready_.notify_all();
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  queue_drained_.wait(lock, [this] {
    return stopping_ || (queue_.empty() && executing_ == 0);
  });
}

QueryServerStats QueryServer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryServerStats out = stats_;
  out.queue_depth = queue_.size();
  out.num_tenants = tenants_.size();
  out.num_datasets = datasets_.size();
  return out;
}

void QueryServer::DispatcherLoop() {
  while (true) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;
      const size_t width =
          config_.batching ? std::min(queue_.size(), config_.max_batch)
                           : size_t{1};
      batch.reserve(width);
      for (size_t i = 0; i < width; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      executing_ += batch.size();
      ++stats_.batches;
      stats_.max_batch_width =
          std::max<uint64_t>(stats_.max_batch_width, batch.size());
      IREDUCT_METRIC_GAUGE_SET("server.queue_depth",
                               static_cast<double>(queue_.size()));
    }
    IREDUCT_METRIC_COUNT("server.batches", 1);
    IREDUCT_METRIC_OBSERVE_BUCKETS("server.batch_width",
                                   static_cast<double>(batch.size()),
                                   BatchWidthBounds());
    ExecuteBatch(std::move(batch));
  }
}

void QueryServer::ExecuteBatch(std::vector<Request> batch) {
  // Phase A — coalesce the marginal requests by dataset fingerprint and
  // derive every request's *true* tables in one fused pass per dataset,
  // shared through the process-wide MarginalCache. True tables are
  // deterministic integer counts with an exact parity guarantee against
  // Marginal::Compute, so precomputing them here cannot change a single
  // response byte; it only removes redundant full-dataset scans.
  std::vector<std::optional<std::vector<Marginal>>> precomputed(batch.size());
  uint64_t fused_groups = 0;
  if (config_.batching) {
    // fingerprint → indices of batch requests that read that dataset.
    std::map<uint64_t, std::vector<size_t>> groups;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].kind == RequestKind::kMarginals) {
        groups[batch[i].tenant->fingerprint].push_back(i);
      }
    }
    for (const auto& [fingerprint, members] : groups) {
      // Union of the group's specs, first-seen order, deduplicated on the
      // attribute list (the cache key); every request's tables are copies
      // sliced back out of the union result.
      std::vector<MarginalSpec> union_specs;
      std::map<std::vector<uint32_t>, size_t> spec_index;
      for (const size_t i : members) {
        for (const MarginalSpec& spec : batch[i].specs) {
          if (spec_index.emplace(spec.attributes, union_specs.size()).second) {
            union_specs.push_back(spec);
          }
        }
      }
      const Dataset* dataset = batch[members.front()].tenant->dataset;
      Result<std::vector<Marginal>> tables =
          MarginalCache::Global().GetOrCompute(fingerprint, *dataset,
                                               union_specs, &pool_);
      if (!tables.ok()) {
        // A bad spec anywhere in the union poisons the fused pass; fall
        // back to the classic per-request path so each request reports
        // its own error (identical to unbatched behavior).
        continue;
      }
      ++fused_groups;
      for (const size_t i : members) {
        std::vector<Marginal> mine;
        mine.reserve(batch[i].specs.size());
        for (const MarginalSpec& spec : batch[i].specs) {
          mine.push_back((*tables)[spec_index.at(spec.attributes)]);
        }
        precomputed[i] = std::move(mine);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.fused_passes += fused_groups;
  }
  if (obs::EventLog* log = obs::EventLog::Get()) {
    log->Emit("server.batch",
              {{"width", static_cast<uint64_t>(batch.size())},
               {"fused_groups", fused_groups}});
  }

  // Phase B — resolve every request strictly in admission order on this
  // one thread. Each session's RNG and accountant are consumed exactly as
  // a serial per-tenant run would consume them, which is the whole
  // determinism contract.
  for (size_t i = 0; i < batch.size(); ++i) {
    IREDUCT_SCOPED_TIMER(request_timer, "server.request_seconds");
    ExecuteOne(batch[i],
               precomputed[i].has_value() ? &*precomputed[i] : nullptr);
    FinishRequest(batch[i].tenant);
  }
}

void QueryServer::ExecuteOne(Request& request,
                             std::vector<Marginal>* precomputed) {
  PrivateQuerySession* session = request.tenant->session.get();
  if (request.kind == RequestKind::kCount) {
    request.count_promise.set_value(
        session->CountQuery(request.query, request.epsilon));
    return;
  }
  if (precomputed != nullptr) {
    request.marginals_promise.set_value(session->PublishMarginalsPrecomputed(
        std::move(*precomputed), std::move(request.mechanism),
        request.epsilon, request.delta, request.lambda_steps));
  } else {
    request.marginals_promise.set_value(session->PublishMarginals(
        request.specs, std::move(request.mechanism), request.epsilon,
        request.delta, request.lambda_steps));
  }
}

void QueryServer::FinishRequest(TenantState* tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  --tenant->inflight;
  --executing_;
  ++stats_.completed;
  if (queue_.empty() && executing_ == 0) {
    queue_drained_.notify_all();
  }
}

}  // namespace ireduct
