#include "service/private_session.h"

#include <errno.h>
#include <sys/stat.h>

#include <cmath>
#include <cstring>

#include "algorithms/geometric.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {
// Refreshes the session.epsilon_remaining gauge when the request scope
// exits, whichever path (success, refusal, error) it exits through.
class BudgetGaugeUpdater {
 public:
  explicit BudgetGaugeUpdater(const PrivacyAccountant* accountant)
      : accountant_(accountant) {}
  ~BudgetGaugeUpdater() {
    (void)accountant_;  // the macro is empty in no-tracing builds
    IREDUCT_METRIC_GAUGE_SET("session.epsilon_remaining",
                             accountant_->remaining());
  }
  BudgetGaugeUpdater(const BudgetGaugeUpdater&) = delete;
  BudgetGaugeUpdater& operator=(const BudgetGaugeUpdater&) = delete;

 private:
  const PrivacyAccountant* accountant_;
};

// mkdir -p for the directory part of `path`: a fresh tenant's journal
// often lands under a per-tenant directory that does not exist yet, and
// LedgerJournal::Create's open(O_CREAT) cannot invent intermediate
// directories. Existing directories (including races with a concurrent
// creator) are fine.
Status EnsureParentDirectories(const std::string& path) {
  size_t slash = path.find('/', path[0] == '/' ? 1 : 0);
  while (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash);
    if (!dir.empty() && ::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IoError("cannot create directory '" + dir +
                             "': " + std::strerror(errno));
    }
    slash = path.find('/', slash + 1);
  }
  return Status::OK();
}
}  // namespace

Result<PrivateQuerySession> PrivateQuerySession::Create(
    const Dataset* dataset, double epsilon_budget, uint64_t seed) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must not be null");
  }
  IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                           PrivacyAccountant::Create(epsilon_budget));
  return PrivateQuerySession(
      dataset,
      std::make_unique<PrivacyAccountant>(std::move(accountant)), seed);
}

Result<PrivateQuerySession> PrivateQuerySession::CreateWithJournal(
    const Dataset* dataset, double epsilon_budget, uint64_t seed,
    const std::string& journal_path) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must not be null");
  }
  // Truncating a crashed session's journal would erase its spent-ε record
  // and double-spend the budget; an existing file must go through
  // ResumeWithJournal (or be deleted explicitly).
  if (struct stat st; ::stat(journal_path.c_str(), &st) == 0) {
    return Status::FailedPrecondition(
        "journal '" + journal_path +
        "' already exists; use ResumeWithJournal to continue that "
        "session, or delete the file to explicitly discard its ledger");
  }
  IREDUCT_RETURN_NOT_OK(EnsureParentDirectories(journal_path));
  IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                           PrivacyAccountant::Create(epsilon_budget));
  IREDUCT_ASSIGN_OR_RETURN(LedgerJournal journal,
                           LedgerJournal::Create(journal_path,
                                                 epsilon_budget));
  return PrivateQuerySession(
      dataset, std::make_unique<PrivacyAccountant>(std::move(accountant)),
      seed, std::make_unique<LedgerJournal>(std::move(journal)));
}

Result<PrivateQuerySession> PrivateQuerySession::ResumeWithJournal(
    const Dataset* dataset, uint64_t seed,
    const std::string& journal_path) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must not be null");
  }
  IREDUCT_ASSIGN_OR_RETURN(const LedgerJournal::Recovered recovered,
                           LedgerJournal::Recover(journal_path));
  IREDUCT_ASSIGN_OR_RETURN(PrivacyAccountant accountant,
                           LedgerJournal::Replay(recovered));
  if (recovered.torn_tail) {
    IREDUCT_LOG(kWarn) << "journal '" << journal_path
                       << "' ended in a torn grant; counting its epsilon "
                       << recovered.torn_epsilon
                       << " as spent and compacting";
  }
  // A torn tail cannot be appended after; compaction rewrites the
  // recovered state (torn liability included) as a fresh, fully
  // CRC-valid journal.
  IREDUCT_ASSIGN_OR_RETURN(
      LedgerJournal journal,
      recovered.torn_tail
          ? LedgerJournal::RewriteCompacted(journal_path, recovered)
          : LedgerJournal::OpenForAppend(journal_path));
  return PrivateQuerySession(
      dataset, std::make_unique<PrivacyAccountant>(std::move(accountant)),
      seed, std::make_unique<LedgerJournal>(std::move(journal)));
}

Result<double> PrivateQuerySession::CountQuery(const ConjunctiveQuery& query,
                                               double epsilon,
                                               CountNoise noise) {
  obs::EventSpan span("session.count_query");
  span.Field("epsilon", epsilon);
  IREDUCT_METRIC_COUNT("session.count_queries", 1);
  IREDUCT_SCOPED_TIMER(request_timer, "session.request_seconds");
  const BudgetGaugeUpdater budget_gauge(accountant_.get());
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive finite");
  }
  IREDUCT_ASSIGN_OR_RETURN(const double truth,
                           EvaluateQuery(*dataset_, query));
  // Charge before sampling; a refused charge must release nothing.
  IREDUCT_RETURN_NOT_OK(accountant_->Charge(
      "count " + query.ToString(dataset_->schema()), epsilon));
  if (noise == CountNoise::kLaplace) {
    // Per-tuple sensitivity 1 for a conjunctive count.
    return truth + gen_.Laplace(1.0 / epsilon);
  }
  IREDUCT_ASSIGN_OR_RETURN(const int64_t eta,
                           TwoSidedGeometric(std::exp(-epsilon), gen_));
  return std::round(truth) + static_cast<double>(eta);
}

Result<MarginalRelease> PrivateQuerySession::PublishMarginals(
    std::span<const MarginalSpec> specs, double epsilon, double delta,
    int lambda_steps) {
  return PublishMarginals(specs, MechanismSpec("ireduct"), epsilon, delta,
                          lambda_steps);
}

Result<MarginalRelease> PrivateQuerySession::PublishMarginals(
    std::span<const MarginalSpec> specs, MechanismSpec mechanism,
    double epsilon, double delta, int lambda_steps) {
  // The precomputed path consumes no session state (RNG, accountant)
  // before the shared implementation takes over, so computing the tables
  // up front keeps this overload bit-identical to the pre-refactor code.
  IREDUCT_ASSIGN_OR_RETURN(std::vector<Marginal> marginals,
                           ComputeMarginals(*dataset_, specs));
  return PublishMarginalsPrecomputed(std::move(marginals),
                                     std::move(mechanism), epsilon, delta,
                                     lambda_steps);
}

Result<MarginalRelease> PrivateQuerySession::PublishMarginalsPrecomputed(
    std::vector<Marginal> tables, MechanismSpec mechanism, double epsilon,
    double delta, int lambda_steps) {
  const size_t num_tables = tables.size();
  obs::EventSpan span("session.publish_marginals");
  span.Field("mechanism", mechanism.name());
  span.Field("epsilon", epsilon);
  span.Field("marginals", static_cast<uint64_t>(num_tables));
  IREDUCT_METRIC_COUNT("session.marginal_releases", 1);
  IREDUCT_SCOPED_TIMER(request_timer, "session.request_seconds");
  const BudgetGaugeUpdater budget_gauge(accountant_.get());
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive finite");
  }
  if (lambda_steps < 2) {
    return Status::InvalidArgument("lambda_steps must be >= 2");
  }
  IREDUCT_ASSIGN_OR_RETURN(const Mechanism* impl,
                           MechanismRegistry::Global().Get(mechanism.name()));
  const MechanismInfo info = impl->Describe();
  if (info.privacy != MechanismPrivacy::kPrivate) {
    return Status::InvalidArgument(
        "mechanism '" + info.name +
        "' is non-private and cannot release data through a session");
  }
  IREDUCT_RETURN_NOT_OK(impl->ValidateSpec(mechanism));
  // The spec may override the budget slice; pre-check against the value
  // the mechanism will actually see.
  impl->SetSpecDefault(&mechanism, "epsilon", epsilon);
  IREDUCT_ASSIGN_OR_RETURN(const double spec_epsilon,
                           mechanism.GetDouble("epsilon", epsilon));
  if (!(spec_epsilon > 0) || !std::isfinite(spec_epsilon)) {
    return Status::InvalidArgument("spec epsilon must be positive finite");
  }
  if (!accountant_->CanAfford(spec_epsilon)) {
    return Status::PrivacyBudgetExceeded(
        "marginal release does not fit the remaining budget");
  }
  IREDUCT_ASSIGN_OR_RETURN(MarginalWorkload workload,
                           MarginalWorkload::Create(std::move(tables)));
  // λmax: a tenth of the dataset, the paper's default reading of "the
  // largest amount of noise a user would accept".
  impl->SetSpecDefault(&mechanism, "delta", delta);
  impl->SetSpecDefault(
      &mechanism, "lambda_max",
      std::fmax(static_cast<double>(dataset_->num_rows()) / 10.0,
                2 * workload.workload().Sensitivity() / spec_epsilon));
  impl->SetSpecDefault(&mechanism, "lambda_steps",
                       std::string(std::to_string(lambda_steps)));
  IREDUCT_ASSIGN_OR_RETURN(MechanismOutput out,
                           impl->Run(workload.workload(), mechanism, gen_));
  if (!out.is_private()) {
    return Status::InvalidArgument(
        "mechanism '" + info.name +
        "' produced a non-private release; refusing to publish");
  }
  IREDUCT_RETURN_NOT_OK(accountant_->Charge(
      "marginal release (" + info.display_name + ")", out.epsilon_spent));
  span.Field("epsilon_spent", out.epsilon_spent);
  span.Field("iterations", static_cast<uint64_t>(out.iterations));
  IREDUCT_LOG(kInfo) << "published " << num_tables << " marginals via "
                     << info.display_name << " in " << out.iterations
                     << " iterations for epsilon " << out.epsilon_spent
                     << " (remaining " << accountant_->remaining() << ")";
  MarginalRelease release;
  release.epsilon_spent = out.epsilon_spent;
  IREDUCT_ASSIGN_OR_RETURN(release.marginals,
                           workload.ToMarginals(out.answers));
  return release;
}

Result<NoiseDownChain> PrivateQuerySession::StartRefinableCount(
    const ConjunctiveQuery& query, double initial_scale) {
  obs::EventSpan span("session.start_refinable_count");
  span.Field("initial_scale", initial_scale);
  // The up-front charge is sensitivity/scale (chain start at exact
  // coupling slack 1).
  span.Field("epsilon", initial_scale > 0 ? 1.0 / initial_scale : 0.0);
  IREDUCT_METRIC_COUNT("session.refinable_counts", 1);
  IREDUCT_SCOPED_TIMER(request_timer, "session.request_seconds");
  const BudgetGaugeUpdater budget_gauge(accountant_.get());
  IREDUCT_ASSIGN_OR_RETURN(const double truth,
                           EvaluateQuery(*dataset_, query));
  NoiseDownChainOptions options;
  options.sensitivity = 1.0;
  options.reducer = ChainReducer::kExactCoupling;
  return NoiseDownChain::Start(truth, initial_scale, options, *accountant_,
                               gen_);
}

}  // namespace ireduct
