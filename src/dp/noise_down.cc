#include "dp/noise_down.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/numeric.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Rejection sampling under a valid envelope terminates quickly; this cap
// only guards against a catastrophic numeric breakdown.
constexpr int kMaxRejectionRounds = 1 << 24;

// ∫_p^q e^{s·d} dd, stable for tiny |s| (and exact for s = 0).
double ExpIntegral(double s, double p, double q) {
  if (s == 0.0) return q - p;
  return std::exp(s * p) * std::expm1(s * (q - p)) / s;
}
}  // namespace

Result<NoiseDownStep> NoiseDownStep::Create(double lambda,
                                            double lambda_prime) {
  if (!(lambda_prime > 0) || !std::isfinite(lambda_prime) ||
      !(lambda > lambda_prime) || !std::isfinite(lambda)) {
    return Status::InvalidArgument(
        "NoiseDown requires 0 < lambda_prime < lambda");
  }
  return NoiseDownStep(lambda, lambda_prime);
}

NoiseDownStep::NoiseDownStep(double lambda, double lambda_prime)
    : lambda_(lambda), lambda_prime_(lambda_prime) {
  a_ = 1.0 / lambda;
  ap_ = 1.0 / lambda_prime;
  c1_ = CoshMinusOne(ap_);
  const double cd = CoshDiff(ap_, a_);  // cosh(1/λ') - cosh(1/λ) > 0
  lambda_cd_ = lambda * cd;
  log_cd_ = std::log(cd);
  tail_rate_ = ap_ + a_;
  tail_denom_ = 2.0 * (lambda_prime + lambda) * c1_;
  tail_mean_ = 1.0 / tail_rate_;
  mid_rate_ = ap_ - a_;
  mid_mean_ = 1.0 / mid_rate_;
  theta2_coef_ = lambda_cd_ / (2.0 * (lambda - lambda_prime) * c1_);
  two_cosh_ = 2.0 * std::cosh(ap_);
  ema_ = std::exp(-a_);
  g_left_ = GIntegral(ap_, -1.0, 0.0);
  g_far_ = g_left_ + GIntegral(ap_, 0.0, 1.0);
  middle_denom_ = 4.0 * lambda_prime * c1_;
  // Equation 11 envelope over (y-1, y+1), in log form:
  //   φ = 1/(2λ') · (cosh(1/λ') - e^{-1/λ}) / (cosh(1/λ') - 1)
  //       · exp((y-μ)/λ - max{0, y-μ-1}/λ')
  // with cosh(1/λ') - e^{-1/λ} = (cosh(1/λ') - 1) + (1 - e^{-1/λ}). The
  // (y-μ) terms are added per query in MakeQuery.
  log_phi_prefix_ = -std::log(2.0 * lambda_prime) +
                    std::log(c1_ - std::expm1(-a_)) - std::log(c1_);
  // Equation 6 without γ's constant: the λ/λ' and 1/(4λ) prefactors
  // combine to 1/(4·λ').
  log_pdf_prefix_ = -std::log(4.0 * lambda_prime) - std::log(c1_);
}

Result<NoiseDownDistribution> NoiseDownStep::Bind(double mu, double y) const {
  if (!std::isfinite(mu) || !std::isfinite(y)) {
    return Status::InvalidArgument("NoiseDown requires finite mu and y");
  }
  return NoiseDownDistribution(*this, MakeQuery(mu, y));
}

Result<double> NoiseDownStep::Sample(double mu, double y, BitGen& gen) const {
  if (!std::isfinite(mu) || !std::isfinite(y)) {
    return Status::InvalidArgument("NoiseDown requires finite mu and y");
  }
  return Draw(MakeQuery(mu, y), gen);
}

NoiseDownStep::Query NoiseDownStep::MakeQuery(double mu, double y) const {
  Query q;
  // Figure 3, lines 1-3: reduce the mu > y case to mu <= y by negating both
  // coordinates (f_{mu}(y'|y) = f_{-mu}(-y'|-y)).
  q.inverted = mu > y;
  q.mu = q.inverted ? -mu : mu;
  q.y = q.inverted ? -y : y;
  q.xi = std::fmin(q.mu, q.y - 1);

  // Equation 8: mass of (-∞, ξ].
  const double theta1 =
      lambda_cd_ * std::exp(tail_rate_ * (q.xi - q.mu)) / tail_denom_;
  // Equation 9 with the γ-consistent coefficient (the printed equation
  // carries a spurious cosh(1/λ'); see the header notes): mass of
  // (ξ, y-1]. The trailing factor vanishes exactly when ξ = y-1.
  const double theta2 =
      theta2_coef_ * (-std::expm1(mid_rate_ * (q.xi - q.y + 1)));
  // Equation 10: mass of [y+1, ∞).
  const double theta3 =
      lambda_cd_ *
      std::exp((q.mu - q.y - 1) * ap_ - (q.mu - q.y + 1) * a_) / tail_denom_;
  const double middle = MiddleMass(q.y - q.mu);
  q.normalization = theta1 + theta2 + theta3 + middle;
  IREDUCT_DCHECK(q.normalization > 0);
  q.theta1 = theta1 / q.normalization;
  q.theta2 = theta2 / q.normalization;
  q.theta3 = theta3 / q.normalization;
  q.middle = middle / q.normalization;

  q.log_phi = log_phi_prefix_ + (q.y - q.mu) * a_ -
              std::fmax(0.0, q.y - q.mu - 1) * ap_;
  return q;
}

double NoiseDownStep::GIntegral(double s, double p, double q) const {
  const double abs_rate = (p >= 0) ? -a_ : a_;  // e^{-|d|/λ} on this side
  return two_cosh_ * ExpIntegral(s + abs_rate, p, q) -
         ema_ * (ExpIntegral(s + a_, p, q) + ExpIntegral(s - a_, p, q));
}

double NoiseDownStep::MiddleMass(double w) const {
  // Mass of the unnormalized Equation 6 density over (y-1, y+1), in
  // canonical orientation. Substituting d = y - y' ∈ (-1, 1) and writing
  // w = y - μ ≥ 0:
  //   f = K · e^{-|w-d|/λ'} · g(d),
  //   g(d) = 2·cosh(1/λ')·e^{-|d|/λ} - e^{-1/λ}·(e^{d/λ} + e^{-d/λ}),
  //   K = e^{w/λ} / (4·λ'·(cosh(1/λ')-1)) · ... (assembled below).
  // Each |·| resolves on fixed subintervals, so every piece is an
  // elementary exponential integral (GIntegral); the w-free ones are the
  // step's g_left_ and g_far_.
  //
  // The e^{w/λ} prefactor of Equation 6 is folded into the per-zone
  // weights so that w·(1/λ' - 1/λ) never overflows separately (the
  // combined exponents are all bounded above by w·(1/λ - 1/λ') <= 0 plus
  // an O(1/λ') term).
  const double near = std::exp(w * (a_ - ap_));
  double total;
  if (w >= 1.0) {
    // w - d > 0 throughout: weight e^{-(w-d)/λ'} = e^{-w/λ'} e^{d/λ'}.
    total = near * g_far_;
  } else {
    // Split at d = w where |w - d| flips (w ∈ [0, 1)).
    total = near * g_left_;
    if (w > 0) total += near * GIntegral(ap_, 0.0, w);
    total += std::exp(w * (a_ + ap_)) * GIntegral(-ap_, w, 1.0);
  }
  // Remaining prefactor of Equation 6: (λ/λ')·(1/(4λ))·(1/c1).
  return total / middle_denom_;
}

double NoiseDownStep::CanonicalLogPdf(const Query& q, double y_prime) const {
  const double ad = std::fabs(q.y - y_prime);

  // log of the bracketed term of γ (Equation 7):
  //   2·cosh(1/λ')·e^{-|d|/λ} - e^{-|d-1|/λ} - e^{-|d+1|/λ},  d = y - y'.
  double log_term;
  if (ad >= 1) {
    // Simplifies to 2·e^{-|d|/λ}·(cosh(1/λ') - cosh(1/λ)).
    log_term = std::log(2.0) - ad * a_ + log_cd_;
  } else {
    // Equals 2·e^{-|d|/λ}·B with
    //   B = (cosh(1/λ')-1) - e^{(|d|-1)/λ}·(cosh(d/λ)-1) - expm1((|d|-1)/λ),
    // every addend individually small-argument safe and B > 0.
    const double bracket = c1_ -
                           std::exp((ad - 1) * a_) * CoshMinusOne(ad * a_) -
                           std::expm1((ad - 1) * a_);
    if (!(bracket > 0)) return -kInf;
    log_term = std::log(2.0) - ad * a_ + std::log(bracket);
  }
  return log_pdf_prefix_ - std::fabs(y_prime - q.mu) * ap_ +
         std::fabs(q.y - q.mu) * a_ + log_term;
}

double NoiseDownStep::Draw(const Query& q, BitGen& gen) const {
  IREDUCT_METRIC_COUNT("noise_down.samples", 1);
  // Branch thresholds are the exact normalized segment masses.
  const double u = gen.Uniform();

  double yp;
  if (u < q.theta1) {
    // Left tail (-∞, ξ]: density ∝ exp(y'·(1/λ' + 1/λ)).
    yp = q.xi - gen.Exponential(tail_mean_);
  } else if (u < q.theta1 + q.theta2) {
    // Middle-left (ξ, y-1]: density ∝ exp(-y'·(1/λ' - 1/λ)).
    const double width = (q.y - 1) - q.xi;
    IREDUCT_DCHECK(width > 0);
    yp = q.xi + gen.TruncatedExponential(mid_mean_, 0.0, width);
  } else if (u > 1.0 - q.theta3) {
    // Right tail [y+1, ∞): density ∝ exp(-y'·(1/λ' + 1/λ)).
    yp = q.y + 1 + gen.Exponential(tail_mean_);
  } else {
    // Central interval (y-1, y+1): rejection under the constant envelope φ
    // (Proposition 4 guarantees raw f < φ there).
    int rounds = 0;
    for (;;) {
      yp = gen.Uniform(q.y - 1, q.y + 1);
      const double log_accept = CanonicalLogPdf(q, yp) - q.log_phi;
      if (std::log(gen.UniformPositive()) <= log_accept) break;
      IREDUCT_CHECK(++rounds < kMaxRejectionRounds);
    }
    // `rounds` counts only the rejected proposals; the accepted draw makes
    // it rounds + 1 envelope evaluations for this sample.
    IREDUCT_METRIC_COUNT("noise_down.rejection_rounds",
                         static_cast<uint64_t>(rounds));
    IREDUCT_METRIC_COUNT("noise_down.envelope_draws",
                         static_cast<uint64_t>(rounds) + 1);
  }
  return q.inverted ? -yp : yp;
}

Result<NoiseDownDistribution> NoiseDownDistribution::Create(
    double mu, double y, double lambda, double lambda_prime) {
  IREDUCT_ASSIGN_OR_RETURN(NoiseDownStep step,
                           NoiseDownStep::Create(lambda, lambda_prime));
  return step.Bind(mu, y);
}

double NoiseDownDistribution::phi() const { return std::exp(q_.log_phi); }

double NoiseDownDistribution::LogPdf(double y_prime) const {
  return step_.CanonicalLogPdf(q_, q_.inverted ? -y_prime : y_prime) -
         std::log(q_.normalization);
}

double NoiseDownDistribution::Pdf(double y_prime) const {
  return std::exp(LogPdf(y_prime));
}

double NoiseDownDistribution::Sample(BitGen& gen) const {
  return step_.Draw(q_, gen);
}

Result<double> NoiseDown(double mu, double y, double lambda,
                         double lambda_prime, BitGen& gen) {
  IREDUCT_ASSIGN_OR_RETURN(NoiseDownStep step,
                           NoiseDownStep::Create(lambda, lambda_prime));
  return step.Sample(mu, y, gen);
}

Result<double> NoiseDownWithStep(double mu, double y, double lambda,
                                 double lambda_prime, double step,
                                 BitGen& gen) {
  if (!(step > 0) || !std::isfinite(step)) {
    return Status::InvalidArgument("NoiseDown step must be positive finite");
  }
  // Rescale to unit step: x -> x/step maps Laplace(μ, λ) to
  // Laplace(μ/step, λ/step) and a ±step sensitivity to ±1.
  IREDUCT_ASSIGN_OR_RETURN(
      double scaled,
      NoiseDown(mu / step, y / step, lambda / step, lambda_prime / step, gen));
  return scaled * step;
}

}  // namespace ireduct
