// The NoiseDown resampling distribution (paper Section 4, the core of
// iReduct).
//
// Setting: Y = q(T) + Lap(λ) has already been published. We want a fresh,
// less-noisy estimate Y' that marginally follows q(T) + Lap(λ') with
// λ' < λ, *without* paying additional privacy budget for Y. Definition 5
// gives the conditional density of Y' given Y = y (Equation 6):
//
//   f_{μ,λ,λ'}(y' | y) ∝ (λ/λ') · exp(-|y'-μ|/λ') / exp(-|y-μ|/λ)
//                        · γ(λ', λ, y', y)
//   γ = 1/(4λ) · 1/(cosh(1/λ')-1)
//       · ( 2·cosh(1/λ')·e^{-|y-y'|/λ} - e^{-|y-y'-1|/λ} - e^{-|y-y'+1|/λ} )
//
// The key privacy property (Theorem 1(ii)) holds exactly and structurally:
// the joint density factors as
//   Lap(y; μ, λ) · f(y' | y) = Lap(y'; μ, λ') · γ(λ', λ, y', y) / Z
// with γ/Z independent of μ, so an adversary seeing the pair (Y, Y')
// learns no more than one seeing Y' alone, and the count-query privacy
// cost of the whole NoiseDown chain is 1/λ' up to O(1/λ'²).
//
// REPRODUCTION NOTES (verified analytically and numerically; see
// DESIGN.md):
//  * As printed, Equation 6's density does not integrate to 1 exactly — a
//    Fourier argument shows no smooth kernel in y-y' can make both
//    Theorem 1 claims exact (exactness needs an atom at y' = y; see
//    dp/laplace_coupling.h for that exact variant). We therefore implement
//    the *normalized* density f/Z with the normalizer Z in closed form.
//    The deficit |Z-1| is ≈ 0.03/λ' when the previous answer sits within
//    unit distance of the true answer (|y-μ| < 1) and O(1/λ'²) otherwise.
//    Consequences: (a) the pair (Y, Y') is (c/λ')-differentially private
//    with c ≤ ~1.06 rather than exactly 1; (b) the chain marginal deviates
//    from Lap(μ, λ') by O(1/λ'²) in Kolmogorov distance (the |y-μ| < 1
//    states have probability ~1/λ under the chain). At the paper's
//    operating scales (λ' = 10^4..10^6) both effects are invisible in
//    every experiment.
//  * Equation 9 (the mass θ2 of the segment (ξ, y-1]) as printed carries
//    an extra cosh(1/λ') factor that is inconsistent with Equation 6 (it
//    can exceed 1); we use the γ-consistent mass
//      θ2 = λ·(cosh(1/λ')-cosh(1/λ)) / (2(λ-λ')(cosh(1/λ')-1))
//           · (1 - e^{(1/λ'-1/λ)(ξ-y+1)}),
//    which matches the printed form with the spurious factor removed.
//
// Sampling (Figure 3): with μ ≤ y (the μ > y case is reduced by negating
// both), let ξ = min{μ, y-1}. The density is piecewise exponential on
// (-∞, ξ], (ξ, y-1] and [y+1, ∞) with closed-form masses θ1, θ2, θ3
// (Equations 8-10); on the middle interval (y-1, y+1) it is sampled by
// rejection under the constant envelope φ (Equation 11, Proposition 4).
//
// Everything is computed in numerically stable form: the experiments run
// at λ up to |T|/10 ≈ 10^6, where cosh(1/λ)-1 ≈ 5·10^-13 underflows to
// zero significant digits if evaluated naively.
#ifndef IREDUCT_DP_NOISE_DOWN_H_
#define IREDUCT_DP_NOISE_DOWN_H_

#include "common/random.h"
#include "common/result.h"

namespace ireduct {

class NoiseDownDistribution;

/// The (λ, λ')-only half of NoiseDown. In iReduct every query of a group
/// takes the same λ → λ' step, so the constants that depend on the scales
/// alone — cosh(1/λ')-1, cosh(1/λ')-cosh(1/λ), the tail rates, the
/// envelope's log prefix and the far-zone integral of the middle mass —
/// are computed once here and shared by every query bound to the step.
/// Every constant is kept as the exact IEEE subexpression the per-query
/// formulas use (never refactored algebraically), so sharing one step
/// across a group gives the same bits, and the same RNG consumption, as
/// a fresh step per query.
class NoiseDownStep {
 public:
  /// Requires 0 < lambda_prime < lambda, both finite.
  static Result<NoiseDownStep> Create(double lambda, double lambda_prime);

  /// The conditional distribution of Y' given Y = `y` for a query with
  /// true answer `mu` (both finite) under this step.
  Result<NoiseDownDistribution> Bind(double mu, double y) const;

  /// One draw of NoiseDown(mu, y, λ, λ') (Figure 3); the same value and
  /// RNG consumption as Bind(mu, y)->Sample(gen).
  Result<double> Sample(double mu, double y, BitGen& gen) const;

  double lambda() const { return lambda_; }
  double lambda_prime() const { return lambda_prime_; }

 private:
  friend class NoiseDownDistribution;

  // Everything that depends on (μ, y), in canonical (μ ≤ y) orientation.
  struct Query {
    double mu = 0;
    double y = 0;
    bool inverted = false;  // true when the caller's mu > y
    double xi = 0;
    double theta1 = 0;  // normalized segment masses
    double theta2 = 0;
    double theta3 = 0;
    double middle = 0;
    double normalization = 1;  // mass of the unnormalized density
    double log_phi = 0;
  };

  NoiseDownStep(double lambda, double lambda_prime);

  // Requires finite mu and y.
  Query MakeQuery(double mu, double y) const;

  // ∫ e^{s·d} g(d) dd over [p, q] with q <= 0 or p >= 0 (see MiddleMass).
  double GIntegral(double s, double p, double q) const;

  // Closed-form mass of the unnormalized density over (y-1, y+1), for
  // w = y - μ ≥ 0.
  double MiddleMass(double w) const;

  // Log of the unnormalized Equation 6 density in canonical orientation
  // (y_prime already negated if q.inverted).
  double CanonicalLogPdf(const Query& q, double y_prime) const;

  double Draw(const Query& q, BitGen& gen) const;

  double lambda_;
  double lambda_prime_;
  double a_;                // 1/λ
  double ap_;               // 1/λ'
  double c1_;               // cosh(1/λ') - 1
  double lambda_cd_;        // λ·(cosh(1/λ') - cosh(1/λ))
  double log_cd_;           // log(cosh(1/λ') - cosh(1/λ))
  double tail_rate_;        // 1/λ' + 1/λ
  double tail_denom_;       // 2(λ'+λ)·c1, Equations 8 and 10
  double tail_mean_;        // 1/(1/λ' + 1/λ)
  double mid_rate_;         // 1/λ' - 1/λ
  double mid_mean_;         // 1/(1/λ' - 1/λ)
  double theta2_coef_;      // Equation 9's coefficient
  double two_cosh_;         // 2·cosh(1/λ')
  double ema_;              // e^{-1/λ}
  double g_left_;           // GIntegral(1/λ', -1, 0)
  double g_far_;            // g_left_ + GIntegral(1/λ', 0, 1)
  double middle_denom_;     // 4λ'·c1
  double log_phi_prefix_;   // log φ without its (y-μ) terms
  double log_pdf_prefix_;   // -log(4λ') - log(c1)
};

/// The conditional distribution of the reduced-noise answer Y' given the
/// previous noisy answer Y = y (Definition 5), normalized exactly, with
/// full access to its density, segment masses and rejection envelope.
class NoiseDownDistribution {
 public:
  /// Parameters: `mu` is the true query answer q(T), `y` the previously
  /// published noisy answer, `lambda` its noise scale, and `lambda_prime`
  /// the reduced target scale. Requires 0 < lambda_prime < lambda.
  /// Equivalent to NoiseDownStep::Create(lambda, lambda_prime)->Bind(mu, y).
  static Result<NoiseDownDistribution> Create(double mu, double y,
                                              double lambda,
                                              double lambda_prime);

  /// Normalized conditional density f(y' | Y = y).
  double Pdf(double y_prime) const;

  /// log of Pdf; -infinity where the density is zero.
  double LogPdf(double y_prime) const;

  /// Mass of the left tail (-∞, ξ] (Equation 8, normalized), in canonical
  /// (μ ≤ y) orientation.
  double theta1() const { return q_.theta1; }
  /// Mass of (ξ, y-1] (Equation 9 with the γ-consistent coefficient,
  /// normalized); zero when ξ = y-1.
  double theta2() const { return q_.theta2; }
  /// Mass of the right tail [y+1, ∞) (Equation 10, normalized).
  double theta3() const { return q_.theta3; }
  /// Mass of the central interval (y-1, y+1), in closed form.
  double middle_mass() const { return q_.middle; }
  /// Total mass of the *unnormalized* Equation 6 density; equals
  /// 1 + O(1/λ'²) (see the reproduction notes above).
  double normalization() const { return q_.normalization; }
  /// Rejection envelope over the middle interval (Equation 11), for the
  /// unnormalized density (Proposition 4: raw f < φ there).
  double phi() const;
  /// ξ = min{μ, y-1} in canonical orientation.
  double xi() const { return q_.xi; }

  /// Draws one sample (Figure 3).
  double Sample(BitGen& gen) const;

  double mu() const { return q_.inverted ? -q_.mu : q_.mu; }
  double y() const { return q_.inverted ? -q_.y : q_.y; }
  double lambda() const { return step_.lambda(); }
  double lambda_prime() const { return step_.lambda_prime(); }

 private:
  friend class NoiseDownStep;

  NoiseDownDistribution(const NoiseDownStep& step,
                        const NoiseDownStep::Query& q)
      : step_(step), q_(q) {}

  NoiseDownStep step_;
  NoiseDownStep::Query q_;
};

/// The NoiseDown(μ, y, λ, λ') primitive of Figure 3: resamples a noisy
/// answer for a unit-sensitivity count query with true answer `mu`,
/// conditioned on the previous answer `y` at scale `lambda`, producing an
/// answer at the reduced scale `lambda_prime`.
Result<double> NoiseDown(double mu, double y, double lambda,
                         double lambda_prime, BitGen& gen);

/// Extension for queries whose per-tuple sensitivity is `step` rather than
/// 1: rescales the problem to unit step, applies NoiseDown, and scales
/// back. Equivalent to running Figure 3 with the ±1 shifts replaced by
/// ±step. Requires step > 0.
Result<double> NoiseDownWithStep(double mu, double y, double lambda,
                                 double lambda_prime, double step,
                                 BitGen& gen);

}  // namespace ireduct

#endif  // IREDUCT_DP_NOISE_DOWN_H_
