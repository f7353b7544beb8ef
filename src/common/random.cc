#include "common/random.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/simd_kernels.h"

namespace ireduct {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

BitGen::BitGen(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // A zero state would lock the generator at zero; splitmix64 cannot emit
  // four zero words in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t BitGen::operator()() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double BitGen::Uniform() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double BitGen::UniformPositive() {
  return static_cast<double>(((*this)() >> 11) + 1) * 0x1.0p-53;
}

double BitGen::Uniform(double lo, double hi) {
  IREDUCT_DCHECK(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t BitGen::UniformInt(uint64_t n) {
  IREDUCT_DCHECK(n > 0);
  // Rejection to avoid modulo bias.
  const uint64_t threshold = (~uint64_t{0} - n + 1) % n;
  for (;;) {
    const uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double BitGen::Exponential(double mean) {
  IREDUCT_DCHECK(mean > 0);
  return -mean * std::log(UniformPositive());
}

double BitGen::Laplace(double scale) {
  IREDUCT_DCHECK(scale > 0);
  // Inverse-CDF: u in (-1/2, 1/2], x = -scale * sgn(u) * ln(1 - 2|u|).
  const double u = Uniform() - 0.5;
  const double sign = (u >= 0) ? 1.0 : -1.0;
  double mag = 2.0 * std::fabs(u);
  // log1p for accuracy near 0; avoid log(0) at the extreme.
  if (mag >= 1.0) mag = std::nextafter(1.0, 0.0);
  return -scale * sign * std::log1p(-mag);
}

double BitGen::Laplace(double mu, double scale) { return mu + Laplace(scale); }

double BitGen::TruncatedExponential(double mean, double lo, double hi) {
  IREDUCT_DCHECK(mean > 0);
  IREDUCT_DCHECK(lo < hi);
  if (std::isinf(hi)) {
    return lo + Exponential(mean);
  }
  // Inverse-CDF on [lo, hi]: F(x) = (1 - e^{-(x-lo)/mean}) / (1 - e^{-w/mean})
  // with w = hi - lo.  x = lo - mean * log1p(u * expm1(-w/mean)).
  const double w = hi - lo;
  const double u = Uniform();
  const double x = lo - mean * std::log1p(u * std::expm1(-w / mean));
  // Clamp against round-off at the boundaries.
  return std::fmin(std::fmax(x, lo), hi);
}

std::array<uint64_t, 4> BitGen::SaveState() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

BitGen BitGen::FromState(const std::array<uint64_t, 4>& state) {
  BitGen gen;
  for (int i = 0; i < 4; ++i) gen.s_[i] = state[i];
  // Preserve the all-zero guard of the seeding path.
  if ((gen.s_[0] | gen.s_[1] | gen.s_[2] | gen.s_[3]) == 0) gen.s_[0] = 1;
  return gen;
}

BitGen BitGen::Fork() { return BitGen((*this)()); }

namespace {

// Four lane substreams in fixed fork order: exactly simd::kBatchLanes
// parent draws, whatever the batch size.
simd::LaneStates ForkLanes(BitGen& gen) {
  simd::LaneStates states;
  for (auto& lane : states) lane = gen.Fork().SaveState();
  return states;
}

}  // namespace

void BitGen::LaplaceBatch(std::span<const size_t> run_ends,
                          std::span<const double> run_scales,
                          std::span<double> out) {
  IREDUCT_DCHECK(run_ends.size() == run_scales.size());
  IREDUCT_DCHECK(run_ends.empty() ? out.empty()
                                  : run_ends.back() == out.size());
  if (out.empty()) return;
  const simd::LaneStates states = ForkLanes(*this);
  simd::BatchLaplace(states, run_ends.data(), run_scales.data(),
                     run_ends.size(), out.data());
}

void BitGen::ExponentialBatch(double mean, std::span<double> out) {
  IREDUCT_DCHECK(mean > 0);
  if (out.empty()) return;
  const simd::LaneStates states = ForkLanes(*this);
  simd::BatchExponential(states, mean, out.data(), out.size());
}

bool BitGen::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return Uniform() < p;
}

}  // namespace ireduct
