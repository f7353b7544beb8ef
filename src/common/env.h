// Environment-variable knobs shared by the bench harnesses and the
// evaluation layer (TRIALS, CENSUS_ROWS, IREDUCT_STEPS, IREDUCT_THREADS...).
#ifndef IREDUCT_COMMON_ENV_H_
#define IREDUCT_COMMON_ENV_H_

#include <cstdint>
#include <vector>

namespace ireduct {

/// Reads a positive integer environment variable, or returns `fallback` if
/// unset/invalid (non-numeric, trailing garbage, or <= 0).
int64_t EnvInt64(const char* name, int64_t fallback);

/// Reads a comma-separated list of positive ints ("1,2,8"). Entries that
/// are not a positive int are skipped; returns `fallback` if the variable
/// is unset/empty or no entry survives.
std::vector<int> EnvIntList(const char* name, std::vector<int> fallback);

/// Reads a non-negative double environment variable, or returns `fallback`
/// if unset/invalid (non-numeric, trailing garbage, or < 0). An explicit 0
/// is returned as 0, so gate knobs can use it to mean "disabled".
double EnvNonNegativeDouble(const char* name, double fallback);

/// The IREDUCT_THREADS knob: worker count for the evaluation layer's
/// parallel paths (fused marginal evaluation, parallel trials). Defaults
/// to 1 — every parallel path is bit-identical to its sequential
/// counterpart, so the knob only trades wall-clock.
int EnvThreads();

}  // namespace ireduct

#endif  // IREDUCT_COMMON_ENV_H_
