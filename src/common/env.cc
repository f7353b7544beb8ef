#include "common/env.h"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

namespace ireduct {

namespace {

// Strictly parses a positive decimal integer; 0 when `raw` is not one.
int64_t ParsePositive(const char* raw) {
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed <= 0) return 0;
  return static_cast<int64_t>(parsed);
}

}  // namespace

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const int64_t parsed = ParsePositive(raw);
  return parsed > 0 ? parsed : fallback;
}

std::vector<int> EnvIntList(const char* name, std::vector<int> fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::vector<int> values;
  std::istringstream list{std::string(raw)};
  std::string entry;
  while (std::getline(list, entry, ',')) {
    const int64_t v = ParsePositive(entry.c_str());
    if (v > 0 && v <= std::numeric_limits<int>::max()) {
      values.push_back(static_cast<int>(v));
    }
  }
  return values.empty() ? std::move(fallback) : values;
}

double EnvNonNegativeDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || parsed < 0) return fallback;
  return parsed;
}

int EnvThreads() {
  return static_cast<int>(EnvInt64("IREDUCT_THREADS", 1));
}

}  // namespace ireduct
