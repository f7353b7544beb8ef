#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace ireduct {
namespace {

constexpr const char* kVar = "IREDUCT_ENV_TEST";

// Sets kVar for the enclosing scope (nullptr = unset) and unsets it after.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    if (value == nullptr) {
      ::unsetenv(kVar);
    } else {
      ::setenv(kVar, value, 1);
    }
  }
  ~ScopedEnv() { ::unsetenv(kVar); }
};

// Gate knobs (EVAL_MIN_SPEEDUP, COLUMNAR_MIN_LOAD_SPEEDUP, ...): an explicit
// 0 disables the gate, so it must come back as 0; a negative value or
// garbage falls back to the default.
TEST(EnvTest, NonNegativeDoubleKeepsZeroAndFallsBackOnNegativeOrGarbage) {
  struct Case {
    const char* value;
    double want;
  };
  for (const Case& c : {Case{nullptr, 3.0}, Case{"", 3.0}, Case{"0", 0.0},
                        Case{"0.0", 0.0}, Case{"2.5", 2.5}, Case{"7", 7.0},
                        Case{"-1", 3.0}, Case{"-0.5", 3.0}, Case{"abc", 3.0},
                        Case{"1.5x", 3.0}, Case{" ", 3.0}}) {
    ScopedEnv env(c.value);
    EXPECT_EQ(EnvNonNegativeDouble(kVar, 3.0), c.want)
        << "value '" << (c.value ? c.value : "<unset>") << "'";
  }
}

// Integer knobs: only a positive integer overrides the default.
TEST(EnvTest, Int64FallsBackOnZeroNegativeOrGarbage) {
  struct Case {
    const char* value;
    int64_t want;
  };
  for (const Case& c : {Case{nullptr, 4}, Case{"", 4}, Case{"0", 4},
                        Case{"-3", 4}, Case{"12x", 4}, Case{"x", 4},
                        Case{"12", 12}, Case{"4000000", 4'000'000}}) {
    ScopedEnv env(c.value);
    EXPECT_EQ(EnvInt64(kVar, 4), c.want)
        << "value '" << (c.value ? c.value : "<unset>") << "'";
  }
}

TEST(EnvTest, IntListKeepsPositiveEntriesAndFallsBackWhenNoneSurvive) {
  const std::vector<int> fallback = {1, 2, 8};
  {
    ScopedEnv env(nullptr);
    EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  }
  {
    ScopedEnv env("");
    EXPECT_EQ(EnvIntList(kVar, fallback), fallback);
  }
  {
    ScopedEnv env("50000,200000");
    EXPECT_EQ(EnvIntList(kVar, fallback), (std::vector<int>{50'000, 200'000}));
  }
  {
    ScopedEnv env("4");
    EXPECT_EQ(EnvIntList(kVar, fallback), (std::vector<int>{4}));
  }
  {
    // Invalid entries are dropped, valid ones keep their order.
    ScopedEnv env("4,0,-3,x,,16,3000000000");
    EXPECT_EQ(EnvIntList(kVar, fallback), (std::vector<int>{4, 16}));
  }
  for (const char* none : {"0", "-1", "abc", ",", "0,-2"}) {
    ScopedEnv env(none);
    EXPECT_EQ(EnvIntList(kVar, fallback), fallback) << "value '" << none << "'";
  }
}

}  // namespace
}  // namespace ireduct
