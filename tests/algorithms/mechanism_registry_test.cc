#include "algorithms/mechanism_registry.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dp/workload.h"

namespace ireduct {
namespace {

TEST(MechanismSpecTest, ParsesBareName) {
  auto spec = MechanismSpec::Parse("ireduct");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "ireduct");
  EXPECT_TRUE(spec->params().empty());
  EXPECT_EQ(spec->ToString(), "ireduct");
}

TEST(MechanismSpecTest, ParsesParams) {
  auto spec =
      MechanismSpec::Parse("ireduct: lambda_steps=16 , objective=max_rel");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name(), "ireduct");
  ASSERT_EQ(spec->params().size(), 2u);
  auto steps = spec->GetInt("lambda_steps", 0);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(*steps, 16);
  EXPECT_EQ(spec->GetString("objective", ""), "max_rel");
  // Canonical rendering drops the whitespace and re-parses identically.
  EXPECT_EQ(spec->ToString(), "ireduct:lambda_steps=16,objective=max_rel");
  auto again = MechanismSpec::Parse(spec->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), spec->ToString());
}

TEST(MechanismSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(MechanismSpec::Parse("").ok());
  EXPECT_FALSE(MechanismSpec::Parse(":epsilon=1").ok());
  EXPECT_FALSE(MechanismSpec::Parse("ireduct:epsilon").ok());
  EXPECT_FALSE(MechanismSpec::Parse("ireduct:epsilon=").ok());
  EXPECT_FALSE(MechanismSpec::Parse("ireduct:=1").ok());
  EXPECT_FALSE(MechanismSpec::Parse("bad name:epsilon=1").ok());
  // Duplicate keys are a typo, not an override chain.
  EXPECT_FALSE(MechanismSpec::Parse("ireduct:epsilon=1,epsilon=2").ok());
}

TEST(MechanismSpecTest, DoubleRoundTripIsExact) {
  const double value = 0.07 * 0.01;  // not exactly representable in decimal
  MechanismSpec spec("dwork");
  spec.Set("epsilon", value);
  auto parsed = MechanismSpec::Parse(spec.ToString());
  ASSERT_TRUE(parsed.ok());
  auto back = parsed->GetDouble("epsilon", 0.0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, value);  // bitwise, not approximately
}

TEST(MechanismSpecTest, TypedGettersValidate) {
  auto spec = MechanismSpec::Parse("ireduct:epsilon=abc,lambda_steps=1.5");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->GetDouble("epsilon", 0.0).ok());
  EXPECT_FALSE(spec->GetInt("lambda_steps", 0).ok());
  auto missing = spec->GetDouble("delta", 7.5);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, 7.5);
}

TEST(MechanismSpecTest, SetDefaultKeepsExplicitValues) {
  MechanismSpec spec("dwork");
  spec.Set("epsilon", 2.0);
  spec.SetDefault("epsilon", 1.0);
  spec.SetDefault("other", "x");
  auto eps = spec.GetDouble("epsilon", 0.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(*eps, 2.0);
  EXPECT_EQ(spec.GetString("other", ""), "x");
}

TEST(MechanismSpecTest, FromJsonParsesNameAndParams) {
  auto spec = MechanismSpec::FromJson(
      R"({"name": "ireduct", "params": {"lambda_steps": 16,)"
      R"( "objective": "max_rel", "epsilon": 0.01}})");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name(), "ireduct");
  auto steps = spec->GetInt("lambda_steps", 0);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(*steps, 16);
  EXPECT_EQ(spec->GetString("objective", ""), "max_rel");
  auto eps = spec->GetDouble("epsilon", 0.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(*eps, 0.01);
  // Integer-looking JSON numbers keep their spelling.
  EXPECT_EQ(spec->GetString("lambda_steps", ""), "16");
}

TEST(MechanismSpecTest, FromJsonRejectsBadDocuments) {
  EXPECT_FALSE(MechanismSpec::FromJson("[]").ok());
  EXPECT_FALSE(MechanismSpec::FromJson(R"({"params": {}})").ok());
  EXPECT_FALSE(MechanismSpec::FromJson(R"({"name": 3})").ok());
  EXPECT_FALSE(
      MechanismSpec::FromJson(R"({"name": "dwork", "extra": 1})").ok());
  EXPECT_FALSE(
      MechanismSpec::FromJson(R"({"name": "dwork", "params": []})").ok());
  EXPECT_FALSE(MechanismSpec::FromJson(
                   R"({"name": "dwork", "params": {"epsilon": [1]}})")
                   .ok());
  EXPECT_FALSE(MechanismSpec::FromJson(R"({"name": "dwork"} trailing)").ok());
}

TEST(MechanismRegistryTest, GlobalHasAtLeastSixMechanismsInPaperOrder) {
  const std::vector<std::string> names = MechanismRegistry::Global().Names();
  ASSERT_GE(names.size(), 6u);
  // Paper reporting order first (Section 6 tables).
  EXPECT_EQ(names[0], "oracle");
  EXPECT_EQ(names[1], "ireduct");
  EXPECT_EQ(names[2], "two_phase");
  EXPECT_EQ(names[3], "iresamp");
  EXPECT_EQ(names[4], "dwork");
  for (const std::string& name : names) {
    const Mechanism* m = MechanismRegistry::Global().Find(name);
    ASSERT_NE(m, nullptr) << name;
    const MechanismInfo info = m->Describe();
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.display_name.empty()) << name;
    EXPECT_FALSE(info.summary.empty()) << name;
  }
}

TEST(MechanismRegistryTest, GetUnknownNamesKnownMechanisms) {
  auto missing = MechanismRegistry::Global().Get("no_such_mechanism");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("ireduct"), std::string::npos);
}

TEST(MechanismRegistryTest, ValidateSpecRejectsUnknownKeysAndWrongName) {
  const Mechanism* dwork = MechanismRegistry::Global().Find("dwork");
  ASSERT_NE(dwork, nullptr);
  auto typo = MechanismSpec::Parse("dwork:epslion=1");
  ASSERT_TRUE(typo.ok());
  const Status bad_key = dwork->ValidateSpec(*typo);
  ASSERT_FALSE(bad_key.ok());
  // The error teaches the accepted keys.
  EXPECT_NE(bad_key.message().find("epsilon"), std::string::npos);
  auto wrong = MechanismSpec::Parse("ireduct");
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(dwork->ValidateSpec(*wrong).ok());
}

TEST(MechanismRegistryTest, TwoPhaseRejectsConflictingBudgetForms) {
  const Mechanism* two_phase = MechanismRegistry::Global().Find("two_phase");
  ASSERT_NE(two_phase, nullptr);
  auto both = MechanismSpec::Parse("two_phase:epsilon=1,epsilon1=0.1");
  ASSERT_TRUE(both.ok());
  EXPECT_FALSE(two_phase->ValidateSpec(*both).ok());
  auto half = MechanismSpec::Parse("two_phase:epsilon1=0.1");
  ASSERT_TRUE(half.ok());
  EXPECT_FALSE(two_phase->ValidateSpec(*half).ok());
  auto split = MechanismSpec::Parse("two_phase:epsilon1=0.1,epsilon2=0.9");
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(two_phase->ValidateSpec(*split).ok());
}

TEST(MechanismRegistryTest, IReductRejectsBothLambdaForms) {
  const Mechanism* ireduct = MechanismRegistry::Global().Find("ireduct");
  ASSERT_NE(ireduct, nullptr);
  auto both =
      MechanismSpec::Parse("ireduct:lambda_delta=1,lambda_steps=10");
  ASSERT_TRUE(both.ok());
  EXPECT_FALSE(ireduct->ValidateSpec(*both).ok());
}

TEST(MechanismRegistryTest, SetSpecDefaultOnlyFillsDeclaredKeys) {
  const Mechanism* dwork = MechanismRegistry::Global().Find("dwork");
  ASSERT_NE(dwork, nullptr);
  MechanismSpec spec("dwork");
  dwork->SetSpecDefault(&spec, "epsilon", 0.5);
  dwork->SetSpecDefault(&spec, "lambda_max", 100.0);  // not declared
  EXPECT_TRUE(spec.Has("epsilon"));
  EXPECT_FALSE(spec.Has("lambda_max"));
  // A later default never overwrites.
  dwork->SetSpecDefault(&spec, "epsilon", 9.0);
  auto eps = spec.GetDouble("epsilon", 0.0);
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(*eps, 0.5);
}

Workload SmallWorkload() {
  auto w = Workload::Create(
      {40.0, 60.0, 5.0, 95.0},
      {QueryGroup{"a", 0, 2, 1.0}, QueryGroup{"b", 2, 4, 1.0}});
  EXPECT_TRUE(w.ok());
  return std::move(*w);
}

TEST(MechanismRegistryTest, RunDispatchesBySpecText) {
  const Workload w = SmallWorkload();
  BitGen gen(3);
  auto out = MechanismRegistry::Global().Run(w, "dwork:epsilon=0.5", gen);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->answers.size(), 4u);
  EXPECT_DOUBLE_EQ(out->epsilon_spent, 0.5);
  EXPECT_TRUE(out->is_private());
}

TEST(MechanismRegistryTest, RunRejectsInvalidSpecBeforeSampling) {
  const Workload w = SmallWorkload();
  BitGen gen(3);
  EXPECT_FALSE(
      MechanismRegistry::Global().Run(w, "dwork:bogus=1", gen).ok());
  EXPECT_FALSE(MechanismRegistry::Global().Run(w, "nope", gen).ok());
  EXPECT_FALSE(
      MechanismRegistry::Global()
          .Run(w, "ireduct:objective=warp_drive", gen)
          .ok());
  EXPECT_EQ(MechanismRegistry::Global()
                .Run(w, "ireduct:engine=naive", gen)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MechanismRegistryTest, NonPrivateBaselinesSaySo) {
  const Workload w = SmallWorkload();
  for (const char* name : {"oracle", "proportional"}) {
    const Mechanism* m = MechanismRegistry::Global().Find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->Describe().privacy, MechanismPrivacy::kNonPrivate) << name;
    BitGen gen(5);
    auto out = m->Run(w, MechanismSpec(name), gen);
    ASSERT_TRUE(out.ok()) << name;
    EXPECT_FALSE(out->is_private()) << name;
    EXPECT_TRUE(std::isinf(out->epsilon_spent)) << name;
  }
}

}  // namespace
}  // namespace ireduct
