// Crash matrix for checkpoint/resume: interrupt a refinement run at every
// checkpoint boundary, resume from the serialized bytes, and require the
// resumed run to be bit-identical to the uninterrupted one — same answers,
// scales, iteration counts and ε accounting. This is the property that
// makes re-execution after a crash free of additional privacy cost.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/iresamp.h"
#include "common/random.h"
#include "dp/checkpoint.h"
#include "dp/privacy_accountant.h"
#include "dp/workload.h"

namespace ireduct {
namespace {

constexpr uint64_t kSeed = 7;

Workload SkewedWorkload() {
  auto r = Workload::Create(
      {2, 3, 4, 5000, 6000, 7000},
      {QueryGroup{"tiny", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

IReductParams BaseParams() {
  IReductParams p;
  p.epsilon = 0.2;
  p.delta = 1.0;
  p.lambda_max = 1000;
  p.lambda_delta = 50;
  return p;
}

// Keeps the serialized bytes of every checkpoint — what a crash at any
// later point would leave on disk.
class CaptureSink : public CheckpointSink {
 public:
  Status Write(const RunCheckpoint& checkpoint) override {
    records_.push_back(SerializeCheckpoint(checkpoint));
    return Status::OK();
  }
  const std::vector<std::string>& records() const { return records_; }

 private:
  std::vector<std::string> records_;
};

void ExpectBitIdentical(const MechanismOutput& a, const MechanismOutput& b) {
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.group_scales, b.group_scales);
  EXPECT_EQ(a.epsilon_spent, b.epsilon_spent);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.resample_calls, b.resample_calls);
}

TEST(IReductResumeTest, CheckpointingDoesNotPerturbTheRun) {
  const Workload w = SkewedWorkload();
  BitGen plain_gen(kSeed);
  auto plain = RunIReduct(w, BaseParams(), plain_gen);
  ASSERT_TRUE(plain.ok()) << plain.status();

  CaptureSink capture;
  IReductParams p = BaseParams();
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  auto checkpointed = RunIReduct(w, p, gen);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
  ExpectBitIdentical(*plain, *checkpointed);
  EXPECT_EQ(capture.records().size(), plain->iterations);
}

TEST(IReductResumeTest, EveryBoundaryResumesBitIdentically) {
  const Workload w = SkewedWorkload();
  CaptureSink capture;
  IReductParams p = BaseParams();
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  auto baseline = RunIReduct(w, p, gen);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(capture.records().size(), 10u) << "matrix needs real coverage";

  double prev_epsilon = 0;
  for (size_t k = 0; k < capture.records().size(); ++k) {
    // A crash after boundary k leaves exactly these bytes; resume must
    // parse them and finish the run as if nothing happened.
    auto checkpoint = ParseCheckpoint(capture.records()[k]);
    ASSERT_TRUE(checkpoint.ok()) << "boundary " << k;
    // ε at the boundaries is monotone: recovery can only over-count.
    EXPECT_GE(checkpoint->epsilon_spent, prev_epsilon) << "boundary " << k;
    prev_epsilon = checkpoint->epsilon_spent;

    IReductParams rp = BaseParams();
    rp.resume = &*checkpoint;
    // The seed is deliberately wrong: resume must take its stream from the
    // checkpoint's engine words, not from the fresh generator.
    BitGen resume_gen(kSeed + 1000 + k);
    auto resumed = RunIReduct(w, rp, resume_gen);
    ASSERT_TRUE(resumed.ok()) << "boundary " << k << ": "
                              << resumed.status().ToString();
    ExpectBitIdentical(*baseline, *resumed);
  }
}

TEST(IReductResumeTest, BatchedRoundsResumeBitIdentically) {
  const Workload w = SkewedWorkload();
  CaptureSink capture;
  IReductParams p = BaseParams();
  p.batch_size = 4;
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 2;
  BitGen gen(kSeed);
  auto baseline = RunIReduct(w, p, gen);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(capture.records().size(), 2u);

  for (size_t k = 0; k < capture.records().size(); ++k) {
    auto checkpoint = ParseCheckpoint(capture.records()[k]);
    ASSERT_TRUE(checkpoint.ok());
    IReductParams rp = p;
    rp.checkpoint = CheckpointOptions{};
    rp.resume = &*checkpoint;
    BitGen resume_gen(kSeed + 1);
    auto resumed = RunIReduct(w, rp, resume_gen);
    ASSERT_TRUE(resumed.ok()) << "boundary " << k;
    ExpectBitIdentical(*baseline, *resumed);
  }
}

TEST(IReductResumeTest, LedgerEndsIdenticalAfterInterruption) {
  const Workload w = SkewedWorkload();

  // Uninterrupted journaled run: each boundary charges its ε growth.
  auto uninterrupted = PrivacyAccountant::Create(1.0);
  ASSERT_TRUE(uninterrupted.ok());
  CaptureSink capture;
  JournalingCheckpointSink journaled(&*uninterrupted, &capture);
  IReductParams p = BaseParams();
  p.checkpoint.sink = &journaled;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  auto baseline = RunIReduct(w, p, gen);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t boundaries = capture.records().size();
  ASSERT_GE(boundaries, 3u);

  for (const size_t k : {size_t{0}, boundaries / 2, boundaries - 1}) {
    // Crash after boundary k: the journal holds the first k+1 boundary
    // charges, the checkpoint file holds boundary k's state.
    auto recovered = PrivacyAccountant::Restore(
        1.0, std::vector<PrivacyCharge>(
                 uninterrupted->ledger().begin(),
                 uninterrupted->ledger().begin() + static_cast<long>(k) + 1));
    ASSERT_TRUE(recovered.ok());
    auto checkpoint = ParseCheckpoint(capture.records()[k]);
    ASSERT_TRUE(checkpoint.ok());
    // The recovered spend covers the checkpoint exactly — never less than
    // what the run actually consumed up to the boundary.
    EXPECT_EQ(recovered->spent(), checkpoint->epsilon_spent);

    CaptureSink resumed_capture;
    JournalingCheckpointSink resumed_journaled(&*recovered, &resumed_capture);
    IReductParams rp = BaseParams();
    rp.checkpoint.sink = &resumed_journaled;
    rp.checkpoint.every = 1;
    rp.resume = &*checkpoint;
    BitGen resume_gen(kSeed + 99);
    auto resumed = RunIReduct(w, rp, resume_gen);
    ASSERT_TRUE(resumed.ok()) << "boundary " << k;
    ExpectBitIdentical(*baseline, *resumed);
    // Bit-identical ledger totals: the interrupted-and-resumed pair of
    // processes paid exactly what the uninterrupted process paid.
    EXPECT_EQ(recovered->spent(), uninterrupted->spent()) << "boundary " << k;
  }
}

TEST(IReductResumeTest, ResumeRefusesForeignCheckpoint) {
  const Workload w = SkewedWorkload();
  CaptureSink capture;
  IReductParams p = BaseParams();
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  ASSERT_TRUE(RunIReduct(w, p, gen).ok());
  auto checkpoint = ParseCheckpoint(capture.records()[0]);
  ASSERT_TRUE(checkpoint.ok());

  // Same structure, different group name: a different workload.
  auto other = Workload::Create(
      {2, 3, 4, 5000, 6000, 7000},
      {QueryGroup{"renamed", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  ASSERT_TRUE(other.ok());
  IReductParams rp = BaseParams();
  rp.resume = &*checkpoint;
  BitGen resume_gen(kSeed);
  EXPECT_EQ(RunIReduct(*other, rp, resume_gen).status().code(),
            StatusCode::kInvalidArgument);

  // An iResamp checkpoint cannot resume an iReduct run.
  checkpoint->algorithm = "iresamp";
  EXPECT_EQ(RunIReduct(w, rp, resume_gen).status().code(),
            StatusCode::kInvalidArgument);
}

IResampParams BaseResampParams() {
  IResampParams p;
  p.epsilon = 0.2;
  p.delta = 1.0;
  p.lambda_max = 1000;
  return p;
}

TEST(IResampResumeTest, EveryBoundaryResumesBitIdentically) {
  const Workload w = SkewedWorkload();
  CaptureSink capture;
  IResampParams p = BaseResampParams();
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  auto baseline = RunIResamp(w, p, gen);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(capture.records().size(), 2u);

  for (size_t k = 0; k < capture.records().size(); ++k) {
    auto checkpoint = ParseCheckpoint(capture.records()[k]);
    ASSERT_TRUE(checkpoint.ok()) << "boundary " << k;
    IResampParams rp = BaseResampParams();
    rp.resume = &*checkpoint;
    BitGen resume_gen(kSeed + 1000 + k);
    auto resumed = RunIResamp(w, rp, resume_gen);
    ASSERT_TRUE(resumed.ok()) << "boundary " << k << ": "
                              << resumed.status().ToString();
    ExpectBitIdentical(*baseline, *resumed);
  }
}

TEST(IResampResumeTest, CheckpointingDoesNotPerturbTheRun) {
  const Workload w = SkewedWorkload();
  BitGen plain_gen(kSeed);
  auto plain = RunIResamp(w, BaseResampParams(), plain_gen);
  ASSERT_TRUE(plain.ok()) << plain.status();

  CaptureSink capture;
  IResampParams p = BaseResampParams();
  p.checkpoint.sink = &capture;
  p.checkpoint.every = 1;
  BitGen gen(kSeed);
  auto checkpointed = RunIResamp(w, p, gen);
  ASSERT_TRUE(checkpointed.ok());
  ExpectBitIdentical(*plain, *checkpointed);
}

}  // namespace
}  // namespace ireduct
