// Focused unit tests for protocol details: vcBlock fork resolution,
// message wire-size/cost modeling, campaign digests, and PoW calibration
// against the paper's reported numbers.

#include <gtest/gtest.h>

#include "core/messages.h"
#include "crypto/pow.h"
#include "ledger/block_store.h"
#include "types/client_messages.h"

namespace prestige {
namespace {

// ------------------------------------------------------- fork resolution

ledger::VcBlock Vc(types::View v, types::ReplicaId leader,
                   const crypto::Sha256Digest& prev) {
  ledger::VcBlock b;
  b.set_v(v);
  b.set_leader(leader);
  b.set_confirmed_view(v - 1);
  b.set_prev_hash(prev);
  for (types::ReplicaId r = 0; r < 4; ++r) {
    b.SetPenalty(r, 1);
    b.SetCompensation(r, 1);
  }
  return b;
}

class ForkResolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.AppendVcBlock(Vc(1, 0, {})).ok());
    ASSERT_TRUE(
        store_.AppendVcBlock(Vc(2, 1, store_.LatestVcBlock()->Digest()))
            .ok());
  }
  ledger::BlockStore store_;
};

TEST_F(ForkResolutionTest, DirectAppendStillWorks) {
  EXPECT_TRUE(store_
                  .AppendVcBlockResolvingFork(
                      Vc(3, 2, store_.LatestVcBlock()->Digest()))
                  .ok());
  EXPECT_EQ(store_.CurrentView(), 3);
}

TEST_F(ForkResolutionTest, HigherViewSiblingUnwindsTail) {
  // Competing elections: block at view 3 extends view 1's block (its
  // proposer never saw view 2). Higher view wins; view 2 unwinds.
  const crypto::Sha256Digest v1_digest = store_.VcBlockFor(1)->Digest();
  ledger::VcBlock fork = Vc(3, 2, v1_digest);
  EXPECT_TRUE(store_.AppendVcBlockResolvingFork(fork).ok());
  EXPECT_EQ(store_.CurrentView(), 3);
  EXPECT_EQ(store_.VcBlockFor(2), nullptr);  // Unwound.
  EXPECT_EQ(store_.LatestVcBlock()->leader(), 2u);
}

TEST_F(ForkResolutionTest, LowerViewSiblingRejected) {
  const crypto::Sha256Digest v1_digest = store_.VcBlockFor(1)->Digest();
  // A sibling at the same view as the tip cannot replace it.
  ledger::VcBlock fork = Vc(2, 3, v1_digest);
  EXPECT_TRUE(store_.AppendVcBlockResolvingFork(fork).IsCorruption());
  EXPECT_EQ(store_.LatestVcBlock()->leader(), 1u);
}

TEST_F(ForkResolutionTest, UnknownParentRejected) {
  crypto::Sha256Digest bogus{};
  bogus[0] = 0x42;
  EXPECT_TRUE(
      store_.AppendVcBlockResolvingFork(Vc(5, 2, bogus)).IsCorruption());
}

TEST_F(ForkResolutionTest, UnwindDepthBounded) {
  // Build a longer chain, then try to fork from far below max_unwind.
  crypto::Sha256Digest deep_parent = store_.VcBlockFor(1)->Digest();
  for (types::View v = 3; v <= 12; ++v) {
    ASSERT_TRUE(
        store_.AppendVcBlock(Vc(v, 0, store_.LatestVcBlock()->Digest()))
            .ok());
  }
  EXPECT_TRUE(store_
                  .AppendVcBlockResolvingFork(Vc(20, 1, deep_parent),
                                              /*max_unwind=*/4)
                  .IsCorruption());
}

// ------------------------------------------------------- message modeling

TEST(MessageModelTest, OrdCarriesBatchBytes) {
  core::OrdMsg ord;
  std::vector<types::Transaction> txs;
  for (int i = 0; i < 10; ++i) {
    types::Transaction tx;
    tx.payload_size = 32;
    tx.client_seq = static_cast<uint64_t>(i);
    txs.push_back(tx);
  }
  ord.txs = std::move(txs);
  // 10 * (32 + 72 header) payload + message header + signature.
  EXPECT_EQ(ord.WireSize(), 10 * (32 + 72) + core::kHeaderBytes + core::kSigBytes);
  EXPECT_EQ(ord.NumSigVerifies(), 1);
}

TEST(MessageModelTest, QcMessagesAreConstantSize) {
  core::CmtMsg cmt;
  const size_t empty_qc_size = cmt.WireSize();
  // Fill the QC with many partials: wire size must not change (threshold
  // signatures are O(1) on the wire — §4.1).
  for (uint32_t i = 0; i < 67; ++i) {
    cmt.ordering_qc.partials.push_back(crypto::Signature{i, {}});
  }
  EXPECT_EQ(cmt.WireSize(), empty_qc_size);
}

TEST(MessageModelTest, ClientBatchCostScalesWithRequests) {
  types::ClientBatch batch;
  for (int i = 0; i < 50; ++i) {
    types::Transaction tx;
    tx.payload_size = 64;
    batch.txs.push_back(tx);
  }
  EXPECT_EQ(batch.CostUnits(), 50);
  EXPECT_EQ(batch.WireSize(), 50u * (64 + 72));
}

TEST(MessageModelTest, CampaignDigestCoversClaims) {
  core::CampMsg a;
  a.v = 5;
  a.v_new = 6;
  a.rp = 3;
  a.ci = 20;
  a.nonce = 99;
  a.latest_n = 40;
  a.claimed_difficulty_bits = 12;
  core::CampMsg b = a;
  EXPECT_EQ(core::CampaignDigest(a), core::CampaignDigest(b));
  b.rp = 4;
  EXPECT_NE(core::CampaignDigest(a), core::CampaignDigest(b));
  b = a;
  b.nonce = 100;
  EXPECT_NE(core::CampaignDigest(a), core::CampaignDigest(b));
  b = a;
  b.latest_n = 41;
  EXPECT_NE(core::CampaignDigest(a), core::CampaignDigest(b));
}

TEST(MessageModelTest, VcBlockDigestCoversConfirmedView) {
  ledger::VcBlock a = Vc(5, 1, {});
  ledger::VcBlock b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  b.set_confirmed_view(3);
  EXPECT_NE(a.Digest(), b.Digest());
}

// -------------------------------------------------------- PoW calibration

TEST(PowCalibrationTest, PaperTimingsHold) {
  // §4.2.4: "less than 20 ms for rp < 5" and "hours for rp > 8" — the
  // calibration DESIGN.md documents (4 bits/unit at 3.3 MH/s).
  crypto::PowParams params;
  for (types::Penalty rp = 1; rp <= 4; ++rp) {
    EXPECT_LT(params.ExpectedSolveMicros(rp), util::Millis(20))
        << "rp=" << rp;
  }
  EXPECT_GT(params.ExpectedSolveMicros(9), util::Seconds(3600));
}

TEST(PowCalibrationTest, PaperByteSemanticsAvailable) {
  // The paper's prose formula Pr(rp) = 2^-8rp is selectable.
  crypto::PowParams params;
  params.bits_per_unit = 8;
  EXPECT_EQ(params.DifficultyBits(4), 32);
  // Expected iterations 2^32 at 3.3 MH/s ~ 1300 s.
  EXPECT_GT(params.ExpectedSolveMicros(4), util::Seconds(1000));
}

TEST(PowCalibrationTest, ExponentialGrowthBetweenLevels) {
  crypto::PowParams params;
  for (types::Penalty rp = 1; rp < 10; ++rp) {
    const double ratio =
        static_cast<double>(params.ExpectedSolveMicros(rp + 1)) /
        static_cast<double>(std::max<util::DurationMicros>(
            params.ExpectedSolveMicros(rp), 1));
    EXPECT_NEAR(ratio, 16.0, 4.0) << "rp=" << rp;  // 2^bits_per_unit.
  }
}

}  // namespace
}  // namespace prestige
