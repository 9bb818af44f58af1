// Unit tests for the ledger substrate: blocks, chaining, shared batch
// bodies (types::TxBatch), block store, and the KV application service
// (app::KvService).

#include <gtest/gtest.h>

#include "app/kv_service.h"
#include "core/replica.h"
#include "crypto/sha256.h"
#include "harness/cluster.h"
#include "ledger/block_store.h"
#include "ledger/tx_block.h"
#include "ledger/vc_block.h"

namespace prestige {
namespace ledger {
namespace {

types::Transaction MakeTx(uint64_t seq, uint64_t fingerprint = 0) {
  types::Transaction tx;
  tx.pool = 0;
  tx.client_seq = seq;
  tx.sent_at = static_cast<util::TimeMicros>(seq * 10);
  tx.payload_size = 32;
  tx.fingerprint = fingerprint == 0 ? seq * 7919 : fingerprint;
  return tx;
}

TxBlock MakeTxBlock(types::SeqNum n, types::View v,
                    const crypto::Sha256Digest& prev, size_t txs = 3) {
  TxBlock b;
  b.set_n(n);
  b.v = v;
  b.set_prev_hash(prev);
  std::vector<types::Transaction> batch;
  for (size_t i = 0; i < txs; ++i) {
    batch.push_back(MakeTx(static_cast<uint64_t>(n) * 100 + i));
  }
  b.set_txs(std::move(batch));
  b.status.assign(b.BatchSize(), 1);
  return b;
}

VcBlock MakeVcBlock(types::View v, types::ReplicaId leader,
                    const crypto::Sha256Digest& prev) {
  VcBlock b;
  b.set_v(v);
  b.set_leader(leader);
  b.set_prev_hash(prev);
  for (types::ReplicaId id = 0; id < 4; ++id) {
    b.SetPenalty(id, 1);
    b.SetCompensation(id, 1);
  }
  return b;
}

// ----------------------------------------------------------------- Blocks

TEST(TxBlockTest, DigestCoversContent) {
  TxBlock a = MakeTxBlock(1, 1, {});
  TxBlock b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  std::vector<types::Transaction> txs = b.txs().ToVector();
  txs[0].fingerprint ^= 1;
  b.set_txs(std::move(txs));
  EXPECT_NE(a.Digest(), b.Digest());
  b = a;
  b.set_n(2);
  EXPECT_NE(a.Digest(), b.Digest());
}

// ------------------------------------------------------ TxBatch ownership

TEST(TxBatchTest, CopyingABlockSharesTheBody) {
  const TxBlock a = MakeTxBlock(1, 1, {}, 5);
  const TxBlock b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(b.txs().begin(), a.txs().begin());  // Same storage, no copy.
  EXPECT_EQ(b.Digest(), a.Digest());

  TxBlock rebuilt;  // A fresh block over the same body hashes it itself.
  rebuilt.set_n(a.n());
  rebuilt.set_prev_hash(a.prev_hash());
  rebuilt.set_txs(a.txs());
  EXPECT_EQ(rebuilt.txs().begin(), a.txs().begin());
  crypto::CryptoMeter meter;
  {
    crypto::ScopedCryptoMeter scope(&meter);
    EXPECT_EQ(rebuilt.Digest(), a.Digest());
  }
  // 5 transaction digests + the batch digest + the block digest.
  EXPECT_EQ(meter.finished, 7u);
}

TEST(TxBatchTest, ReleaseTxsLeavesOtherHolderUntouched) {
  TxBlock a = MakeTxBlock(1, 1, {}, 3);
  const TxBlock b = a;
  const crypto::Sha256Digest digest = b.Digest();
  std::vector<types::Transaction> txs = a.release_txs();
  ASSERT_EQ(txs.size(), 3u);
  txs[0].fingerprint ^= 1;  // Mutate the released copy.
  EXPECT_EQ(a.BatchSize(), 0u);
  EXPECT_EQ(b.BatchSize(), 3u);
  EXPECT_EQ(b.txs()[0], MakeTx(100));
  EXPECT_EQ(b.Digest(), digest);
  TxBlock fresh = MakeTxBlock(1, 1, {}, 3);  // Cold cache: recompute.
  EXPECT_EQ(fresh.Digest(), digest);
}

TEST(TxBatchTest, SetTxsLeavesOtherHolderUntouched) {
  TxBlock a = MakeTxBlock(1, 1, {}, 3);
  const TxBlock b = a;
  const crypto::Sha256Digest digest = b.Digest();
  std::vector<types::Transaction> edited = a.txs().ToVector();
  edited[1].fingerprint ^= 1;
  a.set_txs(std::move(edited));
  EXPECT_NE(a.txs().begin(), b.txs().begin());
  EXPECT_NE(a.Digest(), digest);
  EXPECT_EQ(b.txs()[1], MakeTx(101));
  EXPECT_EQ(b.Digest(), digest);
}

TEST(TxBatchTest, EmptyBatchBehavesLikeEmptyVector) {
  const types::TxBatch empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
  for (const types::Transaction& tx : empty) ADD_FAILURE() << tx.client_seq;
}

// A 4-replica simulated deployment: every replica's committed block at a
// height holds the one body the leader proposed, yet no hashing is
// skipped — the run's hash count is pinned to the value measured before
// bodies were shared (each follower still digests the proposal itself).
TEST(TxBatchTest, SimReplicasShareCommittedBodiesWithoutSkippingHashes) {
  crypto::CryptoMeter meter;
  int64_t committed = 0;
  {
    crypto::ScopedCryptoMeter scope(&meter);
    harness::WorkloadOptions w;
    w.seed = 11;
    w.num_pools = 4;
    w.clients_per_pool = 50;
    harness::Cluster<core::PrestigeReplica, core::PrestigeConfig> cluster(
        core::PrestigeConfig(), w);
    cluster.Start();
    cluster.RunFor(util::Seconds(1));
    committed = cluster.replica(0).metrics().committed_txs;

    const auto& chain0 = cluster.replica(0).store().tx_chain();
    ASSERT_GT(chain0.size(), 10u);
    for (uint32_t r = 1; r < cluster.num_replicas(); ++r) {
      const auto& chain = cluster.replica(r).store().tx_chain();
      ASSERT_GT(chain.size(), 10u);
      for (size_t h = 0; h < 10; ++h) {
        ASSERT_EQ(chain[h].Digest(), chain0[h].Digest());
        if (chain0[h].BatchSize() == 0) continue;
        EXPECT_EQ(chain[h].txs().begin(), chain0[h].txs().begin())
            << "replica " << r << " height " << chain[h].n();
      }
    }
  }
  EXPECT_EQ(committed, 16200);
  EXPECT_EQ(meter.finished, 76674u);
}

TEST(TxBlockTest, DigestIgnoresQcs) {
  // QCs certify the block; they are not part of its address.
  TxBlock a = MakeTxBlock(1, 1, {});
  const crypto::Sha256Digest before = a.Digest();
  a.ordering_qc.threshold = 3;
  EXPECT_EQ(a.Digest(), before);
}

TEST(VcBlockTest, DigestCoversReputationSegment) {
  VcBlock a = MakeVcBlock(2, 1, {});
  VcBlock b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  b.SetPenalty(2, 5);
  EXPECT_NE(a.Digest(), b.Digest());
  b = a;
  b.SetCompensation(3, 10);
  EXPECT_NE(a.Digest(), b.Digest());
  b = a;
  b.set_leader(2);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(VcBlockTest, PenaltyDefaultsToInitial) {
  VcBlock b;
  EXPECT_EQ(b.PenaltyOf(7), 1);
  EXPECT_EQ(b.CompensationOf(7), 1);
  b.SetPenalty(7, 4);
  EXPECT_EQ(b.PenaltyOf(7), 4);
}

TEST(DigestDomainsTest, SigningDigestsAreDomainSeparated) {
  const crypto::Sha256Digest block = MakeTxBlock(1, 1, {}).Digest();
  EXPECT_NE(OrderingDigest(1, 1, block), CommitDigest(1, 1, block));
  EXPECT_NE(ConfDigest(1), VoteDigest(1, 0));
  EXPECT_NE(RefreshDigest(0, 1), ConfDigest(1));
}

// ------------------------------------------------------------- BlockStore

TEST(BlockStoreTest, AppendsChainedTxBlocks) {
  BlockStore store;
  EXPECT_EQ(store.LatestTxSeq(), 0);
  ASSERT_TRUE(store.AppendTxBlock(MakeTxBlock(1, 1, {})).ok());
  ASSERT_TRUE(
      store.AppendTxBlock(MakeTxBlock(2, 1, store.LatestTxDigest())).ok());
  EXPECT_EQ(store.LatestTxSeq(), 2);
  EXPECT_EQ(store.TotalCommittedTxs(), 6);
}

TEST(BlockStoreTest, RejectsSequenceGap) {
  BlockStore store;
  ASSERT_TRUE(store.AppendTxBlock(MakeTxBlock(1, 1, {})).ok());
  EXPECT_TRUE(store.AppendTxBlock(MakeTxBlock(3, 1, store.LatestTxDigest()))
                  .IsCorruption());
}

TEST(BlockStoreTest, RejectsBrokenHashChain) {
  BlockStore store;
  ASSERT_TRUE(store.AppendTxBlock(MakeTxBlock(1, 1, {})).ok());
  crypto::Sha256Digest wrong{};
  wrong[0] = 0xab;
  EXPECT_TRUE(store.AppendTxBlock(MakeTxBlock(2, 1, wrong)).IsCorruption());
}

TEST(BlockStoreTest, RejectsNonIncreasingViews) {
  BlockStore store;
  ASSERT_TRUE(store.AppendVcBlock(MakeVcBlock(2, 1, {})).ok());
  EXPECT_TRUE(store.AppendVcBlock(MakeVcBlock(2, 2, store.LatestVcBlock()->Digest()))
                  .IsCorruption());
}

TEST(BlockStoreTest, ViewsMaySkip) {
  BlockStore store;
  ASSERT_TRUE(store.AppendVcBlock(MakeVcBlock(2, 1, {})).ok());
  ASSERT_TRUE(
      store.AppendVcBlock(MakeVcBlock(5, 2, store.LatestVcBlock()->Digest()))
          .ok());
  EXPECT_EQ(store.CurrentView(), 5);
  EXPECT_NE(store.VcBlockFor(5), nullptr);
  EXPECT_EQ(store.VcBlockFor(3), nullptr);
}

TEST(BlockStoreTest, LookupByIndexAndView) {
  BlockStore store;
  ASSERT_TRUE(store.AppendTxBlock(MakeTxBlock(1, 1, {})).ok());
  ASSERT_TRUE(
      store.AppendTxBlock(MakeTxBlock(2, 1, store.LatestTxDigest())).ok());
  ASSERT_NE(store.TxBlockAt(1), nullptr);
  EXPECT_EQ(store.TxBlockAt(1)->n(), 1);
  EXPECT_EQ(store.TxBlockAt(0), nullptr);
  EXPECT_EQ(store.TxBlockAt(3), nullptr);
}

TEST(BlockStoreTest, RangeQueriesForSyncUp) {
  BlockStore store;
  crypto::Sha256Digest prev{};
  for (types::SeqNum n = 1; n <= 5; ++n) {
    ASSERT_TRUE(store.AppendTxBlock(MakeTxBlock(n, 1, prev)).ok());
    prev = store.LatestTxDigest();
  }
  const auto blocks = store.TxBlocksAfter(2, 4);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].n(), 3);
  EXPECT_EQ(blocks[1].n(), 4);
}

TEST(BlockStoreTest, HistoricPenaltiesNewestFirst) {
  BlockStore store;
  VcBlock b2 = MakeVcBlock(2, 0, {});
  b2.SetPenalty(0, 2);
  ASSERT_TRUE(store.AppendVcBlock(b2).ok());
  VcBlock b3 = MakeVcBlock(3, 0, store.LatestVcBlock()->Digest());
  b3.SetPenalty(0, 3);
  ASSERT_TRUE(store.AppendVcBlock(b3).ok());
  const auto penalties = store.HistoricPenalties(0);
  ASSERT_EQ(penalties.size(), 2u);
  EXPECT_EQ(penalties[0], 3);
  EXPECT_EQ(penalties[1], 2);
}

// ---------------------------------------------------- Application service

void ExecuteAll(app::Service& service, const TxBlock& block) {
  for (const types::Transaction& tx : block.txs()) service.Execute(tx);
  service.OnBlockCommitted(block.n(), block.v);
}

TEST(KvServiceTest, ExecutesDeterministically) {
  app::KvService a(64), b(64);
  const TxBlock block = MakeTxBlock(1, 1, {});
  ExecuteAll(a, block);
  ExecuteAll(b, block);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  EXPECT_EQ(a.applied_count(), 3);
  EXPECT_GT(a.size(), 0u);
}

TEST(KvServiceTest, OrderMatters) {
  app::KvService a(64), b(64);
  TxBlock b1 = MakeTxBlock(1, 1, {});
  TxBlock b2 = MakeTxBlock(2, 1, b1.Digest());
  ExecuteAll(a, b1);
  ExecuteAll(a, b2);
  ExecuteAll(b, b2);
  ExecuteAll(b, b1);
  EXPECT_NE(a.StateDigest(), b.StateDigest());
}

TEST(KvServiceTest, CommandEncodedPutReturnsPreviousValue) {
  app::KvService kv(1024);
  types::Transaction put = MakeTx(1);
  put.command = app::kv::EncodePut(42, 1111);
  app::Response first = kv.Execute(put);
  EXPECT_EQ(first.status, app::ExecStatus::kOk);
  EXPECT_EQ(app::kv::DecodeValue(first.result), 0u);  // No previous value.

  types::Transaction put2 = MakeTx(2);
  put2.command = app::kv::EncodePut(42, 2222);
  app::Response second = kv.Execute(put2);
  EXPECT_EQ(app::kv::DecodeValue(second.result), 1111u);
  EXPECT_EQ(kv.Get(42), 2222u);
}

TEST(KvServiceTest, CommandEncodedGetReadsCurrentValue) {
  app::KvService kv(1024);
  types::Transaction put = MakeTx(1);
  put.command = app::kv::EncodePut(7, 7777);
  kv.Execute(put);

  types::Transaction get = MakeTx(2);
  get.command = app::kv::EncodeGet(7);
  app::Response r = kv.Execute(get);
  EXPECT_EQ(r.status, app::ExecStatus::kOk);
  EXPECT_EQ(app::kv::DecodeValue(r.result), 7777u);

  types::Transaction miss = MakeTx(3);
  miss.command = app::kv::EncodeGet(8);
  EXPECT_EQ(app::kv::DecodeValue(kv.Execute(miss).result), 0u);
}

TEST(KvServiceTest, LegacyFingerprintTransactionsActAsPuts) {
  // Migration path from the fingerprint-driven KvStateMachine: an empty
  // command executes as Put(fingerprint % key_space, fingerprint).
  app::KvService kv(1024);
  types::Transaction tx = MakeTx(1, /*fingerprint=*/12345);
  kv.Execute(tx);
  EXPECT_EQ(kv.Get(12345 % 1024), 12345u);
  EXPECT_EQ(kv.Get(999), 0u);
}

TEST(KvServiceTest, MalformedCommandReportsError) {
  app::KvService kv(64);
  types::Transaction tx = MakeTx(1);
  tx.command = {0x7f, 0x01};
  app::Response r = kv.Execute(tx);
  EXPECT_EQ(r.status, app::ExecStatus::kError);
  EXPECT_TRUE(r.result.empty());
}

TEST(KvServiceTest, ResultDigestDistinguishesResults) {
  app::Response a;
  a.result = {1, 2, 3};
  app::Response b;
  b.result = {1, 2, 4};
  app::Response c = a;
  EXPECT_NE(app::ResultDigest(a), app::ResultDigest(b));
  EXPECT_EQ(app::ResultDigest(a), app::ResultDigest(c));
  app::Response d = a;
  d.status = app::ExecStatus::kError;
  EXPECT_NE(app::ResultDigest(a), app::ResultDigest(d));
}

TEST(NullServiceTest, CountsAndFoldsOrder) {
  app::NullService sm;
  ExecuteAll(sm, MakeTxBlock(1, 1, {}));
  EXPECT_EQ(sm.applied_count(), 3);
  app::NullService other;
  ExecuteAll(other, MakeTxBlock(1, 1, {}));
  EXPECT_EQ(sm.StateDigest(), other.StateDigest());
}

}  // namespace
}  // namespace ledger
}  // namespace prestige
