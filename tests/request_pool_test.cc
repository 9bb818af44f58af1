// Tests for core::RequestPool and the decided state behind it: the pool
// references the storage requests arrived in (and keeps it alive), skips
// and prunes decided requests through CommitPipeline::Executed, and a
// long in-order run leaves every replica's decided state at one floor per
// pool with nothing retained per request. A follower's pool stays bounded
// under sustained load in all three protocols.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/commit_delivery.h"
#include "core/replica.h"
#include "core/request_pool.h"
#include "harness/cluster.h"
#include "runtime/sim_env.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace prestige {
namespace core {
namespace {

using util::Millis;

types::Transaction MakeTx(types::ClientPoolId pool, uint64_t seq) {
  types::Transaction tx;
  tx.pool = pool;
  tx.client_seq = seq;
  tx.sent_at = static_cast<util::TimeMicros>(seq);
  tx.fingerprint = seq * 7919 + pool;
  // A heap-allocated command, so a dangling reference is a use-after-free
  // the AddressSanitizer build reports.
  tx.command.assign(24, static_cast<uint8_t>(seq));
  return tx;
}

std::shared_ptr<types::ClientBatch> MakeBatch(types::ClientPoolId pool,
                                              uint64_t first, uint64_t count) {
  auto batch = std::make_shared<types::ClientBatch>();
  for (uint64_t seq = first; seq < first + count; ++seq) {
    batch->txs.push_back(MakeTx(pool, seq));
  }
  return batch;
}

ledger::TxBlock MakeBlock(types::SeqNum n,
                          std::vector<types::Transaction> txs) {
  ledger::TxBlock block;
  block.v = 1;
  block.set_n(n);
  block.set_txs(std::move(txs));
  block.status.assign(block.BatchSize(), 1);
  return block;
}

std::vector<uint64_t> Seqs(const std::vector<types::Transaction>& txs) {
  std::vector<uint64_t> out;
  for (const types::Transaction& tx : txs) out.push_back(tx.client_seq);
  return out;
}

// ------------------------------------------------------------ RequestPool

TEST(RequestPoolTest, KeepsTheReceivedBatchAliveUntilTaken) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  auto batch = MakeBatch(0, 1, 3);
  const std::vector<types::Transaction> expected = batch->txs;
  std::weak_ptr<const types::ClientBatch> watch = batch;
  {
    runtime::MessagePtr msg = batch;
    pool.Enqueue(msg, batch->txs);
  }
  batch.reset();  // The pool now holds the only reference.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(pool.size(), 3u);

  std::vector<types::Transaction> taken = pool.Take(2);
  EXPECT_EQ(taken, std::vector<types::Transaction>(expected.begin(),
                                                   expected.begin() + 2));
  EXPECT_FALSE(watch.expired());  // One request still points into it.
  taken = pool.Take(2);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0], expected[2]);
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(pool.empty());
}

TEST(RequestPoolTest, SharesARecycledBlockBody) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  std::vector<types::Transaction> txs = MakeBatch(0, 1, 4)->txs;
  auto block = std::make_unique<ledger::TxBlock>(MakeBlock(1, txs));
  pool.Enqueue(block->txs());
  block.reset();
  EXPECT_EQ(pool.Take(10), txs);
}

TEST(RequestPoolTest, SkipsDecidedAndAlreadyPooledRequests) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  log.Deliver(MakeBlock(1, {MakeTx(0, 1), MakeTx(0, 2), MakeTx(0, 7)}));

  // 1, 2 and 7 are decided; 4 arrives twice in one batch.
  auto batch = MakeBatch(0, 1, 8);
  batch->txs.insert(batch->txs.begin() + 5, MakeTx(0, 4));
  pool.Enqueue(batch, batch->txs);
  EXPECT_EQ(pool.size(), 5u);  // 3 4 5 6 8
  EXPECT_FALSE(pool.Contains(MakeTx(0, 2)));
  EXPECT_TRUE(pool.Contains(MakeTx(0, 4)));

  // A retransmission of pooled requests adds nothing.
  auto again = MakeBatch(0, 3, 2);
  pool.Enqueue(again, again->txs);
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(Seqs(pool.Take(100)), (std::vector<uint64_t>{3, 4, 5, 6, 8}));
}

TEST(RequestPoolTest, TakeDropsRequestsDecidedAfterEnqueue) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  auto batch = MakeBatch(0, 1, 6);
  pool.Enqueue(batch, batch->txs);
  log.Deliver(MakeBlock(1, {MakeTx(0, 2), MakeTx(0, 3)}));
  EXPECT_EQ(pool.size(), 6u);  // Decided requests linger until taken.

  // Dropped requests do not count towards `max`; `skip` drops more.
  const auto skip_five = [](const types::Transaction& tx) {
    return tx.client_seq == 5;
  };
  EXPECT_EQ(Seqs(pool.Take(2, skip_five)), (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(Seqs(pool.Take(2, skip_five)), (std::vector<uint64_t>{6}));
  EXPECT_TRUE(pool.empty());
  // Taken requests leave the key set: they may be pooled again.
  pool.Enqueue(batch, batch->txs);
  EXPECT_EQ(Seqs(pool.Take(10)), (std::vector<uint64_t>{1, 4, 5, 6}));
}

TEST(RequestPoolTest, PruneKeepsUndecidedRequestsInOrder) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  auto first = MakeBatch(0, 1, 5);
  auto second = MakeBatch(1, 1, 3);
  pool.Enqueue(first, first->txs);
  pool.Enqueue(second, second->txs);
  log.Deliver(MakeBlock(1, {MakeTx(0, 1), MakeTx(0, 3), MakeTx(1, 3)}));

  pool.PruneDecided();
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_FALSE(pool.Contains(MakeTx(0, 3)));
  const std::vector<types::Transaction> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 5u);
  EXPECT_EQ(taken[0], first->txs[1]);
  EXPECT_EQ(taken[1], first->txs[3]);
  EXPECT_EQ(taken[2], first->txs[4]);
  EXPECT_EQ(taken[3], second->txs[0]);
  EXPECT_EQ(taken[4], second->txs[1]);
}

TEST(RequestPoolTest, SeqZeroIsDecidedOncePerPoolCommits) {
  CommitPipeline log(/*replica_id=*/0);
  RequestPool pool(log);
  EXPECT_FALSE(log.Executed(0, 0));
  log.Deliver(MakeBlock(1, {MakeTx(0, 0)}));
  EXPECT_TRUE(log.Executed(0, 0));
  EXPECT_FALSE(log.Executed(1, 0));  // The marker is per pool.
  // ...while the session table still executes every seq-0 commit.
  EXPECT_FALSE(log.sessions().IsDuplicate(0, 0));

  auto batch = std::make_shared<types::ClientBatch>();
  batch->txs = {MakeTx(0, 0), MakeTx(1, 0)};
  pool.Enqueue(batch, batch->txs);
  const std::vector<types::Transaction> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].pool, 1u);
}

// ------------------------------------- replica: decided state stays bounded

/// Captures everything a replica sends to this actor.
class Probe : public sim::Actor {
 public:
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    messages.push_back({from, msg});
  }
  std::vector<std::pair<sim::ActorId, sim::MessagePtr>> messages;
};

/// Four real PrestigeBFT replicas (actors 0-3, genesis leader 0) and a
/// client-pool probe (actor 4) that broadcasts in-order requests of pool 0.
class DecidedStateTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBatch = 500;
  static constexpr uint64_t kRequests = 50000;

  DecidedStateTest()
      : sim_(3),
        net_(&sim_, sim::LatencyModel::Fixed(0.5), sim::CostModel{}),
        keys_(7) {
    PrestigeConfig config;
    config.n = 4;
    config.batch_size = kBatch;
    config.batch_wait = Millis(2);
    for (uint32_t i = 0; i < 4; ++i) {
      replicas_.push_back(std::make_unique<PrestigeReplica>(config, i, &keys_));
      envs_.push_back(std::make_unique<runtime::SimEnv>(replicas_[i].get()));
      sim_.AddActor(envs_[i].get());
      envs_[i]->AttachNetwork(&net_);
    }
    sim_.AddActor(&client_);
    client_.AttachNetwork(&net_);
    for (auto& replica : replicas_) {
      replica->SetTopology({0, 1, 2, 3}, {4});
      PrestigeReplica* r = replica.get();
      sim_.ScheduleAfter(0, [r] { r->OnStart(); });
    }
    sim_.RunUntil(1);
  }

  void Broadcast(runtime::MessagePtr msg) {
    net_.Send(4, std::vector<sim::ActorId>{0, 1, 2, 3}, std::move(msg));
  }

  void RunFor(util::DurationMicros d) { sim_.RunUntil(sim_.Now() + d); }

  /// Occurrences of `tx`'s identity in replica i's committed chain.
  int CommittedCopies(uint32_t i, const types::Transaction& tx) const {
    int copies = 0;
    for (const ledger::TxBlock& block : replicas_[i]->store().tx_chain()) {
      for (const types::Transaction& t : block.txs()) {
        if (t.pool == tx.pool && t.client_seq == tx.client_seq) ++copies;
      }
    }
    return copies;
  }

  /// The last reply entry for `seq` that replica i sent to the client.
  const types::ReplyEntry* LastReplyEntry(uint32_t i, uint64_t seq) const {
    for (auto it = client_.messages.rbegin(); it != client_.messages.rend();
         ++it) {
      if (it->first != i) continue;
      auto* reply = dynamic_cast<const types::ClientReply*>(it->second.get());
      if (reply == nullptr) continue;
      for (const types::ReplyEntry& entry : reply->entries) {
        if (entry.client_seq == seq) return &entry;
      }
    }
    return nullptr;
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyStore keys_;
  std::vector<std::unique_ptr<PrestigeReplica>> replicas_;
  std::vector<std::unique_ptr<runtime::SimEnv>> envs_;
  Probe client_;
};

TEST_F(DecidedStateTest, InOrderRunLeavesOneFloorPerPool) {
  std::vector<runtime::MessagePtr> sent;
  for (uint64_t first = 1; first <= kRequests; first += kBatch) {
    sent.push_back(MakeBatch(0, first, kBatch));
    Broadcast(sent.back());
    RunFor(Millis(2));
  }
  RunFor(Millis(500));

  for (uint32_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const PrestigeReplica& r = *replicas_[i];
    ASSERT_EQ(r.store().TotalCommittedTxs(), static_cast<int64_t>(kRequests));
    EXPECT_EQ(r.delivery().sessions().Floor(0), kRequests);
    EXPECT_EQ(r.delivery().sessions().SparseCount(0), 0u);
    EXPECT_EQ(r.delivery().stats().executed, static_cast<int64_t>(kRequests));
  }
  EXPECT_EQ(replicas_[0]->pending_pool_size(), 0u);

  // Re-sending committed requests — a retransmission (new message) and a
  // replay of the original ClientBatch — pools nothing on any replica.
  const types::Transaction oldest = MakeTx(0, 1);
  const types::Transaction newest = MakeTx(0, kRequests);
  std::vector<size_t> pool_sizes;
  for (const auto& r : replicas_) pool_sizes.push_back(r->pending_pool_size());
  auto retransmit = std::make_shared<types::ClientBatch>();
  retransmit->txs = {oldest, newest};
  Broadcast(retransmit);
  Broadcast(sent.front());
  Broadcast(sent.back());
  RunFor(Millis(50));
  for (uint32_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(replicas_[i]->pending_pool_size(), pool_sizes[i]);
    EXPECT_EQ(CommittedCopies(i, oldest), 1);
    EXPECT_EQ(CommittedCopies(i, newest), 1);
  }

  // A complaint about a committed request is answered, not re-proposed:
  // the oldest reply was evicted at a checkpoint (kStaleDup), the newest
  // is served from the reply cache.
  for (const types::Transaction& tx : {oldest, newest}) {
    auto compt = std::make_shared<types::ClientComplaint>();
    compt->tx = tx;
    Broadcast(compt);
  }
  RunFor(Millis(50));
  for (uint32_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const types::ReplyEntry* stale = LastReplyEntry(i, 1);
    ASSERT_NE(stale, nullptr);
    EXPECT_TRUE(stale->duplicate);
    EXPECT_EQ(stale->status, static_cast<uint8_t>(app::ExecStatus::kStaleDup));
    const types::ReplyEntry* cached = LastReplyEntry(i, kRequests);
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->duplicate);
    EXPECT_EQ(cached->status, static_cast<uint8_t>(app::ExecStatus::kOk));
    EXPECT_EQ(CommittedCopies(i, oldest), 1);
  }

  // Seq 0 is outside session tracking, yet once one commits it is decided:
  // sending it again does not get it proposed a second time.
  const types::Transaction zero = MakeTx(0, 0);
  auto zero_batch = std::make_shared<types::ClientBatch>();
  zero_batch->txs = {zero};
  Broadcast(zero_batch);
  RunFor(Millis(50));
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(CommittedCopies(i, zero), 1);
  auto zero_again = std::make_shared<types::ClientBatch>();
  zero_again->txs = {zero};
  Broadcast(zero_again);
  RunFor(Millis(50));
  for (uint32_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(CommittedCopies(i, zero), 1);
    EXPECT_EQ(replicas_[i]->delivery().sessions().SparseCount(0), 0u);
  }
  EXPECT_EQ(replicas_[0]->pending_pool_size(), 0u);
}

// ---------------------------------------------- follower pool stays bounded

template <typename R, typename C>
struct Protocol {
  using Replica = R;
  using Config = C;
};

template <typename P>
class FollowerPoolTest : public ::testing::Test {};

using Protocols = ::testing::Types<
    Protocol<PrestigeReplica, PrestigeConfig>,
    Protocol<baselines::hotstuff::HotStuffReplica,
             baselines::hotstuff::HotStuffConfig>,
    Protocol<baselines::sbft::SbftReplica, baselines::sbft::SbftConfig>>;
TYPED_TEST_SUITE(FollowerPoolTest, Protocols);

// Every replica pools every request, but only the leader takes from its
// pool. A follower's pool stays bounded only because the commit step
// prunes decided requests once the pool holds more than
// 8 × batch_size + 1024 of them.
TYPED_TEST(FollowerPoolTest, StaysBoundedUnderSaturatingLoad) {
  typename TypeParam::Config config;
  config.n = 4;
  config.batch_size = 100;
  const int64_t bound = 8 * static_cast<int64_t>(config.batch_size) + 1024;
  harness::WorkloadOptions workload;
  workload.num_pools = 4;
  workload.clients_per_pool = 100;
  harness::Cluster<typename TypeParam::Replica, typename TypeParam::Config>
      cluster(config, workload);
  cluster.Start();

  int64_t peak = 0;
  for (int second = 0; second < 60 && cluster.ClientCommitted() <= 10 * bound;
       ++second) {
    cluster.RunFor(util::Seconds(1));
    for (uint32_t i = 0; i < config.n; ++i) {
      const auto& replica = cluster.replica(i);
      if (replica.IsLeader()) continue;
      peak = std::max(peak,
                      static_cast<int64_t>(replica.pending_pool_size()));
    }
  }
  ASSERT_GT(cluster.ClientCommitted(), 10 * bound);
  EXPECT_LT(peak, 2 * bound);
}

}  // namespace
}  // namespace core
}  // namespace prestige
