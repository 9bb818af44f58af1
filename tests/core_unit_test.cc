// White-box unit tests for PrestigeReplica's message-validation paths:
// crafted (including malicious) messages are injected directly and the
// replica's reactions observed — covering the adversarial branches that
// integration tests reach only probabilistically.

#include <gtest/gtest.h>

#include "core/replica.h"
#include "runtime/sim_env.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace prestige {
namespace core {
namespace {

using util::Millis;

/// Captures everything a replica sends to this actor.
class Probe : public sim::Actor {
 public:
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    messages.push_back({from, msg});
  }

  template <typename T>
  const T* Last() const {
    for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
      if (auto* m = dynamic_cast<const T*>(it->second.get())) return m;
    }
    return nullptr;
  }

  template <typename T>
  int Count() const {
    int count = 0;
    for (const auto& [from, msg] : messages) {
      if (dynamic_cast<const T*>(msg.get()) != nullptr) ++count;
    }
    return count;
  }

  std::vector<std::pair<sim::ActorId, sim::MessagePtr>> messages;
};

/// One replica under test (id 1, follower of the genesis leader at id 0)
/// surrounded by probe actors in the other slots.
class ReplicaUnitTest : public ::testing::Test {
 protected:
  ReplicaUnitTest()
      : sim_(1),
        net_(&sim_, sim::LatencyModel::Fixed(0.5), sim::CostModel{}),
        keys_(99) {
    PrestigeConfig config;
    config.n = 4;
    config.batch_size = 10;
    config.timeout_min = Millis(400);
    config.timeout_max = Millis(600);
    replica_ = std::make_unique<PrestigeReplica>(config, 1, &keys_);

    // Actor 0..3 are replicas (probe, replica-under-test, probe, probe);
    // actor 4 is a client-pool probe.
    sim_.AddActor(&probes_[0]);
    probes_[0].AttachNetwork(&net_);
    replica_env_ = std::make_unique<runtime::SimEnv>(replica_.get());
    sim_.AddActor(replica_env_.get());
    replica_env_->AttachNetwork(&net_);
    sim_.AddActor(&probes_[2]);
    probes_[2].AttachNetwork(&net_);
    sim_.AddActor(&probes_[3]);
    probes_[3].AttachNetwork(&net_);
    sim_.AddActor(&client_probe_);
    client_probe_.AttachNetwork(&net_);

    replica_->SetTopology({0, 1, 2, 3}, {4});
    sim_.ScheduleAfter(0, [this] { replica_->OnStart(); });
    sim_.RunUntil(1);
  }

  /// Leader-signed Ord for a fresh block at the replica's next sequence.
  std::shared_ptr<OrdMsg> MakeOrd(types::SeqNum n, uint64_t salt = 0) {
    auto ord = std::make_shared<OrdMsg>();
    ord->v = 1;
    ord->n = n;
    ord->prev_hash = replica_->store().LatestTxDigest();
    types::Transaction tx;
    tx.pool = 0;
    tx.client_seq = 100 + static_cast<uint64_t>(n);
    tx.fingerprint = 7 + salt;
    ord->txs = std::vector<types::Transaction>{tx};

    ledger::TxBlock block;
    block.v = ord->v;
    block.set_n(ord->n);
    block.set_prev_hash(ord->prev_hash);
    block.set_txs(ord->txs);
    const crypto::Sha256Digest ord_digest =
        ledger::OrderingDigest(ord->v, ord->n, block.Digest());
    ord->sig = keys_.Sign(0, ord_digest);  // Leader is replica 0.
    return ord;
  }

  void Deliver(sim::ActorId from, sim::MessagePtr msg) {
    net_.Send(from, 1, std::move(msg));
    sim_.RunUntil(sim_.Now() + Millis(10));
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyStore keys_;
  std::unique_ptr<PrestigeReplica> replica_;
  std::unique_ptr<runtime::SimEnv> replica_env_;
  Probe probes_[4];  // Index 1 unused.
  Probe client_probe_;
};

// ------------------------------------------------------------ replication

TEST_F(ReplicaUnitTest, FollowerRepliesToValidOrd) {
  Deliver(0, MakeOrd(1));
  const auto* reply = probes_[0].Last<OrdReplyMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->n, 1);
  EXPECT_EQ(reply->partial.signer, 1u);
}

TEST_F(ReplicaUnitTest, RejectsOrdWithBadLeaderSignature) {
  auto ord = MakeOrd(1);
  ord->sig.mac[0] ^= 0xff;
  Deliver(0, ord);
  EXPECT_EQ(probes_[0].Count<OrdReplyMsg>(), 0);
  EXPECT_GT(replica_->metrics().invalid_messages, 0);
}

TEST_F(ReplicaUnitTest, RejectsOrdImpersonatingLeader) {
  // Replica 2 (not the leader) sends a self-signed Ord.
  auto ord = MakeOrd(1);
  ledger::TxBlock block;
  block.v = ord->v;
  block.set_n(ord->n);
  block.set_prev_hash(ord->prev_hash);
  block.set_txs(ord->txs);
  ord->sig = keys_.Sign(2, ledger::OrderingDigest(1, 1, block.Digest()));
  Deliver(2, ord);
  EXPECT_EQ(probes_[2].Count<OrdReplyMsg>(), 0);
}

TEST_F(ReplicaUnitTest, EquivocationGuardRefusesSecondBlockAtSameSeq) {
  Deliver(0, MakeOrd(1, /*salt=*/0));
  EXPECT_EQ(probes_[0].Count<OrdReplyMsg>(), 1);
  // Same (v, n), different content: the follower must not sign it.
  Deliver(0, MakeOrd(1, /*salt=*/1));
  EXPECT_EQ(probes_[0].Count<OrdReplyMsg>(), 1);
  EXPECT_GT(replica_->metrics().invalid_messages, 0);
}

TEST_F(ReplicaUnitTest, RepeatedIdenticalOrdIsIdempotent) {
  auto ord = MakeOrd(1);
  Deliver(0, ord);
  Deliver(0, ord);
  // Both deliveries produce a reply (retransmission-friendly) but the
  // pending block is stored once.
  EXPECT_GE(probes_[0].Count<OrdReplyMsg>(), 1);
  EXPECT_EQ(replica_->pending_block_count(), 1u);
}

TEST_F(ReplicaUnitTest, CmtRequiresValidOrderingQc) {
  auto ord = MakeOrd(1);
  Deliver(0, ord);

  ledger::TxBlock block;
  block.v = 1;
  block.set_n(1);
  block.set_prev_hash(ord->prev_hash);
  block.set_txs(ord->txs);
  const crypto::Sha256Digest digest = block.Digest();

  auto cmt = std::make_shared<CmtMsg>();
  cmt->v = 1;
  cmt->n = 1;
  cmt->block_digest = digest;
  // Fabricate a QC with too few signers (2 < 2f+1 = 3).
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(1, 1, digest);
  crypto::QuorumCertBuilder builder(ord_digest, 2);
  builder.Add(keys_.Sign(0, ord_digest), ord_digest);
  builder.Add(keys_.Sign(2, ord_digest), ord_digest);
  cmt->ordering_qc = builder.Build();
  cmt->sig = keys_.Sign(0, ledger::CommitDigest(1, 1, digest));
  Deliver(0, cmt);

  EXPECT_EQ(probes_[0].Count<CmtReplyMsg>(), 0);
  EXPECT_GT(replica_->metrics().invalid_messages, 0);
}

TEST_F(ReplicaUnitTest, FullTwoPhaseCommitDeliversNotif) {
  auto ord = MakeOrd(1);
  Deliver(0, ord);

  ledger::TxBlock block;
  block.v = 1;
  block.set_n(1);
  block.set_prev_hash(ord->prev_hash);
  block.set_txs(ord->txs);
  const crypto::Sha256Digest digest = block.Digest();
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(1, 1, digest);
  const crypto::Sha256Digest cmt_digest = ledger::CommitDigest(1, 1, digest);

  crypto::QuorumCertBuilder ord_builder(ord_digest, 3);
  for (uint32_t r : {0u, 1u, 2u}) {
    ord_builder.Add(keys_.Sign(r, ord_digest), ord_digest);
  }
  auto cmt = std::make_shared<CmtMsg>();
  cmt->v = 1;
  cmt->n = 1;
  cmt->block_digest = digest;
  cmt->ordering_qc = ord_builder.Build();
  cmt->sig = keys_.Sign(0, cmt_digest);
  Deliver(0, cmt);
  EXPECT_EQ(probes_[0].Count<CmtReplyMsg>(), 1);

  crypto::QuorumCertBuilder cmt_builder(cmt_digest, 3);
  for (uint32_t r : {0u, 1u, 2u}) {
    cmt_builder.Add(keys_.Sign(r, cmt_digest), cmt_digest);
  }
  block.ordering_qc = ord_builder.Build();
  block.commit_qc = cmt_builder.Build();
  auto txb = std::make_shared<TxBlockMsg>();
  txb->block = block;
  Deliver(0, txb);

  EXPECT_EQ(replica_->store().LatestTxSeq(), 1);
  // The client pool (actor 4) received a reply carrying the execution
  // result of its transaction.
  ASSERT_GE(client_probe_.Count<types::ClientReply>(), 1);
  const auto* reply = client_probe_.Last<types::ClientReply>();
  ASSERT_EQ(reply->entries.size(), 1u);
  EXPECT_EQ(reply->entries[0].client_seq, 101u);
  EXPECT_FALSE(reply->entries[0].duplicate);
  EXPECT_EQ(reply->replica, 1u);
}

TEST_F(ReplicaUnitTest, TxBlockWithForgedQcRejected) {
  auto ord = MakeOrd(1);
  ledger::TxBlock block;
  block.v = 1;
  block.set_n(1);
  block.set_prev_hash(ord->prev_hash);
  block.set_txs(ord->txs);
  const crypto::Sha256Digest cmt_digest =
      ledger::CommitDigest(1, 1, block.Digest());
  crypto::QuorumCertBuilder builder(cmt_digest, 3);
  for (uint32_t r : {0u, 2u, 3u}) {
    builder.Add(keys_.Sign(r, cmt_digest), cmt_digest);
  }
  block.commit_qc = builder.Build();
  block.commit_qc.partials[0].mac[1] ^= 0x80;  // Tamper.
  auto txb = std::make_shared<TxBlockMsg>();
  txb->block = block;
  Deliver(0, txb);
  EXPECT_EQ(replica_->store().LatestTxSeq(), 0);
}

// ------------------------------------------------------------ view change

TEST_F(ReplicaUnitTest, CampaignWithWeakConfQcRejected) {
  // Craft a campaign whose conf_QC has threshold 1 (< f+1 = 2).
  const crypto::Sha256Digest conf_digest = ledger::ConfDigest(1);
  crypto::QuorumCertBuilder conf(conf_digest, 1);
  conf.Add(keys_.Sign(2, conf_digest), conf_digest);

  auto camp = std::make_shared<CampMsg>();
  camp->conf_qc = conf.Build();
  camp->v = 1;
  camp->v_new = 2;
  camp->rp = 2;
  camp->ci = 1;
  camp->latest_n = 0;
  camp->claimed_difficulty_bits = 8;
  camp->sig = keys_.Sign(2, CampaignDigest(*camp));
  Deliver(2, camp);

  EXPECT_EQ(probes_[2].Count<VoteCpMsg>(), 0);
  EXPECT_GT(replica_->metrics().invalid_messages, 0);
}

TEST_F(ReplicaUnitTest, CampaignWithWrongRpRejected) {
  const crypto::Sha256Digest conf_digest = ledger::ConfDigest(1);
  crypto::QuorumCertBuilder conf(conf_digest, 2);
  conf.Add(keys_.Sign(2, conf_digest), conf_digest);
  conf.Add(keys_.Sign(3, conf_digest), conf_digest);

  auto camp = std::make_shared<CampMsg>();
  camp->conf_qc = conf.Build();
  camp->v = 1;
  camp->v_new = 2;
  camp->rp = 1;  // CalcRP would give 2 (penalization with no history).
  camp->ci = 1;
  camp->latest_n = 0;
  camp->claimed_difficulty_bits = 4;
  camp->sig = keys_.Sign(2, CampaignDigest(*camp));
  Deliver(2, camp);

  EXPECT_EQ(probes_[2].Count<VoteCpMsg>(), 0);
}

TEST_F(ReplicaUnitTest, ValidCampaignEarnsVoteExactlyOnce) {
  const crypto::Sha256Digest conf_digest = ledger::ConfDigest(1);
  crypto::QuorumCertBuilder conf(conf_digest, 2);
  conf.Add(keys_.Sign(2, conf_digest), conf_digest);
  conf.Add(keys_.Sign(3, conf_digest), conf_digest);

  auto camp = std::make_shared<CampMsg>();
  camp->conf_qc = conf.Build();
  camp->v = 1;
  camp->v_new = 2;
  camp->rp = 2;  // rp_temp = 1 + 1 = 2, delta_tx = 0 => rp' = 2, ci' = 1.
  camp->ci = 1;
  camp->latest_n = 0;
  camp->claimed_difficulty_bits =
      crypto::PowParams{}.DifficultyBits(2);
  camp->sig = keys_.Sign(2, CampaignDigest(*camp));
  Deliver(2, camp);
  EXPECT_EQ(probes_[2].Count<VoteCpMsg>(), 1);

  // C1: a second campaign for the same view (even from another server)
  // gets no vote.
  auto rival = std::make_shared<CampMsg>();
  *rival = *camp;
  rival->sig = keys_.Sign(3, CampaignDigest(*rival));
  Deliver(3, rival);
  EXPECT_EQ(probes_[3].Count<VoteCpMsg>(), 0);
}

TEST_F(ReplicaUnitTest, ConfVcForComplaintRequiresMatchingComplaint) {
  // A ConfVC citing a complaint this replica never saw gets no ReVC.
  auto conf = std::make_shared<ConfVcMsg>();
  conf->v = 1;
  conf->reason = VcReason::kClientComplaint;
  conf->tx.pool = 0;
  conf->tx.client_seq = 4242;
  conf->sig = keys_.Sign(2, ledger::ConfDigest(1));
  Deliver(2, conf);
  EXPECT_EQ(probes_[2].Count<ReVcMsg>(), 0);
}

TEST_F(ReplicaUnitTest, TimeoutConfVcSupportedOnlyWhenStale) {
  auto conf = std::make_shared<ConfVcMsg>();
  conf->v = 1;
  conf->reason = VcReason::kTimeout;
  conf->sig = keys_.Sign(2, ledger::ConfDigest(1));
  // Not stale yet: no support.
  Deliver(2, conf);
  EXPECT_EQ(probes_[2].Count<ReVcMsg>(), 0);

  // Let the progress timer expire (no leader traffic), then retry.
  sim_.RunUntil(sim_.Now() + Millis(700));
  Deliver(2, conf);
  EXPECT_EQ(probes_[2].Count<ReVcMsg>(), 1);
}

TEST_F(ReplicaUnitTest, StaleViewMessagesIgnored) {
  auto ord = MakeOrd(1);
  ord->v = 0;  // Below the replica's view.
  Deliver(0, ord);
  EXPECT_EQ(probes_[0].Count<OrdReplyMsg>(), 0);
}

// ------------------------------------------------------------ leader side

/// Replica 0 as the genesis leader surrounded by probes: exercises the
/// leader's batching pipeline directly.
class LeaderUnitTest : public ::testing::Test {
 protected:
  LeaderUnitTest()
      : sim_(1),
        net_(&sim_, sim::LatencyModel::Fixed(0.5), sim::CostModel{}),
        keys_(99) {
    PrestigeConfig config;
    config.n = 4;
    config.batch_size = 10;
    config.max_inflight = 1;  // A single full batch wedges the pipeline.
    config.batch_wait = Millis(20);
    // Keep heartbeats / retransmissions / timeouts out of the test window.
    config.timeout_min = util::Seconds(10);
    config.timeout_max = util::Seconds(11);
    leader_ = std::make_unique<PrestigeReplica>(config, 0, &keys_);

    leader_env_ = std::make_unique<runtime::SimEnv>(leader_.get());
    sim_.AddActor(leader_env_.get());
    leader_env_->AttachNetwork(&net_);
    for (int i = 1; i <= 3; ++i) {
      sim_.AddActor(&probes_[i]);
      probes_[i].AttachNetwork(&net_);
    }
    sim_.AddActor(&client_probe_);
    client_probe_.AttachNetwork(&net_);

    leader_->SetTopology({0, 1, 2, 3}, {4});
    sim_.ScheduleAfter(0, [this] { leader_->OnStart(); });
    sim_.RunUntil(1);
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyStore keys_;
  std::unique_ptr<PrestigeReplica> leader_;
  std::unique_ptr<runtime::SimEnv> leader_env_;
  Probe probes_[4];  // Indices 1..3 are the peer replicas.
  Probe client_probe_;
};

// Regression: the batch timer fired while the pipeline was full used to
// consume the partial-batch trigger — the leftover transactions then waited
// a whole extra batch_wait after a slot freed (and kept starving while the
// timer kept landing on a full pipeline). The expired deadline must survive
// until the partial is actually proposed.
TEST_F(LeaderUnitTest, PartialBatchSurvivesFullPipeline) {
  // 13 transactions: one full batch (10) occupies the single pipeline
  // slot; 3 are left pending behind the armed batch timer.
  auto batch = std::make_shared<types::ClientBatch>();
  for (uint64_t i = 0; i < 13; ++i) {
    types::Transaction tx;
    tx.pool = 0;
    tx.client_seq = i + 1;
    tx.fingerprint = 0x1000 + i;
    batch->txs.push_back(tx);
  }
  sim_.ScheduleAt(Millis(1), [&] { net_.Send(4, 0, batch); });
  sim_.RunUntil(Millis(5));
  ASSERT_EQ(probes_[1].Count<OrdMsg>(), 1);
  EXPECT_EQ(leader_->inflight_instances(), 1u);
  EXPECT_EQ(leader_->pending_pool_size(), 3u);

  // The batch timer fires (~22 ms) while the pipeline is still full: the
  // partial cannot go out, but the trigger must not be lost.
  sim_.RunUntil(Millis(30));
  ASSERT_EQ(probes_[1].Count<OrdMsg>(), 1);
  EXPECT_EQ(leader_->pending_pool_size(), 3u);

  // Complete the in-flight instance: ordering replies from replicas 2 + 3
  // (quorum with the leader's own signature), then commit replies.
  const OrdMsg* ord = probes_[1].Last<OrdMsg>();
  ASSERT_NE(ord, nullptr);
  ledger::TxBlock block;
  block.v = ord->v;
  block.set_n(ord->n);
  block.set_prev_hash(ord->prev_hash);
  block.set_txs(ord->txs);
  block.status.assign(block.BatchSize(), 1);
  const crypto::Sha256Digest digest = block.Digest();
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(ord->v, ord->n, digest);
  for (uint32_t r : {2u, 3u}) {
    auto reply = std::make_shared<OrdReplyMsg>();
    reply->v = ord->v;
    reply->n = ord->n;
    reply->partial = crypto::Signer(&keys_, r).Sign(ord_digest);
    net_.Send(r, 0, reply);
  }
  sim_.RunUntil(Millis(32));
  ASSERT_EQ(probes_[1].Count<CmtMsg>(), 1);
  const crypto::Sha256Digest cmt_digest =
      ledger::CommitDigest(ord->v, ord->n, digest);
  for (uint32_t r : {2u, 3u}) {
    auto reply = std::make_shared<CmtReplyMsg>();
    reply->v = ord->v;
    reply->n = ord->n;
    reply->partial = crypto::Signer(&keys_, r).Sign(cmt_digest);
    net_.Send(r, 0, reply);
  }

  // The slot frees on commit (~33 ms). The overdue partial must be
  // proposed immediately — the re-armed timer alone would only fire at
  // ~42 ms, after this deadline.
  sim_.RunUntil(Millis(38));
  ASSERT_EQ(probes_[1].Count<OrdMsg>(), 2);
  EXPECT_EQ(probes_[1].Last<OrdMsg>()->txs.size(), 3u);
  EXPECT_EQ(leader_->pending_pool_size(), 0u);
}

// The request pool references the delivered ClientBatch instead of copying
// its requests. Once the network lets go of the message the pool holds the
// only reference, and the proposal built from it must still carry the
// original requests (the ASan build turns a dangling reference into a
// reported use-after-free).
TEST_F(LeaderUnitTest, ProposesFromABatchOnlyThePoolHolds) {
  auto batch = std::make_shared<types::ClientBatch>();
  for (uint64_t i = 0; i < 3; ++i) {
    types::Transaction tx;
    tx.pool = 0;
    tx.client_seq = i + 1;
    tx.fingerprint = 0x2000 + i;
    tx.command.assign(40, static_cast<uint8_t>(i + 1));
    batch->txs.push_back(tx);
  }
  const std::vector<types::Transaction> sent = batch->txs;
  std::weak_ptr<const types::ClientBatch> watch = batch;
  net_.Send(4, 0, std::move(batch));
  sim_.RunUntil(Millis(5));
  // Delivered and pooled (3 < batch_size): nothing else holds it now.
  EXPECT_EQ(leader_->pending_pool_size(), 3u);
  EXPECT_EQ(watch.use_count(), 1);

  // The batch timer (20 ms) proposes the partial batch from the pool.
  sim_.RunUntil(Millis(30));
  ASSERT_EQ(probes_[1].Count<OrdMsg>(), 1);
  EXPECT_EQ(probes_[1].Last<OrdMsg>()->txs.ToVector(), sent);
  EXPECT_EQ(leader_->pending_pool_size(), 0u);
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------- complaint / probe lifecycle
//
// Complaint-wait timer tags carry only 48 payload bits, so 64-bit
// complaint keys route through the complaint_probe_keys_ table. These
// tests pin the table's lifecycle: entries must die with their complaint
// on every resolution path — commit, fire, and view install — never only
// when the timer fires.

/// Complaint/commit helpers layered on the ReplicaUnitTest fixture.
class ComplaintLifecycleTest : public ReplicaUnitTest {
 protected:
  types::Transaction MakeTx(uint64_t seq) {
    types::Transaction tx;
    tx.pool = 0;
    tx.client_seq = seq;
    tx.fingerprint = seq * 31 + 7;
    return tx;
  }

  void Complain(const types::Transaction& tx) {
    auto compt = std::make_shared<types::ClientComplaint>();
    compt->tx = tx;
    Deliver(4, compt);  // Actor 4 is the client-pool probe.
  }

  /// Commits `tx` at the replica's next sequence via a QC-bearing
  /// TxBlockMsg (the follower commit path).
  void Commit(const types::Transaction& tx) {
    ledger::TxBlock block;
    block.v = 1;
    block.set_n(replica_->store().LatestTxSeq() + 1);
    block.set_prev_hash(replica_->store().LatestTxDigest());
    block.set_txs({tx});
    const crypto::Sha256Digest cmt_digest =
        ledger::CommitDigest(block.v, block.n(), block.Digest());
    crypto::QuorumCertBuilder builder(cmt_digest, 3);
    for (uint32_t r : {0u, 1u, 2u}) {
      builder.Add(keys_.Sign(r, cmt_digest), cmt_digest);
    }
    block.commit_qc = builder.Build();
    auto msg = std::make_shared<TxBlockMsg>();
    msg->block = block;
    Deliver(0, msg);
  }
};

TEST_F(ComplaintLifecycleTest, CommitResolutionErasesProbeBeforeTimerFires) {
  const types::Transaction tx = MakeTx(1);
  Complain(tx);
  EXPECT_EQ(replica_->complaint_count(), 1u);
  EXPECT_EQ(replica_->complaint_probe_count(), 1u);

  Commit(tx);  // Well before the 300 ms complaint wait.
  EXPECT_EQ(replica_->complaint_count(), 0u);
  EXPECT_EQ(replica_->complaint_probe_count(), 0u);
}

TEST_F(ComplaintLifecycleTest, ChurningComplaintsKeepsProbeTableBounded) {
  // Complain → commit, many times over: both tables must return to empty
  // every round, not accumulate fired-or-cancelled leftovers.
  for (uint64_t round = 1; round <= 12; ++round) {
    const types::Transaction tx = MakeTx(round);
    Complain(tx);
    ASSERT_EQ(replica_->complaint_count(), 1u) << "round " << round;
    ASSERT_EQ(replica_->complaint_probe_count(), 1u) << "round " << round;
    Commit(tx);
    ASSERT_EQ(replica_->complaint_count(), 0u) << "round " << round;
    ASSERT_EQ(replica_->complaint_probe_count(), 0u) << "round " << round;
  }
}

TEST_F(ComplaintLifecycleTest, EscalationReComplaintCycleDoesNotLeakProbes) {
  const types::Transaction tx = MakeTx(1);
  // Repeatedly let the complaint wait expire (escalation), then
  // re-complain: each cycle arms a fresh probe and retires the old one.
  for (int cycle = 0; cycle < 6; ++cycle) {
    Complain(tx);
    ASSERT_EQ(replica_->complaint_count(), 1u);
    ASSERT_LE(replica_->complaint_probe_count(), 1u);
    sim_.RunUntil(sim_.Now() + Millis(350));  // Past complaint_wait.
    // Fired timer retires its probe; the escalated complaint remains for
    // peers' ConfVC support checks.
    ASSERT_EQ(replica_->complaint_probe_count(), 0u);
    ASSERT_EQ(replica_->complaint_count(), 1u);
  }
  Commit(tx);
  EXPECT_EQ(replica_->complaint_count(), 0u);
  EXPECT_EQ(replica_->complaint_probe_count(), 0u);
}

TEST_F(ComplaintLifecycleTest, UncommittedComplaintsClearOnViewInstall) {
  Complain(MakeTx(1));
  Complain(MakeTx(2));
  EXPECT_EQ(replica_->complaint_count(), 2u);
  EXPECT_EQ(replica_->complaint_probe_count(), 2u);

  // Install view 2 via sync: complaints targeted the old leader, so both
  // tables clear together.
  ledger::VcBlock block;
  block.set_v(2);
  block.set_leader(2);
  block.set_confirmed_view(1);
  block.set_prev_hash(replica_->store().LatestVcBlock()->Digest());
  for (types::ReplicaId r = 0; r < 4; ++r) {
    block.SetPenalty(r, 1);
    block.SetCompensation(r, 1);
  }
  const crypto::Sha256Digest conf_digest = ledger::ConfDigest(1);
  crypto::QuorumCertBuilder conf(conf_digest, 2);
  for (uint32_t r : {2u, 3u}) conf.Add(keys_.Sign(r, conf_digest), conf_digest);
  block.conf_qc = conf.Build();
  const crypto::Sha256Digest vote_digest = ledger::VoteDigest(2, 2);
  crypto::QuorumCertBuilder votes(vote_digest, 3);
  for (uint32_t r : {0u, 2u, 3u}) {
    votes.Add(keys_.Sign(r, vote_digest), vote_digest);
  }
  block.vc_qc = votes.Build();

  auto sync = std::make_shared<SyncRespMsg>();
  sync->vc_blocks.push_back(block);
  Deliver(2, sync);

  EXPECT_EQ(replica_->view(), 2);
  EXPECT_EQ(replica_->complaint_count(), 0u);
  EXPECT_EQ(replica_->complaint_probe_count(), 0u);
}

// ----------------------------------------------------- refresh overlay

/// Pins EffectiveRp / EffectiveCi semantics: stored vcBlock values by
/// default, refresh overlay takes precedence, overlay folds away on the
/// next vcBlock install (§4.2.5).
class RefreshOverlayTest : public ReplicaUnitTest {
 protected:
  /// Builds a fully certified vcBlock extending the replica's chain.
  ledger::VcBlock MakeVcBlock(types::View v, types::ReplicaId leader) {
    ledger::VcBlock block;
    block.set_v(v);
    block.set_leader(leader);
    block.set_confirmed_view(v - 1);
    block.set_prev_hash(replica_->store().LatestVcBlock()->Digest());
    const crypto::Sha256Digest conf_digest = ledger::ConfDigest(v - 1);
    crypto::QuorumCertBuilder conf(conf_digest, 2);
    for (uint32_t r : {2u, 3u}) {
      conf.Add(keys_.Sign(r, conf_digest), conf_digest);
    }
    block.conf_qc = conf.Build();
    const crypto::Sha256Digest vote_digest = ledger::VoteDigest(v, leader);
    crypto::QuorumCertBuilder votes(vote_digest, 3);
    for (uint32_t r : {0u, 2u, 3u}) {
      votes.Add(keys_.Sign(r, vote_digest), vote_digest);
    }
    block.vc_qc = votes.Build();
    return block;
  }

  void Install(const ledger::VcBlock& block) {
    auto sync = std::make_shared<SyncRespMsg>();
    sync->vc_blocks.push_back(block);
    Deliver(2, sync);
  }
};

TEST_F(RefreshOverlayTest, GenesisYieldsInitialValues) {
  for (types::ReplicaId r = 0; r < 4; ++r) {
    EXPECT_EQ(replica_->EffectiveRp(r), 1);
    EXPECT_EQ(replica_->EffectiveCi(r), 1);
  }
}

TEST_F(RefreshOverlayTest, VcBlockValuesAreAuthoritativeWithoutOverlay) {
  ledger::VcBlock block = MakeVcBlock(2, /*leader=*/2);
  block.SetPenalty(3, 7);
  block.SetCompensation(3, 4);
  Install(block);
  ASSERT_EQ(replica_->view(), 2);
  EXPECT_EQ(replica_->EffectiveRp(3), 7);
  EXPECT_EQ(replica_->EffectiveCi(3), 4);
  // Untouched ids read the block defaults.
  EXPECT_EQ(replica_->EffectiveRp(2), 1);
  EXPECT_EQ(replica_->EffectiveCi(2), 1);
}

TEST_F(RefreshOverlayTest, OverlayTakesPrecedenceOverStoredValues) {
  ledger::VcBlock block = MakeVcBlock(2, /*leader=*/2);
  block.SetPenalty(3, 9);
  block.SetCompensation(3, 5);
  Install(block);
  ASSERT_EQ(replica_->EffectiveRp(3), 9);

  // A certified Rdone resets replica 3's effective values to the initial
  // ones even though the stored vcBlock still says 9/5.
  const crypto::Sha256Digest refresh_digest = ledger::RefreshDigest(3, 2);
  crypto::QuorumCertBuilder rs(refresh_digest, 3);
  for (uint32_t r : {0u, 2u, 3u}) {
    rs.Add(keys_.Sign(r, refresh_digest), refresh_digest);
  }
  auto done = std::make_shared<RdoneMsg>();
  done->target = 3;
  done->v = 2;
  done->rs_qc = rs.Build();
  done->sig = keys_.Sign(3, refresh_digest);
  Deliver(3, done);

  EXPECT_EQ(replica_->EffectiveRp(3), 1);
  EXPECT_EQ(replica_->EffectiveCi(3), 1);
  // The overlay is per-server: others still read stored values.
  EXPECT_EQ(replica_->EffectiveRp(2), 1);
  // The store itself is untouched — only the overlay differs.
  EXPECT_EQ(replica_->store().LatestVcBlock()->PenaltyOf(3), 9);
}

TEST_F(RefreshOverlayTest, OverlayFoldsAwayOnNextVcBlockInstall) {
  ledger::VcBlock block = MakeVcBlock(2, /*leader=*/2);
  block.SetPenalty(3, 9);
  Install(block);

  const crypto::Sha256Digest refresh_digest = ledger::RefreshDigest(3, 2);
  crypto::QuorumCertBuilder rs(refresh_digest, 3);
  for (uint32_t r : {0u, 2u, 3u}) {
    rs.Add(keys_.Sign(r, refresh_digest), refresh_digest);
  }
  auto done = std::make_shared<RdoneMsg>();
  done->target = 3;
  done->v = 2;
  done->rs_qc = rs.Build();
  done->sig = keys_.Sign(3, refresh_digest);
  Deliver(3, done);
  ASSERT_EQ(replica_->EffectiveRp(3), 1);  // Overlay active.

  // The next vcBlock is assumed to carry the folded-in values; the
  // overlay must yield to whatever it records.
  ledger::VcBlock next = MakeVcBlock(3, /*leader=*/3);
  next.SetPenalty(3, 5);
  next.SetCompensation(3, 2);
  Install(next);
  ASSERT_EQ(replica_->view(), 3);
  EXPECT_EQ(replica_->EffectiveRp(3), 5);
  EXPECT_EQ(replica_->EffectiveCi(3), 2);
}

}  // namespace
}  // namespace core
}  // namespace prestige
