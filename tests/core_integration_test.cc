// Integration tests for PrestigeBFT: end-to-end clusters on the simulator.
// Covers normal-operation replication, safety (identical chains), active
// view changes under leader crash / quiet / equivocation, the timing
// policy, repeated-VC attacks and reputation suppression, and refresh.

#include <gtest/gtest.h>

#include "app/kv_service.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"

namespace prestige {
namespace core {
namespace {

using harness::Cluster;
using harness::WorkloadOptions;
using util::Millis;
using util::Seconds;

using PrestigeCluster = Cluster<PrestigeReplica, PrestigeConfig>;

PrestigeConfig SmallConfig(uint32_t n = 4) {
  PrestigeConfig config;
  config.n = n;
  config.batch_size = 100;
  config.batch_wait = Millis(2);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);
  config.election_timeout = Millis(300);
  config.complaint_wait = Millis(200);
  return config;
}

WorkloadOptions SmallWorkload(uint64_t seed = 1) {
  WorkloadOptions w;
  w.num_pools = 4;
  w.clients_per_pool = 50;
  w.payload_size = 32;
  w.client_timeout = Millis(800);
  w.seed = seed;
  return w;
}

/// Asserts that every pair of replicas' tx chains agree block-for-block on
/// the common prefix (Theorem 3 / safety).
void ExpectConsistentChains(PrestigeCluster& cluster) {
  for (uint32_t i = 1; i < cluster.num_replicas(); ++i) {
    const auto& a = cluster.replica(0).store().tx_chain();
    const auto& b = cluster.replica(i).store().tx_chain();
    const size_t common = std::min(a.size(), b.size());
    for (size_t k = 0; k < common; ++k) {
      ASSERT_EQ(a[k].Digest(), b[k].Digest())
          << "chain divergence at block " << k << " on replica " << i;
    }
  }
}

// ------------------------------------------------------- normal operation

TEST(PrestigeIntegrationTest, CommitsUnderNormalOperation) {
  PrestigeCluster cluster(SmallConfig(), SmallWorkload());
  cluster.Start();
  cluster.RunFor(Seconds(3));

  EXPECT_GT(cluster.ClientCommitted(), 1000);
  EXPECT_GT(cluster.replica(0).metrics().committed_blocks, 5);
  // No view change should have occurred (Theorem 4: stable view under a
  // correct leader).
  EXPECT_EQ(cluster.replica(0).view(), 1);
  EXPECT_TRUE(cluster.replica(0).IsLeader());
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, AllReplicasApplySameState) {
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(7));
  cluster.InstallServices(
      [] { return std::make_unique<app::KvService>(256); });
  cluster.Start();
  cluster.RunFor(Seconds(3));

  const app::Service& reference = cluster.replica(0).service();
  EXPECT_GT(reference.applied_count(), 0);
  for (uint32_t i = 1; i < 4; ++i) {
    const app::Service& sm = cluster.replica(i).service();
    // Chains are prefix-consistent; the rolling digest is only comparable
    // between replicas that executed the same number of commands.
    if (sm.applied_count() == reference.applied_count()) {
      EXPECT_EQ(sm.StateDigest(), reference.StateDigest());
    }
  }
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, LatencyIsReasonable) {
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(3));
  cluster.Start();
  cluster.RunFor(Seconds(3));
  const double mean = cluster.MeanLatencyMs();
  EXPECT_GT(mean, 1.0);    // At least a couple network hops.
  EXPECT_LT(mean, 300.0);  // Far below any timeout.
}

TEST(PrestigeIntegrationTest, ThroughputScalesWithBatchSize) {
  auto run = [](size_t batch) {
    PrestigeConfig config = SmallConfig();
    config.batch_size = batch;
    WorkloadOptions w = SmallWorkload(11);
    w.num_pools = 8;
    w.clients_per_pool = 200;
    PrestigeCluster cluster(config, w);
    cluster.Start();
    cluster.RunFor(Seconds(3));
    return cluster.ClientCommitted();
  };
  const int64_t small = run(10);
  const int64_t large = run(400);
  EXPECT_GT(large, small);
}

// ------------------------------------------------------------ view change

TEST(PrestigeIntegrationTest, CrashedLeaderIsReplaced) {
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(5));
  cluster.Start();
  cluster.RunFor(Seconds(1));
  const int64_t before = cluster.ClientCommitted();
  EXPECT_GT(before, 0);

  cluster.SetReplicaDown(0, true);  // Kill the view-1 leader.
  cluster.RunFor(Seconds(5));

  // A new leader was elected in a higher view and commits resumed.
  types::View max_view = 0;
  int leaders = 0;
  for (uint32_t i = 1; i < 4; ++i) {
    max_view = std::max(max_view, cluster.replica(i).view());
    if (cluster.replica(i).IsLeader()) ++leaders;
  }
  EXPECT_GT(max_view, 1);
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(cluster.ClientCommitted(), before);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, QuietLeaderIsReplaced) {
  // F2 applied to the initial leader mid-run.
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[0] = types::FaultSpec::Quiet(Seconds(1));
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(9), faults);
  cluster.Start();
  cluster.RunFor(Seconds(6));

  int leaders = 0;
  for (uint32_t i = 1; i < 4; ++i) {
    if (cluster.replica(i).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(cluster.replica(1).view(), 1);
  // Commits resumed after the view change.
  const auto& timeline = cluster.replica(1).metrics().commit_timeline;
  ASSERT_GE(timeline.buckets().size(), 5u);
  EXPECT_GT(timeline.buckets().back(), 0);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, ElectedLeaderIsUpToDate) {
  // Optimistic responsiveness (P2): after the crash, the new leader's chain
  // must be at least as long as any honest replica's chain at crash time.
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(13));
  cluster.Start();
  cluster.RunFor(Seconds(1));
  std::vector<types::SeqNum> seqs;
  for (uint32_t i = 1; i < 4; ++i) {
    seqs.push_back(cluster.replica(i).store().LatestTxSeq());
  }
  const types::SeqNum max_seq = *std::max_element(seqs.begin(), seqs.end());
  cluster.SetReplicaDown(0, true);
  cluster.RunFor(Seconds(4));
  for (uint32_t i = 1; i < 4; ++i) {
    if (cluster.replica(i).IsLeader()) {
      EXPECT_GE(cluster.replica(i).store().LatestTxSeq(), max_seq);
    }
  }
}

TEST(PrestigeIntegrationTest, TimingPolicyRotatesLeadership) {
  PrestigeConfig config = SmallConfig();
  config.rotation_period = Seconds(1);  // Aggressive r1 for test speed.
  WorkloadOptions w = SmallWorkload(17);
  PrestigeCluster cluster(config, w);
  cluster.Start();
  cluster.RunFor(Seconds(8));

  // Several policy-driven view changes happened and throughput persisted.
  types::View max_view = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    max_view = std::max(max_view, cluster.replica(i).view());
  }
  EXPECT_GE(max_view, 4);
  EXPECT_GT(cluster.ClientCommitted(), 1000);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, EquivocatingFollowersDoNotBlockProgress) {
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[3] = types::FaultSpec::Equivocate();
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(19), faults);
  cluster.Start();
  cluster.RunFor(Seconds(3));
  EXPECT_GT(cluster.ClientCommitted(), 500);
  // The leader rejected the corrupted replies.
  EXPECT_GT(cluster.replica(0).metrics().invalid_messages, 0);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, QuietFollowerDoesNotTriggerViewChange) {
  // Theorem 4: under a correct leader no view change occurs, even with a
  // quiet (crash-like) follower.
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[2] = types::FaultSpec::Quiet();
  PrestigeCluster cluster(SmallConfig(), SmallWorkload(21), faults);
  cluster.Start();
  cluster.RunFor(Seconds(4));
  EXPECT_EQ(cluster.replica(0).view(), 1);
  EXPECT_TRUE(cluster.replica(0).IsLeader());
  EXPECT_GT(cluster.ClientCommitted(), 500);
}

// --------------------------------------------------- reputation dynamics

TEST(PrestigeIntegrationTest, RepeatedVcAttackerAccumulatesPenalty) {
  PrestigeConfig config = SmallConfig();
  config.rotation_period = Seconds(1);  // Give attackers opportunities.
  std::vector<types::FaultSpec> faults(4, types::FaultSpec::Honest());
  faults[3] = types::FaultSpec::RepeatedVc(
      types::AttackStrategy::kS1, types::LeaderMisbehaviour::kQuiet);
  WorkloadOptions w = SmallWorkload(23);
  PrestigeCluster cluster(config, w, faults);
  cluster.Start();
  cluster.RunFor(Seconds(12));

  // The attacker won elections early (its head start beats honest
  // courtesy delays while its penalty is low), and its penalty climbed at
  // least as high as any honest server's (honest penalties also drift up
  // under frequent rotation — the paper's Q4 — until refresh).
  const types::Penalty attacker_rp = cluster.replica(0).EffectiveRp(3);
  types::Penalty honest_max = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    honest_max =
        std::max(honest_max, cluster.replica(0).EffectiveRp(i));
  }
  EXPECT_GE(attacker_rp, honest_max);
  EXPECT_GT(attacker_rp, 1);
  EXPECT_GE(cluster.replica(3).metrics().elections_won, 1);
  // And the system still commits.
  const auto& timeline = cluster.replica(0).metrics().commit_timeline;
  ASSERT_GE(timeline.buckets().size(), 10u);
  int64_t late = 0;
  for (size_t i = timeline.buckets().size() - 4; i < timeline.buckets().size();
       ++i) {
    late += timeline.buckets()[i];
  }
  EXPECT_GT(late, 0);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, RealPowModeElectsLeader) {
  // End-to-end with actual SHA-256 puzzles (small penalties => cheap).
  PrestigeConfig config = SmallConfig();
  config.pow_mode = PowMode::kReal;
  config.pow.bits_per_unit = 4;
  PrestigeCluster cluster(config, SmallWorkload(29));
  cluster.Start();
  cluster.RunFor(Seconds(1));
  cluster.SetReplicaDown(0, true);
  cluster.RunFor(Seconds(5));
  int leaders = 0;
  for (uint32_t i = 1; i < 4; ++i) {
    if (cluster.replica(i).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, LargerClusterCommitsAndHandlesCrash) {
  PrestigeConfig config = SmallConfig(7);
  WorkloadOptions w = SmallWorkload(31);
  PrestigeCluster cluster(config, w);
  cluster.Start();
  cluster.RunFor(Seconds(1));
  cluster.SetReplicaDown(0, true);
  cluster.RunFor(Seconds(5));
  int leaders = 0;
  for (uint32_t i = 1; i < 7; ++i) {
    if (cluster.replica(i).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(cluster.ClientCommitted(), 100);
  ExpectConsistentChains(cluster);
}

TEST(PrestigeIntegrationTest, SingleReplicaCommits) {
  // n = 1: every quorum is the leader's own partial, so a block is ordered
  // and committed the moment it is proposed.
  PrestigeCluster cluster(SmallConfig(/*n=*/1), SmallWorkload());
  cluster.Start();
  cluster.RunFor(Seconds(3));

  const PrestigeReplica& replica = cluster.replica(0);
  EXPECT_GT(cluster.ClientCommitted(), 1000);
  EXPECT_EQ(replica.view(), 1);
  EXPECT_EQ(replica.inflight_instances(), 0u);
  const auto& chain = replica.store().tx_chain();
  ASSERT_GT(chain.size(), 5u);
  EXPECT_EQ(replica.metrics().committed_blocks,
            static_cast<int64_t>(chain.size()));
  crypto::Sha256Digest prev{};
  for (size_t k = 0; k < chain.size(); ++k) {
    ASSERT_EQ(chain[k].n(), static_cast<types::SeqNum>(k + 1));
    ASSERT_EQ(chain[k].prev_hash(), prev) << "broken link at block " << k;
    ASSERT_EQ(chain[k].commit_qc.partials.size(), 1u);
    prev = chain[k].Digest();
  }
  EXPECT_TRUE(harness::CheckSafety(cluster).ok);
}

TEST(PrestigeIntegrationTest, DeterministicRuns) {
  auto run = [](uint64_t seed) {
    PrestigeCluster cluster(SmallConfig(), SmallWorkload(seed));
    cluster.Start();
    cluster.RunFor(Seconds(2));
    return std::make_pair(cluster.ClientCommitted(),
                          cluster.replica(0).store().LatestTxDigest());
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace core
}  // namespace prestige
