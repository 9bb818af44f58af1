// Tests for the sharding layer: shard::Router unit behaviour, the
// multi-group harness wiring, the cross-group safety sweep, and the
// sharded open-loop runner on the deterministic simulator and the
// threaded runtime.

#include <gtest/gtest.h>

#include <vector>

#include "app/kv_service.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/sharded_runner.h"
#include "shard/router.h"
#include "types/transaction.h"

namespace prestige {
namespace shard {
namespace {

using core::PrestigeConfig;
using core::PrestigeReplica;
using harness::WorkloadOptions;
using util::Millis;
using util::Seconds;

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

// --------------------------------------------------------------- Router

TEST(RouterTest, AssignmentIsAFunctionOfKeyAndGeometry) {
  const Router a(8);
  const Router b(8);
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.GroupForKey(key), b.GroupForKey(key));
    EXPECT_LT(a.GroupForKey(key), 8u);
  }
  // A different salt is a different partition (some key must move).
  const Router salted(8, /*salt=*/12345);
  bool any_moved = false;
  for (uint64_t key = 0; key < 1000 && !any_moved; ++key) {
    any_moved = salted.GroupForKey(key) != a.GroupForKey(key);
  }
  EXPECT_TRUE(any_moved);
}

TEST(RouterTest, SpreadsKeysRoughlyEvenly) {
  const uint32_t groups = 8;
  const uint64_t keys = 100000;
  const Router router(groups);
  std::vector<int64_t> per_group(groups, 0);
  for (uint64_t key = 0; key < keys; ++key) {
    ++per_group[router.GroupForKey(key)];
  }
  const double mean = static_cast<double>(keys) / groups;
  for (uint32_t g = 0; g < groups; ++g) {
    // An avalanche hash over 100k keys lands far inside these bounds;
    // only a broken mix (e.g. modulo on raw sequential keys with a
    // stripe-aligned group count) escapes them.
    EXPECT_GT(per_group[g], mean * 0.8) << "group " << g << " starved";
    EXPECT_LT(per_group[g], mean * 1.2) << "group " << g << " overloaded";
  }
}

TEST(RouterTest, ZeroGroupsClampsToOne) {
  const Router router(0);
  EXPECT_EQ(router.num_groups(), 1u);
  EXPECT_EQ(router.GroupForKey(42), 0u);
}

TEST(RouterTest, RoutingKeyDecodesKvCommandsAndFallsBackToFingerprint) {
  types::Transaction tx;
  tx.command = app::kv::EncodePut(777, 1);
  EXPECT_EQ(Router::RoutingKey(tx), 777u);

  tx.command = app::kv::EncodeGet(424242);
  EXPECT_EQ(Router::RoutingKey(tx), 424242u);

  tx.command.clear();
  tx.fingerprint = 0xdeadbeef;
  EXPECT_EQ(Router::RoutingKey(tx), 0xdeadbeefu);

  // Unknown opcodes are opaque: route on the fingerprint, not on bytes
  // that merely resemble a key.
  tx.command = {0x7f, 1, 2, 3};
  EXPECT_EQ(Router::RoutingKey(tx), 0xdeadbeefu);
}

TEST(RouterTest, VerifyRoutingAssignmentCatchesMisplacedAndMisstamped) {
  const Router router(4);
  types::Transaction tx;
  tx.command = app::kv::EncodePut(99, 0);
  const types::GroupId owner = router.GroupForTransaction(tx);
  tx.group = owner;

  std::string violation;
  EXPECT_TRUE(VerifyRoutingAssignment(router, owner, tx, &violation));

  // Committed in a group the router does not assign the key to.
  const types::GroupId wrong = (owner + 1) % 4;
  EXPECT_FALSE(VerifyRoutingAssignment(router, wrong, tx, &violation));
  EXPECT_NE(violation.find("router assigns"), std::string::npos);

  // Right group, but the digest-covered stamp disagrees (a re-homed
  // transaction would look exactly like this).
  tx.group = wrong;
  EXPECT_FALSE(VerifyRoutingAssignment(router, owner, tx, &violation));
  EXPECT_NE(violation.find("stamped"), std::string::npos);
}

// ------------------------------------------------- multi-group deployments

WorkloadOptions ShardedWorkload(uint32_t groups, uint64_t seed = 1) {
  WorkloadOptions w;
  w.num_pools = 2;  // Per group.
  w.payload_size = 32;
  w.client_timeout = Millis(800);
  w.seed = seed;
  w.kv_key_space = 4096;
  w.num_groups = groups;
  w.open_loop = true;
  w.arrival.kind = workload::ArrivalKind::kPoisson;
  w.arrival.rate_per_sec = 2000.0;  // Per pool.
  w.logical_sessions = 100000;
  w.zipf_theta = 0.5;
  w.max_outstanding = 256;
  w.max_backlog = 1024;
  w.slo_ms = 800.0;
  return w;
}

TEST(ShardedClusterTest, EveryGroupCommitsAndSafetySweepPasses) {
  const auto result = harness::RunSharded<PrestigeReplica, PrestigeConfig>(
      SmallConfig(), ShardedWorkload(/*groups=*/2), Seconds(2),
      [] { return std::make_unique<app::KvService>(4096); });

  EXPECT_TRUE(result.safety_ok) << result.violation;
  ASSERT_EQ(result.groups, 2u);
  ASSERT_EQ(result.per_group.size(), 2u);
  int64_t per_group_sum = 0;
  for (uint32_t g = 0; g < 2; ++g) {
    EXPECT_GT(result.per_group[g].committed, 100)
        << "group " << g << " barely committed";
    per_group_sum += result.per_group[g].committed;
  }
  EXPECT_EQ(result.committed, per_group_sum);
  EXPECT_GT(result.arrivals, 0);
  EXPECT_GT(result.routed_txs, 0);
  EXPECT_GT(result.distinct_keys, 1);
  EXPECT_EQ(result.result_mismatches, 0);
}

TEST(ShardedClusterTest, ThreadedShardedRunCountsOpenLoopReplies) {
  // Replies and result mismatches must count open-loop pools: every
  // sharded run is open-loop, so a count over closed-loop pools alone
  // reads zero and a forged result would go unseen.
  const auto result =
      harness::RunSharded<PrestigeReplica, PrestigeConfig,
                          harness::ThreadedBackend>(
          SmallConfig(), ShardedWorkload(/*groups=*/2), Seconds(1),
          [] { return std::make_unique<app::KvService>(4096); });

  EXPECT_TRUE(result.safety_ok) << result.violation;
  EXPECT_GT(result.committed, 0);
  EXPECT_GT(result.replies, 0);
  EXPECT_EQ(result.result_mismatches, 0);
}

TEST(ShardedClusterTest, ShardedSimRunIsDeterministicPerSeed) {
  const auto a = harness::RunSharded<PrestigeReplica, PrestigeConfig>(
      SmallConfig(), ShardedWorkload(2, /*seed=*/9), Seconds(1));
  const auto b = harness::RunSharded<PrestigeReplica, PrestigeConfig>(
      SmallConfig(), ShardedWorkload(2, /*seed=*/9), Seconds(1));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.distinct_keys, b.distinct_keys);
  ASSERT_EQ(a.per_group.size(), b.per_group.size());
  for (size_t g = 0; g < a.per_group.size(); ++g) {
    EXPECT_EQ(a.per_group[g].committed, b.per_group[g].committed);
  }
}

TEST(ShardedClusterTest, GroupsRunIndependentLeadersAndViews) {
  // Two groups on one simulator: each elects its own leader (replica 0 of
  // its own slice under stable views) and neither's view depends on the
  // other's existence.
  harness::Cluster<PrestigeReplica, PrestigeConfig> cluster(
      SmallConfig(), ShardedWorkload(2));
  cluster.Start();
  cluster.RunFor(Seconds(1));

  ASSERT_EQ(cluster.num_groups(), 2u);
  ASSERT_EQ(cluster.num_replicas(), 8u);
  for (uint32_t g = 0; g < 2; ++g) {
    EXPECT_EQ(cluster.group_replica(g, 0).view(), 1u)
        << "group " << g << " lost its stable view";
    EXPECT_TRUE(cluster.group_replica(g, 0).IsLeader());
  }
}

TEST(ShardedClusterTest, ClosedLoopShardedWorkloadRoutesCleanly) {
  // The closed-loop ClientPool also rejection-samples keys per group; the
  // sweep must come back clean for it too.
  WorkloadOptions w = ShardedWorkload(2, /*seed=*/3);
  w.open_loop = false;
  w.clients_per_pool = 30;
  harness::Cluster<PrestigeReplica, PrestigeConfig> cluster(SmallConfig(), w);
  cluster.Start();
  cluster.RunFor(Seconds(1));

  const Router router(2);
  const auto report = harness::CheckShardedSafety(cluster, router);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.routed_txs, 0);
  EXPECT_GT(cluster.GroupCommitted(0), 0);
  EXPECT_GT(cluster.GroupCommitted(1), 0);
}

TEST(ShardedClusterTest, SingleGroupPercentileMergesEveryPool) {
  // Regression for the pool-0-only percentile: the merged p100 must
  // dominate every pool's own maximum, not just pool 0's.
  WorkloadOptions w;
  w.num_pools = 4;
  w.clients_per_pool = 20;
  w.seed = 5;
  harness::Cluster<PrestigeReplica, PrestigeConfig> cluster(SmallConfig(), w);
  cluster.Start();
  cluster.RunFor(Seconds(2));

  const double merged_max = cluster.LatencyPercentileMs(100);
  for (uint32_t p = 0; p < cluster.num_pools(); ++p) {
    EXPECT_GE(merged_max, cluster.pool(p).latencies().Max())
        << "pool " << p << "'s tail is missing from the merged percentile";
  }
  EXPECT_GT(merged_max, 0.0);
}

}  // namespace
}  // namespace shard
}  // namespace prestige
