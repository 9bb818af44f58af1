// Runs a sharded, open-loop deployment and sweeps its safety invariants.
//
// This is the planet-scale measurement harness: G consensus groups on one
// backend, driven by open-loop arrival traces (workload/open_loop_pool.h)
// instead of scenario scripts. RunSharded takes the backend as a template
// parameter:
//
//   ThreadedBackend — wall-clock; TPS and latency are what the host
//     actually sustains, and aggregate committed throughput should rise
//     with the group count on multicore hardware (groups never
//     intercommunicate, so they scale like independent clusters sharing
//     cores).
//   SimBackend (the default) — virtual time on the deterministic
//     simulator; numbers are modelled, runs are reproducible per seed, and
//     tests use this to pin invariant and wiring behaviour without
//     wall-clock flakiness.
//
// After the run, CheckShardedSafety (invariants.h) sweeps per-group
// committed-prefix/execution agreement, router consistency, and shard
// exclusivity; the report rides in the result. Latency is reported on
// both ladders: consensus latency (submit → f+1 completion) and the
// SLO-relevant end-to-end latency (arrival → completion, including
// admission queueing), the latter with p50/p99/p999.

#ifndef PRESTIGE_HARNESS_SHARDED_RUNNER_H_
#define PRESTIGE_HARNESS_SHARDED_RUNNER_H_

#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/invariants.h"
#include "shard/router.h"

namespace prestige {
namespace harness {

/// Per-group slice of a sharded run.
struct GroupRunStats {
  int64_t committed = 0;      ///< Client-observed commits in this group.
  int64_t view_changes = 0;   ///< Summed over the group's replicas.
  int64_t elections_won = 0;
};

/// Metrics of one sharded open-loop run (wall-clock backends: scheduler-
/// dependent; sim: virtual-time and seed-deterministic).
struct ShardedRunResult {
  std::string error;  ///< Non-empty when a node could not be hosted.
  double duration_seconds = 0.0;
  uint32_t groups = 1;
  int64_t committed = 0;  ///< Aggregate over all groups.
  double tps = 0.0;       ///< committed / duration.

  // Consensus latency (submit → f+1-matched completion), merged pools.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  // End-to-end latency (arrival → completion, incl. admission queueing).
  double e2e_p50_ms = 0.0;
  double e2e_p99_ms = 0.0;
  double e2e_p999_ms = 0.0;
  double slo_ms = 0.0;        ///< The SLO the run was held to.
  double slo_fraction = 1.0;  ///< Completions inside the SLO.

  // Open-loop admission accounting, summed over pools.
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t shed = 0;

  int64_t replies = 0;
  int64_t result_mismatches = 0;
  int64_t executed = 0;

  std::vector<GroupRunStats> per_group;

  // CheckShardedSafety outcome.
  bool safety_ok = true;
  std::string violation;
  int64_t routed_txs = 0;
  int64_t distinct_keys = 0;
};

/// Per-replica application factory (nullptr keeps the default service).
using ServiceFactory = std::function<std::unique_ptr<app::Service>()>;

/// Sharded run: G groups of config.n replicas on `Backend`, open-loop
/// load for `duration`, then the full safety sweep.
template <typename Replica, typename Config, typename Backend = SimBackend>
ShardedRunResult RunSharded(Config config, WorkloadOptions workload,
                            util::DurationMicros duration,
                            const ServiceFactory& services = {}) {
  workload.open_loop = true;
  Cluster<Replica, Config, Backend> cluster(config, workload);
  ShardedRunResult result;
  if (!cluster.ok()) {
    result.error = cluster.error();
    return result;
  }
  if (services) cluster.InstallServices(services);
  cluster.Start();
  cluster.RunFor(duration);
  cluster.Stop();

  result.duration_seconds = util::ToSeconds(duration);
  result.groups = cluster.num_groups();
  result.committed = cluster.ClientCommitted();
  result.tps = result.duration_seconds > 0.0
                   ? static_cast<double>(result.committed) /
                         result.duration_seconds
                   : 0.0;
  result.p50_ms = cluster.LatencyPercentileMs(50);
  result.p99_ms = cluster.LatencyPercentileMs(99);
  result.mean_ms = cluster.MeanLatencyMs();
  result.e2e_p50_ms = cluster.E2eLatencyPercentileMs(50);
  result.e2e_p99_ms = cluster.E2eLatencyPercentileMs(99);
  result.e2e_p999_ms = cluster.E2eLatencyPercentileMs(99.9);
  result.slo_ms = workload.slo_ms;
  result.slo_fraction = cluster.SloFraction();
  result.arrivals = cluster.TotalArrivals();
  result.admitted = cluster.TotalAdmitted();
  result.shed = cluster.TotalShed();
  result.replies = cluster.RepliesReceived();
  result.result_mismatches = cluster.ResultMismatches();
  result.executed = cluster.ExecutedTotal();

  for (uint32_t g = 0; g < cluster.num_groups(); ++g) {
    GroupRunStats stats;
    stats.committed = cluster.GroupCommitted(g);
    for (uint32_t i = 0; i < cluster.replicas_per_group(); ++i) {
      const auto& metrics = cluster.group_replica(g, i).metrics();
      stats.view_changes += metrics.view_changes_started;
      stats.elections_won += metrics.elections_won;
    }
    result.per_group.push_back(stats);
  }

  const shard::Router router(cluster.num_groups(), workload.router_salt);
  const ShardedSafetyReport safety = CheckShardedSafety(cluster, router);
  result.safety_ok = safety.ok;
  result.violation = safety.violation;
  result.routed_txs = safety.routed_txs;
  result.distinct_keys = safety.distinct_keys;
  return result;
}

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_SHARDED_RUNNER_H_
