// Executes a ScenarioSpec on a Cluster (cluster.h).
//
// RunScenarioSeed walks the spec's phases in virtual time: at each phase
// start it applies the phase's partition / link faults / crashes / load
// settings, runs the cluster for the phase's duration, then sweeps the
// cross-replica safety invariants (invariants.h). A seed sweep repeats the
// whole run for N consecutive seeds and aggregates the per-seed results.
//
// RunScenarioOnBackend runs a fault-free spec (ThreadedCapable) on any
// backend — simulated, threaded, or socket — for the spec's scripted
// duration, then sweeps the same invariants. On the wall-clock backends it
// measures what the implementation actually sustains on the host.
//
// Everything virtual-time here is deterministic: the same (spec, config,
// workload.seed) triple reproduces byte-identical ScenarioSeedResults —
// SeedResultJson() exists so tests and bench_runner can assert exactly that.
//
// Seed sweeps parallelize: each (spec, config, seed) run is a fully
// self-contained Simulator + Cluster with no shared mutable state, so
// RunScenarioSweep(jobs > 1) fans the seeds out over a worker pool. Results
// land in a seed-indexed slot and are aggregated in seed order afterwards,
// so the aggregate — including every floating-point mean — is byte-
// identical to the serial path (asserted by tests/parallel_sweep_test.cc).

#ifndef PRESTIGE_HARNESS_SCENARIO_RUNNER_H_
#define PRESTIGE_HARNESS_SCENARIO_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "harness/adversary.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/scenario.h"

namespace prestige {
namespace harness {

/// Per-phase record of one scenario run.
struct PhaseOutcome {
  std::string name;
  util::TimeMicros start = 0;
  util::TimeMicros end = 0;
  int64_t committed = 0;  ///< Client-observed commits during the phase.
  SafetyReport safety;
};

/// All metrics of one (spec, seed) execution. Everything except `wall_ms`
/// is a deterministic function of (spec, config, seed) — including `events`
/// and `hashes`, which count implementation work, not virtual-time
/// behaviour, but are exactly reproducible. SeedResultJson() renders only
/// the deterministic fields, so equal seeds produce byte-identical JSON.
struct ScenarioSeedResult {
  uint64_t seed = 0;
  uint64_t events = 0;   ///< Simulator events executed (deterministic).
  uint64_t hashes = 0;   ///< SHA-256 computations performed (deterministic).
  double wall_ms = 0.0;  ///< Host wall-clock cost; NOT in SeedResultJson.
  bool safety_ok = true;
  std::string violation;
  int64_t committed = 0;
  double tps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  /// Client-observed reply entries matched to outstanding requests.
  int64_t replies = 0;
  /// Replica-side duplicate executions suppressed by session tables.
  int64_t duplicate_suppressed = 0;
  /// Conflicting result digests observed by clients (0 when honest).
  int64_t result_mismatches = 0;
  /// Exactly-once service executions summed over honest replicas.
  int64_t executed = 0;
  types::SeqNum min_height = 0;
  types::SeqNum max_height = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_cut = 0;
  uint64_t messages_duplicated = 0;
  uint64_t messages_reordered = 0;

  // Suppression metrics, filled only when the spec carries an adversary
  // (adversary_present false ⇒ SeedResultJson omits the block, keeping
  // honest-run JSON byte-identical to pre-adversary builds).
  bool adversary_present = false;
  int64_t byz_views_led = 0;     ///< Views held by scripted attackers.
  int64_t honest_views_led = 0;  ///< Views held by everyone else.
  /// Last virtual time an attacker assumed leadership (0 = never led);
  /// "time to suppression" — after this point the reputation system kept
  /// attackers out of office for the rest of the run.
  util::TimeMicros last_byz_led_us = 0;
  /// Final reputation penalty per replica (vcBlock series; 0 when the
  /// protocol records no reputation, i.e. the baselines).
  std::vector<types::Penalty> final_rp;
  /// One point of an attacker's reputation-penalty trajectory (fig13).
  struct RpPoint {
    uint32_t replica = 0;
    util::TimeMicros at = 0;
    types::View view = 0;
    types::Penalty rp = 0;
  };
  std::vector<RpPoint> byz_rp_trajectory;

  std::vector<PhaseOutcome> phases;
};

/// Seed-sweep aggregate over one protocol.
struct ScenarioAggregate {
  std::string scenario;
  uint32_t n = 0;
  uint64_t base_seed = 0;
  uint32_t num_seeds = 0;
  bool all_safe = true;
  double tps_mean = 0.0;
  double tps_min = 0.0;
  double tps_max = 0.0;
  double p50_ms_mean = 0.0;
  double p99_ms_mean = 0.0;
  int64_t committed_total = 0;
  int64_t view_changes_total = 0;
  int64_t elections_won_total = 0;
  int64_t replies_total = 0;
  int64_t duplicate_suppressed_total = 0;
  int64_t result_mismatches_total = 0;
  uint64_t messages_dropped_total = 0;
  uint64_t events_total = 0;   ///< Deterministic (sum of per-seed events).
  uint64_t hashes_total = 0;   ///< Deterministic (sum of per-seed hashes).
  double run_wall_ms_total = 0.0;  ///< Summed per-run CPU wall time; with
                                   ///< jobs > 1 this exceeds elapsed time.
  std::vector<ScenarioSeedResult> seeds;
};

/// Replica index a majority of honest replicas currently consider leader
/// (ties break toward the lowest index; every protocol here exposes
/// current_leader()).
template <typename Cluster>
uint32_t CurrentLeaderIndex(const Cluster& cluster) {
  std::vector<uint32_t> votes(cluster.num_replicas(), 0);
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    const auto& replica = cluster.replica(i);
    if (replica.fault().IsByzantine()) continue;
    const uint32_t leader = replica.current_leader();
    if (leader < votes.size()) ++votes[leader];
  }
  return static_cast<uint32_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

/// Applies one phase's settings to the cluster at the current virtual time.
template <typename Cluster>
void ApplyPhase(Cluster& cluster, const Phase& phase) {
  sim::FaultPlane& plane = cluster.network().fault_plane();

  auto replica_group = [&](const std::vector<uint32_t>& indices) {
    std::vector<sim::ActorId> ids;
    ids.reserve(indices.size());
    for (uint32_t i : indices) ids.push_back(cluster.replica_actor_id(i));
    return ids;
  };

  if (phase.set_partition) {
    if (phase.partition.empty()) {
      plane.Heal();
    } else {
      std::vector<std::vector<sim::ActorId>> groups;
      groups.reserve(phase.partition.size());
      for (const auto& group : phase.partition) {
        groups.push_back(replica_group(group));
      }
      plane.Partition(groups);
    }
  } else if (phase.partition_leader) {
    const uint32_t leader = CurrentLeaderIndex(cluster);
    std::vector<uint32_t> rest;
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      if (i != leader) rest.push_back(i);
    }
    plane.Partition({replica_group({leader}), replica_group(rest)});
  }

  if (phase.set_link_faults) {
    plane.ClearAllLinkFaults();
    // The phase's default degrades every replica-to-replica link; client
    // links stay clean (the scenarios target the consensus fabric).
    if (phase.default_link_fault.has_value() &&
        phase.default_link_fault->Active()) {
      for (uint32_t a = 0; a < cluster.num_replicas(); ++a) {
        for (uint32_t b = 0; b < cluster.num_replicas(); ++b) {
          if (a == b) continue;
          plane.SetLinkFault(cluster.replica_actor_id(a),
                             cluster.replica_actor_id(b),
                             *phase.default_link_fault);
        }
      }
    }
    for (const LinkFaultRule& rule : phase.link_faults) {
      plane.SetLinkFault(cluster.replica_actor_id(rule.from),
                         cluster.replica_actor_id(rule.to), rule.fault);
    }
  }

  for (uint32_t i : phase.crash) cluster.SetReplicaDown(i, true);
  for (uint32_t i : phase.recover) cluster.SetReplicaDown(i, false);

  const double load = std::min(1.0, std::max(0.0, phase.load));
  const uint32_t active_pools = static_cast<uint32_t>(
      std::lround(load * static_cast<double>(cluster.num_pools())));
  for (uint32_t p = 0; p < cluster.num_pools(); ++p) {
    cluster.pool(p).SetActive(p < active_pools);
  }
}

/// Runs `spec` once on a fresh cluster built from (config, workload).
/// config.n is overridden by the spec's cluster size.
template <typename Replica, typename Config>
ScenarioSeedResult RunScenarioSeed(const ScenarioSpec& spec, Config config,
                                   WorkloadOptions workload) {
  // Per-run hash attribution: every Sha256::Finish on this thread (cluster
  // construction included — the KeyStore hashes) is credited to this run,
  // which stays exact when sweeps run seeds on parallel worker threads.
  crypto::CryptoMeter meter;
  crypto::ScopedCryptoMeter meter_scope(&meter);
  const auto wall_start = std::chrono::steady_clock::now();

  config.n = spec.n;
  std::vector<types::FaultSpec> faults = spec.byzantine;
  faults.resize(spec.n, types::FaultSpec::Honest());

  // Active adversaries: one scripted policy per run, installed on every
  // replica and client pool before Start(). Honest specs skip the wiring
  // entirely, so their runs stay byte-identical to pre-adversary builds.
  const bool adversary_present = !spec.adversary.Empty();
  const ScriptedAdversary adversary(spec.adversary);
  const std::vector<bool> byzantine = BuildByzantineSet(spec);
  if (spec.kv_workload) {
    // Forged-reply adversaries need real command bytes: only a service
    // that folds them into its state digest can genuinely diverge.
    workload.command_kind = workload::CommandKind::kKvPut;
  }

  Cluster<Replica, Config> cluster(config, workload, faults);
  cluster.network().fault_plane().Seed(workload.seed);
  if (spec.kv_workload) {
    cluster.InstallServices([&workload]() {
      return std::make_unique<app::KvService>(workload.kv_key_space);
    });
  }
  if (adversary_present) cluster.SetAdversary(&adversary);
  cluster.Start();

  ScenarioSeedResult result;
  result.seed = workload.seed;
  result.adversary_present = adversary_present;

  int64_t committed_at_phase_start = 0;
  for (const Phase& phase : spec.phases) {
    PhaseOutcome outcome;
    outcome.name = phase.name;
    outcome.start = cluster.simulator().Now();
    ApplyPhase(cluster, phase);
    cluster.RunFor(phase.duration);
    outcome.end = cluster.simulator().Now();
    const int64_t committed_now = cluster.ClientCommitted();
    outcome.committed = committed_now - committed_at_phase_start;
    committed_at_phase_start = committed_now;
    outcome.safety = CheckSafety(cluster, byzantine);
    if (!outcome.safety.ok && result.safety_ok) {
      result.safety_ok = false;
      result.violation = phase.name + ": " + outcome.safety.violation;
    }
    result.phases.push_back(std::move(outcome));
  }

  result.committed = cluster.ClientCommitted();
  result.tps = static_cast<double>(result.committed) /
               util::ToSeconds(std::max<util::DurationMicros>(
                   1, spec.TotalDuration()));
  result.p50_ms = cluster.LatencyPercentileMs(50);
  result.p99_ms = cluster.LatencyPercentileMs(99);
  result.view_changes = cluster.ViewChanges();
  result.elections_won = cluster.ElectionsWon();
  if (adversary_present) {
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      const auto& m = cluster.replica(i).metrics();
      const bool byz = i < byzantine.size() && byzantine[i];
      if (byz) {
        result.byz_views_led += m.views_led;
        result.last_byz_led_us =
            std::max(result.last_byz_led_us, m.last_led_at);
        for (const core::RpSample& s : m.rp_history) {
          result.byz_rp_trajectory.push_back(
              ScenarioSeedResult::RpPoint{i, s.at, s.view, s.rp});
        }
      } else {
        result.honest_views_led += m.views_led;
      }
      result.final_rp.push_back(
          m.rp_history.empty() ? 0 : m.rp_history.back().rp);
    }
  }
  result.replies = cluster.RepliesReceived();
  result.duplicate_suppressed = cluster.DuplicatesSuppressed();
  result.result_mismatches = cluster.ResultMismatches();
  result.executed = cluster.ExecutedTotal();
  if (!result.phases.empty()) {
    result.min_height = result.phases.back().safety.min_height;
    result.max_height = result.phases.back().safety.max_height;
  }
  const sim::NetworkStats& net = cluster.network().stats();
  result.messages_sent = net.messages_sent;
  result.messages_dropped = net.messages_dropped;
  result.messages_cut = net.messages_cut;
  result.messages_duplicated = net.messages_duplicated;
  result.messages_reordered = net.messages_reordered;
  result.events = cluster.simulator().events_executed();
  result.hashes = meter.finished;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

/// Runs `spec` for `num_seeds` consecutive seeds starting at `base_seed`
/// and aggregates. Each seed gets a fresh cluster; workload.seed is
/// overridden per run.
///
/// `jobs` > 1 runs the seeds on that many worker threads. Runs share
/// nothing mutable (each owns its Simulator, Network, KeyStore, replicas,
/// and — via thread-scoped CryptoMeters — its hash accounting), so the
/// per-seed results are identical to the serial path's; aggregation always
/// happens on the calling thread in ascending seed order, which keeps even
/// the floating-point means byte-identical. Worker count is capped at
/// num_seeds; jobs == 0 behaves as 1.
template <typename Replica, typename Config, typename SpecFn>
ScenarioAggregate RunScenarioSweepGen(SpecFn spec_fn, Config config,
                                      WorkloadOptions workload,
                                      uint64_t base_seed, uint32_t num_seeds,
                                      uint32_t jobs = 1) {
  std::vector<ScenarioSeedResult> results(num_seeds);
  const uint32_t workers = std::min(std::max<uint32_t>(jobs, 1), num_seeds);
  if (workers <= 1) {
    for (uint32_t i = 0; i < num_seeds; ++i) {
      WorkloadOptions w = workload;
      w.seed = base_seed + i;
      const ScenarioSpec spec = spec_fn(w.seed);
      results[i] = RunScenarioSeed<Replica, Config>(spec, config, w);
    }
  } else {
    std::atomic<uint32_t> next_index{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back([&]() {
        for (;;) {
          const uint32_t i =
              next_index.fetch_add(1, std::memory_order_relaxed);
          if (i >= num_seeds) return;
          WorkloadOptions w = workload;
          w.seed = base_seed + i;
          const ScenarioSpec spec = spec_fn(w.seed);
          results[i] = RunScenarioSeed<Replica, Config>(spec, config, w);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }

  ScenarioAggregate agg;
  const ScenarioSpec first = spec_fn(base_seed);
  agg.scenario = first.name;
  agg.n = first.n;
  agg.base_seed = base_seed;
  agg.num_seeds = num_seeds;
  for (uint32_t i = 0; i < num_seeds; ++i) {
    ScenarioSeedResult& r = results[i];
    agg.all_safe = agg.all_safe && r.safety_ok;
    agg.committed_total += r.committed;
    agg.view_changes_total += r.view_changes;
    agg.elections_won_total += r.elections_won;
    agg.replies_total += r.replies;
    agg.duplicate_suppressed_total += r.duplicate_suppressed;
    agg.result_mismatches_total += r.result_mismatches;
    agg.messages_dropped_total += r.messages_dropped;
    agg.events_total += r.events;
    agg.hashes_total += r.hashes;
    agg.run_wall_ms_total += r.wall_ms;
    agg.tps_mean += r.tps;
    agg.p50_ms_mean += r.p50_ms;
    agg.p99_ms_mean += r.p99_ms;
    if (i == 0 || r.tps < agg.tps_min) agg.tps_min = r.tps;
    if (i == 0 || r.tps > agg.tps_max) agg.tps_max = r.tps;
    agg.seeds.push_back(std::move(r));
  }
  if (num_seeds > 0) {
    agg.tps_mean /= num_seeds;
    agg.p50_ms_mean /= num_seeds;
    agg.p99_ms_mean /= num_seeds;
  }
  return agg;
}

/// Fixed-spec sweep: every seed runs the same ScenarioSpec. The seed-keyed
/// generator overload above exists for schedule randomizers (byzantine-fuzz)
/// whose spec is itself a deterministic function of the seed.
template <typename Replica, typename Config>
ScenarioAggregate RunScenarioSweep(const ScenarioSpec& spec, Config config,
                                   WorkloadOptions workload,
                                   uint64_t base_seed, uint32_t num_seeds,
                                   uint32_t jobs = 1) {
  return RunScenarioSweepGen<Replica, Config>(
      [&spec](uint64_t) { return spec; }, config, workload, base_seed,
      num_seeds, jobs);
}

/// Metrics of one fault-free run on any backend. On the wall-clock
/// backends every quantity is scheduler-dependent: reruns differ.
struct BackendRunResult {
  bool ran = false;   ///< False when refused (see RunScenarioOnBackend).
  std::string error;  ///< Why it did not run.
  double duration_seconds = 0.0;  ///< Measurement window.
  int64_t committed = 0;  ///< Client-observed committed transactions.
  double tps = 0.0;       ///< committed / duration.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  int64_t replies = 0;               ///< Client-matched reply entries.
  int64_t duplicate_suppressed = 0;  ///< Session-table dedup hits.
  int64_t result_mismatches = 0;     ///< Conflicting result digests seen.
  int64_t executed = 0;              ///< Exactly-once service executions.
  BackendCounters counters;  ///< The backend's own counters.
  bool safety_ok = true;
  std::string violation;
  types::SeqNum min_height = 0;
  types::SeqNum max_height = 0;
};

/// Runs `spec`'s workload on a fresh Cluster on `Backend` for its scripted
/// duration, stops it, and checks safety. config.n is overridden by the
/// spec's cluster size. Refuses (ran = false) specs that need phase faults
/// — only RunScenarioSeed applies those, in simulation — and deployments
/// whose nodes could not all be hosted.
template <typename Replica, typename Config, typename Backend>
BackendRunResult RunScenarioOnBackend(const ScenarioSpec& spec, Config config,
                                      WorkloadOptions workload) {
  BackendRunResult result;
  if (!ThreadedCapable(spec)) {
    result.error = "scenario '" + spec.name +
                   "' uses simulator-only faults (partitions / link faults / "
                   "crashes / partial load / Byzantine cast); this runner "
                   "executes fault-free workloads";
    return result;
  }

  config.n = spec.n;
  Cluster<Replica, Config, Backend> cluster(config, workload);
  if (!cluster.ok()) {
    result.error = cluster.error();
    return result;
  }
  const util::DurationMicros duration = spec.TotalDuration();
  cluster.Start();
  cluster.RunFor(duration);
  cluster.Stop();

  result.ran = true;
  result.duration_seconds = util::ToSeconds(duration);
  result.committed = cluster.ClientCommitted();
  result.tps =
      static_cast<double>(result.committed) / result.duration_seconds;
  result.p50_ms = cluster.LatencyPercentileMs(50);
  result.p99_ms = cluster.LatencyPercentileMs(99);
  result.mean_ms = cluster.MeanLatencyMs();
  result.view_changes = cluster.ViewChanges();
  result.elections_won = cluster.ElectionsWon();
  result.replies = cluster.RepliesReceived();
  result.duplicate_suppressed = cluster.DuplicatesSuppressed();
  result.result_mismatches = cluster.ResultMismatches();
  result.executed = cluster.ExecutedTotal();
  result.counters = cluster.backend().counters();

  const SafetyReport safety = CheckSafety(cluster);
  result.safety_ok = safety.ok;
  result.violation = safety.violation;
  result.min_height = safety.min_height;
  result.max_height = safety.max_height;
  return result;
}

/// Canonical JSON rendering of one seed's deterministic metrics (wall_ms is
/// deliberately excluded). Two runs of the same (spec, seed) must produce
/// byte-identical strings — regardless of sweep parallelism — asserted by
/// tests/sim_fault_test.cc and tests/parallel_sweep_test.cc and usable as a
/// quick determinism probe.
inline std::string SeedResultJson(const ScenarioSeedResult& r) {
  char buf[832];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"seed\": %llu, \"safety_ok\": %s, \"committed\": %lld, "
                "\"tps\": %.3f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                "\"view_changes\": %lld, \"elections_won\": %lld, "
                "\"replies\": %lld, \"duplicate_suppressed\": %lld, "
                "\"result_mismatches\": %lld, \"executed\": %lld, "
                "\"min_height\": %lld, \"max_height\": %lld, "
                "\"messages_sent\": %llu, \"messages_dropped\": %llu, "
                "\"messages_cut\": %llu, \"messages_duplicated\": %llu, "
                "\"messages_reordered\": %llu, \"events\": %llu, "
                "\"hashes\": %llu",
                static_cast<unsigned long long>(r.seed),
                r.safety_ok ? "true" : "false",
                static_cast<long long>(r.committed), r.tps, r.p50_ms,
                r.p99_ms, static_cast<long long>(r.view_changes),
                static_cast<long long>(r.elections_won),
                static_cast<long long>(r.replies),
                static_cast<long long>(r.duplicate_suppressed),
                static_cast<long long>(r.result_mismatches),
                static_cast<long long>(r.executed),
                static_cast<long long>(r.min_height),
                static_cast<long long>(r.max_height),
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.messages_dropped),
                static_cast<unsigned long long>(r.messages_cut),
                static_cast<unsigned long long>(r.messages_duplicated),
                static_cast<unsigned long long>(r.messages_reordered),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.hashes));
  out += buf;
  // Suppression metrics appear only for adversary runs, so honest-run JSON
  // stays byte-identical to pre-adversary builds.
  if (r.adversary_present) {
    std::snprintf(buf, sizeof(buf),
                  ", \"suppression\": {\"byz_views_led\": %lld, "
                  "\"honest_views_led\": %lld, \"last_byz_led_us\": %lld, "
                  "\"final_rp\": [",
                  static_cast<long long>(r.byz_views_led),
                  static_cast<long long>(r.honest_views_led),
                  static_cast<long long>(r.last_byz_led_us));
    out += buf;
    for (size_t i = 0; i < r.final_rp.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%lld", i == 0 ? "" : ", ",
                    static_cast<long long>(r.final_rp[i]));
      out += buf;
    }
    out += "], \"byz_rp_trajectory\": [";
    for (size_t i = 0; i < r.byz_rp_trajectory.size(); ++i) {
      const ScenarioSeedResult::RpPoint& p = r.byz_rp_trajectory[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"replica\": %u, \"at_us\": %lld, \"view\": %lld, "
                    "\"rp\": %lld}",
                    i == 0 ? "" : ", ", p.replica,
                    static_cast<long long>(p.at),
                    static_cast<long long>(p.view),
                    static_cast<long long>(p.rp));
      out += buf;
    }
    out += "]}";
  }
  out += ", \"phases\": [";
  for (size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseOutcome& p = r.phases[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"start_us\": %lld, \"end_us\": "
                  "%lld, \"committed\": %lld, \"safe\": %s}",
                  i == 0 ? "" : ", ", p.name.c_str(),
                  static_cast<long long>(p.start),
                  static_cast<long long>(p.end),
                  static_cast<long long>(p.committed),
                  p.safety.ok ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_SCENARIO_RUNNER_H_
