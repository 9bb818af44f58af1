// Cross-replica safety invariants, checked between scenario phases.
//
// Checks over the honest replicas' committed txBlock chains AND their
// application execution state:
//  1. agreement at every sequence number — no two honest replicas hold
//     different blocks at the same height (Theorem 3's guarantee);
//  2. committed-prefix agreement — combined with (1) and BlockStore's
//     append-time hash-chain enforcement, equal digests at every common
//     height imply one replica's chain is a prefix of the other's;
//  3. execution-result agreement — replicas at the same chain height must
//     report the same app::Service::StateDigest() and the same
//     exactly-once execution count (divergence means the service executed
//     different commands, in a different order, or a duplicate slipped
//     past a session table);
//  4. execution conservation — per replica, executed + duplicates
//     suppressed equals the transactions in its committed chain (nothing
//     double-executed, nothing skipped).
//
// The checks run over per-replica LedgerReports, so one sweep
// (LedgerSweep) serves every deployment: in-process clusters build the
// reports from replica objects, multi-process clusters
// (harness/process_cluster.h) parse them from prestige_node's status.
//
// Byzantine replicas are excluded: an equivocator's or forger's local
// bookkeeping carries no safety obligation. The exclusion set is the
// union of the FaultSpec cast (crash excluded — crashed replicas are
// honest, they simply stopped early, and their shorter prefix must still
// agree) and any scripted active adversaries the caller passes in
// (BuildByzantineSet in harness/adversary.h composes both). A scripted
// forged-reply replica genuinely diverges its application state, so
// including it would turn check (3) into a false safety violation.

#ifndef PRESTIGE_HARNESS_INVARIANTS_H_
#define PRESTIGE_HARNESS_INVARIANTS_H_

#include <cstdio>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ledger/block_store.h"
#include "shard/router.h"
#include "types/fault_spec.h"

namespace prestige {
namespace harness {

/// Outcome of one safety sweep.
struct SafetyReport {
  bool ok = true;
  std::string violation;  ///< Human-readable description when !ok.
  types::SeqNum min_height = 0;  ///< Shortest honest committed chain.
  types::SeqNum max_height = 0;  ///< Longest honest committed chain.
  int64_t executed_total = 0;    ///< Service executions over honest replicas.
  int64_t duplicates_total = 0;  ///< Session-table dedup hits, ditto.
};

/// What the safety sweep reads of one replica: its committed txBlock chain
/// as (n, full digest, tx count) and its execution counters. In-process
/// sweeps build it from the replica object; prestige_node builds it with
/// the same function and ships it in its status report.
struct LedgerReport {
  struct Block {
    types::SeqNum n = 0;
    crypto::Sha256Digest digest{};
    int64_t txs = 0;
  };
  std::vector<Block> chain;
  uint64_t state_digest = 0;  ///< app::Service::StateDigest().
  int64_t executed = 0;       ///< Exactly-once service executions.
  int64_t duplicates = 0;     ///< Session-table dedup hits.
};

/// Reads `replica`'s LedgerReport: Digest() once per committed block and
/// StateDigest() once. Any replica exposing store() and delivery() works
/// (PrestigeBFT, HotStuff and SBFT all do).
template <typename Replica>
LedgerReport BuildLedgerReport(const Replica& replica) {
  LedgerReport ledger;
  const auto& chain = replica.store().tx_chain();
  ledger.chain.reserve(chain.size());
  for (const auto& block : chain) {
    ledger.chain.push_back(LedgerReport::Block{
        block.n(), block.Digest(), static_cast<int64_t>(block.BatchSize())});
  }
  const auto& delivery = replica.delivery();
  ledger.state_digest = delivery.service().StateDigest();
  ledger.executed = delivery.stats().executed;
  ledger.duplicates = delivery.stats().duplicates_suppressed;
  return ledger;
}

/// The safety sweep (checks 1-4 above), fed the honest replicas' reports
/// one at a time. Every deployment runs it: CheckSafety in process, and
/// RunProcessCluster over the reports of prestige_node processes.
class LedgerSweep {
 public:
  /// Folds in `replica`'s report. Returns false at the first violated
  /// invariant; report() then describes it.
  bool Add(uint32_t replica, const LedgerReport& ledger);
  /// Records a printf-formatted violation, also one found outside the
  /// four checks (a missing report); returns false.
  __attribute__((format(printf, 2, 3))) bool Fail(const char* format, ...);
  const SafetyReport& report() const { return report_; }

 private:
  // Per chain index: (digest, owner) of the first replica holding it.
  struct Reference {
    crypto::Sha256Digest digest;
    uint32_t owner;
  };
  // Per chain height: execution state of the first replica at it.
  struct ExecReference {
    uint64_t state_digest;
    int64_t executed;
    uint32_t owner;
  };
  SafetyReport report_;
  bool first_ = true;
  std::vector<Reference> reference_;
  std::unordered_map<types::SeqNum, ExecReference> exec_reference_;
};

/// True for replicas the sweep owes agreement: honest or crashed.
template <typename Replica>
bool SweptByFault(const Replica& replica) {
  return !replica.fault().IsByzantine() ||
         replica.fault().type == types::FaultType::kCrash;
}

/// Checks chain agreement across every honest replica of `cluster`. Works
/// for any Cluster<Replica, Config> whose Replica exposes store(),
/// delivery() and fault() (PrestigeBFT, HotStuff, and SBFT all do).
/// `byzantine` marks replicas excluded from every agreement check in
/// addition to the FaultSpec-derived exclusions; indices beyond its size
/// count as honest.
template <typename Cluster>
SafetyReport CheckSafety(const Cluster& cluster,
                         const std::vector<bool>& byzantine) {
  LedgerSweep sweep;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    const auto& replica = cluster.replica(i);
    if (!SweptByFault(replica)) continue;
    if (i < byzantine.size() && byzantine[i]) continue;
    if (!sweep.Add(i, BuildLedgerReport(replica))) break;
  }
  return sweep.report();
}

/// All-honest convenience overload: no scripted adversaries beyond the
/// FaultSpec cast.
template <typename Cluster>
SafetyReport CheckSafety(const Cluster& cluster) {
  return CheckSafety(cluster, std::vector<bool>());
}

// ------------------------------------------------------- sharded clusters

/// One group's slice of a sharded cluster, shaped like an unsharded
/// cluster (num_replicas() / replica(i)) so CheckSafety runs on it
/// verbatim. Group g owns global replica indices
/// [g * replicas_per_group, (g + 1) * replicas_per_group).
template <typename Cluster>
class GroupView {
 public:
  GroupView(const Cluster& cluster, uint32_t group)
      : cluster_(cluster), group_(group) {}

  uint32_t num_replicas() const { return cluster_.replicas_per_group(); }
  decltype(auto) replica(uint32_t i) const {
    return cluster_.replica(group_ * cluster_.replicas_per_group() + i);
  }

 private:
  const Cluster& cluster_;
  uint32_t group_;
};

/// Outcome of one sharded safety sweep.
struct ShardedSafetyReport {
  bool ok = true;
  std::string violation;  ///< Human-readable description when !ok.
  /// Per-group chain/execution sweeps, in group order (truncated at the
  /// first failing group).
  std::vector<SafetyReport> groups;
  int64_t routed_txs = 0;     ///< Committed txs checked against the router.
  int64_t distinct_keys = 0;  ///< Distinct routing keys seen committed.
};

/// The sharded safety sweep:
///  1. per-group committed-prefix + execution agreement — CheckSafety over
///     each group's replica slice (groups never intercommunicate, so
///     cross-group chains are unrelated by design and compared by nobody);
///  2. router consistency — every committed transaction routes (by its
///     routing key, under `router`) to the group that committed it, and
///     carries that group's id in its digest-covered `group` field;
///  3. shard exclusivity — no routing key appears in the committed chains
///     of two different groups ("no key executes in two groups").
///
/// `router` must be the geometry the workload generated against (same
/// num_groups and salt).
template <typename Cluster>
ShardedSafetyReport CheckShardedSafety(const Cluster& cluster,
                                       const shard::Router& router) {
  ShardedSafetyReport report;
  const uint32_t groups = cluster.num_groups();
  const uint32_t per_group = cluster.replicas_per_group();
  for (uint32_t g = 0; g < groups; ++g) {
    GroupView<Cluster> view(cluster, g);
    SafetyReport group_report = CheckSafety(view);
    const bool group_ok = group_report.ok;
    if (!group_ok) {
      report.ok = false;
      report.violation =
          "group " + std::to_string(g) + ": " + group_report.violation;
    }
    report.groups.push_back(std::move(group_report));
    if (!group_ok) return report;
  }

  // Checks 2 and 3 over each group's longest honest chain: per-group
  // agreement (check 1) makes every other honest chain in the group a
  // prefix of it, so the longest chain covers everything the group
  // committed.
  std::unordered_map<uint64_t, uint32_t> key_owner;
  for (uint32_t g = 0; g < groups; ++g) {
    using Chain = std::decay_t<decltype(cluster.replica(0).store().tx_chain())>;
    const Chain* chain = nullptr;
    for (uint32_t i = 0; i < per_group; ++i) {
      const auto& replica = cluster.replica(g * per_group + i);
      if (!SweptByFault(replica)) continue;
      const auto& candidate = replica.store().tx_chain();
      if (chain == nullptr || candidate.size() > chain->size()) {
        chain = &candidate;
      }
    }
    if (chain == nullptr) continue;  // All-Byzantine group: nothing to owe.
    for (const auto& block : *chain) {
      for (const auto& tx : block.txs()) {
        ++report.routed_txs;
        std::string violation;
        if (!shard::VerifyRoutingAssignment(router, g, tx, &violation)) {
          report.ok = false;
          report.violation = violation;
          return report;
        }
        const uint64_t key = shard::Router::RoutingKey(tx);
        const auto [it, inserted] = key_owner.emplace(key, g);
        if (!inserted && it->second != g) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "routing key %llu executed in two groups: %u and %u",
                        static_cast<unsigned long long>(key), it->second, g);
          report.ok = false;
          report.violation = buf;
          return report;
        }
      }
    }
  }
  report.distinct_keys = static_cast<int64_t>(key_owner.size());
  return report;
}

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_INVARIANTS_H_
