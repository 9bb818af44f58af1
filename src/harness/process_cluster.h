// ProcessCluster: launches an n-replica (+ client pools) deployment as
// separate OS processes over loopback UDP and runs the harness safety
// sweep over their final reports.
//
// The launcher side of the deployment story (the node side is
// tools/prestige_node):
//   1. allocate loopback ports and write a net::ClusterConfig file;
//   2. fork/exec one prestige_node per node, stdout/err to per-node logs;
//   3. ping-barrier every control socket until the fleet is up;
//   4. let the scripted duration elapse, then `stop` + `status` + `quit`
//      each node over its control socket and reap the processes;
//   5. parse each status reply into a NodeReport and run LedgerSweep
//      (harness/invariants.h) over the replicas' LedgerReports — the same
//      sweep CheckSafety runs over in-process clusters.
//
// Nodes self-report: prestige_node builds its LedgerReport with
// BuildLedgerReport, as CheckSafety does, and ships it with full block
// digests. A node with no status reply, or one that answered while still
// running, fails the run.

#ifndef PRESTIGE_HARNESS_PROCESS_CLUSTER_H_
#define PRESTIGE_HARNESS_PROCESS_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/invariants.h"
#include "net/address.h"
#include "net/frame.h"

namespace prestige {
namespace harness {

/// Everything one node reports in its `status` reply. Every field travels
/// in the status JSON; replica and pool fields are zero on the other kind.
struct NodeReport {
  uint32_t id = 0;
  bool is_replica = true;
  bool running = false;    ///< Answered while live: not a final report.
  bool responded = false;  ///< Launcher side: a status reply parsed.

  // Replica fields.
  int64_t committed_txs = 0;
  int64_t committed_blocks = 0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  LedgerReport ledger;

  // Pool fields.
  int64_t completed = 0;
  int64_t replies = 0;
  int64_t result_mismatches = 0;
  int64_t retransmissions = 0;
  int64_t complaints = 0;
  int64_t expired = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  net::FrameCounters net;
};

/// One node's status reply: a single JSON line. NodeStatusJson and
/// ParseNodeStatus share one field list, so whatever is written parses
/// back exactly.
std::string NodeStatusJson(const NodeReport& report);

/// Parses a NodeStatusJson line and sets `responded`. Returns false, with
/// `out` untouched, on malformed JSON or a key outside the field list.
bool ParseNodeStatus(const std::string& json, NodeReport* out);

/// The JSON object of a set of frame counters, all 15 fields: the `net`
/// block of node status, prestige_cluster --json and bench_runner's socket
/// block.
std::string FrameCountersJson(const net::FrameCounters& counters);

/// The safety sweep over a fleet's reports: every node must have answered
/// `status` after `stop`, then LedgerSweep runs over the replicas.
SafetyReport SweepNodeReports(const std::vector<NodeReport>& nodes);

/// Outcome of one multi-process run.
struct ProcessClusterResult {
  bool ran = false;
  std::string error;  ///< Launch/harvest failure when !ran.
  double duration_seconds = 0.0;
  int64_t committed = 0;  ///< Client-observed, summed over pools.
  double tps = 0.0;
  double p50_ms = 0.0;  ///< Max over pools (conservative).
  double p99_ms = 0.0;
  int64_t view_changes = 0;
  int64_t elections_won = 0;
  int64_t replies = 0;
  int64_t result_mismatches = 0;
  /// SweepNodeReports over `nodes`: heights and execution totals too.
  SafetyReport safety;
  net::FrameCounters net;  ///< Summed over every node.
  std::vector<NodeReport> nodes;
};

/// Launch parameters beyond the cluster config itself.
struct ProcessClusterOptions {
  net::ClusterConfig config;  ///< Peer addresses are filled by the launcher.
  std::string node_binary;    ///< Path to prestige_node.
  std::string work_dir;       ///< Config + per-node logs land here.
  int startup_timeout_ms = 15000;  ///< Ping-barrier budget for the fleet.
  int control_timeout_ms = 30000;  ///< Per-command control-socket budget.
};

/// Allocates loopback ports for every node of `options.config` (replicas
/// 0..n-1 then pools n..n+pools-1) and rewrites its peer list. Returns
/// false if the kernel refuses a port.
bool AllocateLoopbackPorts(net::ClusterConfig* config, std::string* error);

/// Runs the full launch → run → harvest → sweep sequence. Always reaps
/// every child it spawned (SIGKILL on the error paths).
ProcessClusterResult RunProcessCluster(const ProcessClusterOptions& options);

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_PROCESS_CLUSTER_H_
