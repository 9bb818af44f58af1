// prestige_node: one deployment node (replica or client pool) as an OS
// process over the socket runtime.
//
// Usage:
//   prestige_node --config cluster.cfg --id 2
//
// The config (net/address.h format) names every node's data (UDP) and
// control (TCP) address plus the workload parameters; --id selects which
// entry this process embodies. Ids 0..n-1 are replicas of the configured
// protocol, n..n+pools-1 are closed-loop client pools.
//
// The control socket speaks a line-oriented protocol, one command per
// connection:
//   ping    ->  "ok" (liveness, safe mid-run)
//   stop    ->  stops the runtime (joins the event loop), replies "ok"
//   status  ->  one JSON line, harness::NodeStatusJson of this node's
//               NodeReport: counters and the ledger report after stop;
//               while live, "running":true with every counter zero
//   quit    ->  "ok", then the process exits 0
//
// prestige_cluster (tools/prestige_cluster) drives fleets of these and
// runs the harness safety sweep over their status reports.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/replica.h"
#include "harness/process_cluster.h"
#include "net/address.h"
#include "net/socket.h"
#include "runtime/socket_env.h"
#include "workload/client_pool.h"

namespace {

using prestige::harness::NodeReport;
using prestige::net::ClusterConfig;
using prestige::net::PeerEntry;

/// Serves the control protocol until `quit`. `status` replies with this
/// node's report; `fill` adds the counters and ledger only once `stop` has
/// joined the event loops, when reading node state is race-free.
int ControlLoop(prestige::net::TcpListener* control,
                prestige::runtime::SocketRuntime* runtime,
                const PeerEntry& self,
                const std::function<void(NodeReport*)>& fill) {
  bool running = true;
  for (;;) {
    const int fd = control->Accept(200);
    if (fd < 0) continue;
    prestige::net::TcpConn conn(fd);
    std::string command;
    if (!conn.RecvLine(&command, 2000)) continue;
    if (command == "ping") {
      conn.SendLine("ok");
    } else if (command == "stop") {
      runtime->Stop();
      running = false;
      conn.SendLine("ok");
    } else if (command == "status") {
      NodeReport report;
      report.id = self.id;
      report.is_replica = self.kind == PeerEntry::Kind::kReplica;
      report.running = running;
      if (!running) {
        report.net = runtime->node_net_stats(self.id);
        fill(&report);
      }
      conn.SendLine(prestige::harness::NodeStatusJson(report));
    } else if (command == "quit") {
      conn.SendLine("ok");
      runtime->Stop();
      return 0;
    } else {
      conn.SendLine("err unknown command '" + command + "'");
    }
  }
}

void PublishPeers(prestige::runtime::SocketRuntime* runtime,
                  const ClusterConfig& config, uint32_t self_id) {
  for (const PeerEntry& peer : config.peers) {
    if (peer.id != self_id) runtime->SetPeer(peer.id, peer.data);
  }
}

template <typename Replica, typename Config>
int RunReplicaNode(const ClusterConfig& config, const PeerEntry& self,
                   Config protocol) {
  prestige::crypto::KeyStore keys(config.seed ^ 0xc0ffee);
  prestige::runtime::SocketRuntime runtime(config.seed);
  Replica replica(protocol, self.id, &keys,
                  prestige::types::FaultSpec::Honest());
  std::string error;
  if (!runtime.AddNode(&replica, self.id, self.data, &error)) {
    std::fprintf(stderr, "prestige_node: %s\n", error.c_str());
    return 1;
  }
  PublishPeers(&runtime, config, self.id);
  replica.SetTopology(config.ReplicaIds(), config.PoolIds());

  prestige::net::TcpListener control;
  if (!control.Listen(self.control, &error)) {
    std::fprintf(stderr, "prestige_node: %s\n", error.c_str());
    return 1;
  }
  runtime.Start();
  return ControlLoop(&control, &runtime, self, [&](NodeReport* report) {
    const auto& metrics = replica.metrics();
    report->committed_txs = metrics.committed_txs;
    report->committed_blocks = metrics.committed_blocks;
    report->view_changes = metrics.view_changes_started;
    report->elections_won = metrics.elections_won;
    report->ledger = prestige::harness::BuildLedgerReport(replica);
  });
}

int RunPoolNode(const ClusterConfig& config, const PeerEntry& self) {
  prestige::runtime::SocketRuntime runtime(config.seed);
  prestige::workload::ClientPoolConfig pool_config;
  pool_config.pool_id = self.id - config.n;
  pool_config.num_clients = config.clients_per_pool;
  pool_config.payload_size = config.payload;
  pool_config.f = prestige::types::MaxFaulty(config.n);
  pool_config.request_timeout = prestige::util::Seconds(2);
  prestige::workload::ClientPool pool(pool_config);
  std::string error;
  if (!runtime.AddNode(&pool, self.id, self.data, &error)) {
    std::fprintf(stderr, "prestige_node: %s\n", error.c_str());
    return 1;
  }
  PublishPeers(&runtime, config, self.id);
  pool.SetReplicas(config.ReplicaIds());

  prestige::net::TcpListener control;
  if (!control.Listen(self.control, &error)) {
    std::fprintf(stderr, "prestige_node: %s\n", error.c_str());
    return 1;
  }
  runtime.Start();
  return ControlLoop(&control, &runtime, self, [&](NodeReport* report) {
    const auto& stats = pool.stats();
    report->completed = stats.completed;
    report->replies = stats.replies_received;
    report->result_mismatches = stats.result_mismatches;
    report->retransmissions = stats.retransmissions;
    report->complaints = stats.complaints_sent;
    report->expired = stats.expired;
    report->p50_ms = pool.latencies().Percentile(50);
    report->p99_ms = pool.latencies().Percentile(99);
    report->mean_ms = pool.latencies().Mean();
  });
}

int Usage() {
  std::fprintf(stderr,
               "usage: prestige_node --config <cluster.cfg> --id <node-id>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  int64_t id = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--id") == 0 && i + 1 < argc) {
      id = std::strtoll(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (config_path.empty() || id < 0) return Usage();

  std::ifstream in(config_path);
  if (!in) {
    std::fprintf(stderr, "prestige_node: cannot read %s\n",
                 config_path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  ClusterConfig config;
  std::string error;
  if (!prestige::net::ParseClusterConfig(text.str(), &config, &error)) {
    std::fprintf(stderr, "prestige_node: %s: %s\n", config_path.c_str(),
                 error.c_str());
    return 1;
  }
  const PeerEntry* self = config.Find(static_cast<uint32_t>(id));
  if (self == nullptr) {
    std::fprintf(stderr, "prestige_node: id %lld not in %s\n",
                 static_cast<long long>(id), config_path.c_str());
    return 1;
  }

  if (self->kind == PeerEntry::Kind::kPool) {
    return RunPoolNode(config, *self);
  }
  if (config.protocol == "prestigebft") {
    prestige::core::PrestigeConfig protocol;
    protocol.n = config.n;
    protocol.batch_size = config.batch;
    protocol.timeout_min = prestige::util::Millis(800);
    protocol.timeout_max = prestige::util::Millis(1200);
    return RunReplicaNode<prestige::core::PrestigeReplica>(config, *self,
                                                           protocol);
  }
  if (config.protocol == "hotstuff") {
    prestige::baselines::hotstuff::HotStuffConfig protocol;
    protocol.n = config.n;
    protocol.batch_size = config.batch;
    protocol.view_timeout = prestige::util::Seconds(1);
    return RunReplicaNode<prestige::baselines::hotstuff::HotStuffReplica>(
        config, *self, protocol);
  }
  if (config.protocol == "sbft") {
    prestige::baselines::sbft::SbftConfig protocol;
    protocol.n = config.n;
    protocol.batch_size = config.batch;
    return RunReplicaNode<prestige::baselines::sbft::SbftReplica>(
        config, *self, protocol);
  }
  std::fprintf(stderr, "prestige_node: unknown protocol '%s'\n",
               config.protocol.c_str());
  return 1;
}
