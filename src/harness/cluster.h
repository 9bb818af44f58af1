// Cluster: one deployment of a protocol — n replicas per consensus group
// plus client pools — on a pluggable runtime backend.
//
// Generic over the protocol: any Replica type with
//   Replica(Config, ReplicaId, const KeyStore*, FaultSpec)
//   SetTopology(replica_node_ids, client_node_ids)
//   metrics() / store() / fault() / delivery()
// works (PrestigeBFT and all baselines follow this shape). The protocol
// Config must expose `n` and `f()`.
//
// Generic over the runtime too: the wiring (node layout, pools, KeyStore)
// and every metric accessor are written once here, and a small Backend
// policy only hosts and drives the nodes:
//   explicit Backend(const WorkloadOptions&)
//   runtime::NodeId Add(runtime::Node*, std::string* error)
//   void Start();  void RunFor(util::DurationMicros);  void Stop();
//   BackendCounters counters() const;
// SimBackend (below) is the deterministic simulator, ThreadedBackend
// (below) the in-process real-time runtime, and SocketBackend
// (socket_cluster.h) real loopback UDP. Backend-only surfaces are reached
// through backend(); Cluster forwards the simulator's simulator() and
// network() because the fault-scenario machinery drives them directly.
//
// On the wall-clock backends, read state only after Stop(): it joins the
// event loops, after which replica stores, metrics, and pool histograms
// are race-free to read from the caller's thread.

#ifndef PRESTIGE_HARNESS_CLUSTER_H_
#define PRESTIGE_HARNESS_CLUSTER_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/service.h"
#include "core/metrics.h"
#include "crypto/keys.h"
#include "net/frame.h"
#include "runtime/sim_env.h"
#include "runtime/threaded_env.h"
#include "shard/router.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/client_pool.h"
#include "workload/open_loop_pool.h"
#include "types/adversary.h"
#include "types/fault_spec.h"

namespace prestige {
namespace harness {

/// Workload / environment parameters shared by all protocols.
struct WorkloadOptions {
  uint32_t num_pools = 8;
  uint32_t clients_per_pool = 100;
  uint32_t payload_size = 32;  ///< m.
  util::DurationMicros client_timeout = util::Seconds(1);
  sim::LatencyModel latency = sim::LatencyModel::Datacenter();
  sim::CostModel cost;
  uint64_t seed = 1;
  /// Command shape the virtual clients issue (opaque vs real KV puts).
  workload::CommandKind command_kind = workload::CommandKind::kOpaque;
  uint64_t kv_key_space = 1024;
  /// Threaded backend only (ignored in simulation): size of each node's
  /// OrderedRunner prologue pool. 0 = classic single-thread-per-node path.
  uint32_t workers_per_node = 0;

  // ---- Sharding ---------------------------------------------------------
  /// Number of consensus groups. Each group is an independent replica set
  /// of `protocol.n` replicas — its own leader, views, and reputation —
  /// sharing one runtime backend; shard::Router hash-partitions the key
  /// space across groups and `num_pools` client pools drive EACH group.
  /// 1 = the classic unsharded deployment (wiring, ids, and RNG streams
  /// are bit-for-bit the historical ones). With more than one group the
  /// workload is forced to kKvPut: only real keys can be routed, opaque
  /// fingerprints cannot be generated pre-targeted at a group.
  uint32_t num_groups = 1;
  /// Router salt; must match whatever checks routing later.
  uint64_t router_salt = shard::Router::kDefaultSalt;

  // ---- Open-loop workload engine ----------------------------------------
  /// When true, pools are workload::OpenLoopPool arrival engines instead
  /// of closed-loop ClientPools. clients_per_pool is then unused (load
  /// comes from `arrival`, sessions from `logical_sessions`), and the
  /// scenario SetActive machinery does not apply.
  bool open_loop = false;
  workload::ArrivalSpec arrival;        ///< Per-pool arrival trace.
  uint64_t logical_sessions = 1000000;  ///< Sessions multiplexed per pool.
  double zipf_theta = 0.0;              ///< Key skew (0 = uniform).
  uint32_t max_outstanding = 2048;      ///< Per-pool in-flight budget.
  uint32_t max_backlog = 4096;          ///< Per-pool admission queue bound.
  double slo_ms = 500.0;                ///< End-to-end latency SLO.
  util::TimeMicros open_loop_stop_at = 0;  ///< Stop arrivals (0 = never).
};

/// Counters only some backends keep; the others leave them zero.
struct BackendCounters {
  uint64_t messages_delivered = 0;  ///< Messages handed to nodes.
  uint32_t workers = 0;    ///< Threaded prologue workers per node.
  net::FrameCounters net;  ///< Socket frame-level counters.
};

/// Deterministic discrete-event simulation: virtual time, the modelled
/// network (latency, bandwidth, CPU cost), and its fault plane.
class SimBackend {
 public:
  explicit SimBackend(const WorkloadOptions& workload)
      : sim_(workload.seed), net_(&sim_, workload.latency, workload.cost) {}

  /// Registers `node` as the next actor. The simulator forks the node's
  /// RNG stream here, so registration order is part of a run's identity.
  runtime::NodeId Add(runtime::Node* node, std::string* /*error*/) {
    envs_.push_back(std::make_unique<runtime::SimEnv>(node));
    const sim::ActorId id = sim_.AddActor(envs_.back().get());
    envs_.back()->AttachNetwork(&net_);
    return id;
  }

  /// Sizes the network's per-actor tables once for every registered actor
  /// (instead of growing them lazily inside Send/Deliver), then schedules
  /// each node's OnStart at the current virtual time, in registration
  /// order. Call once, before the first RunFor.
  void Start() {
    net_.PresizeActors(sim_.num_actors());
    for (auto& env : envs_) {
      sim_.ScheduleAfter(0, [node = env->node()]() { node->OnStart(); });
    }
  }
  void RunFor(util::DurationMicros duration) {
    sim_.RunUntil(sim_.Now() + duration);
  }
  void Stop() {}

  BackendCounters counters() const {
    BackendCounters c;
    c.messages_delivered = net_.stats().messages_delivered;
    return c;
  }
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }

 private:
  sim::Simulator sim_;
  sim::Network net_;
  /// One SimEnv per node, in registration order; must outlive the sim run.
  std::vector<std::unique_ptr<runtime::SimEnv>> envs_;
};

/// The real-time threaded runtime: one event-loop thread per node joined
/// by in-process loopback queues. No modelled network and no fault plane;
/// messages move at whatever rate the hardware sustains. Node ids and RNG
/// forks follow registration order, as in simulation, but thread
/// scheduling makes every run nondeterministic.
class ThreadedBackend {
 public:
  explicit ThreadedBackend(const WorkloadOptions& workload)
      : runtime_(workload.seed, workload.workers_per_node) {}

  runtime::NodeId Add(runtime::Node* node, std::string* /*error*/) {
    return runtime_.AddNode(node);
  }
  /// Spawns the event loops (each node's OnStart runs on its own thread).
  void Start() { runtime_.Start(); }
  /// The node threads do the work; the caller just sleeps.
  void RunFor(util::DurationMicros duration) {
    std::this_thread::sleep_for(std::chrono::microseconds(duration));
  }
  /// Stops every event loop and joins. Idempotent.
  void Stop() { runtime_.Stop(); }

  BackendCounters counters() const {
    BackendCounters c;
    c.messages_delivered = runtime_.messages_delivered();
    c.workers = runtime_.workers_per_node();
    return c;
  }

 private:
  runtime::ThreadedRuntime runtime_;
};

/// A complete deployment of one protocol on `Backend`.
template <typename Replica, typename Config, typename Backend = SimBackend>
class Cluster {
 public:
  Cluster(Config protocol, WorkloadOptions workload,
          std::vector<types::FaultSpec> faults = {})
      : protocol_(protocol),
        workload_(workload),
        keys_(workload.seed ^ 0xc0ffee),
        backend_(workload) {
    if (workload_.num_groups == 0) workload_.num_groups = 1;
    const uint32_t groups = workload_.num_groups;
    // Faults address replicas by global (group-major) index; the usual
    // n-entry list targets group 0 and every other group runs honest.
    faults.resize(static_cast<size_t>(protocol_.n) * groups,
                  types::FaultSpec::Honest());

    // Registration order (replicas group-major, then pools group-major)
    // fixes both the id layout and each node's forked RNG stream. With one
    // group this is exactly the historical wiring — replicas 0..n-1, then
    // pools 0..num_pools-1 — so unsharded runs stay bit-for-bit
    // reproducible across the sharding refactor.
    std::vector<std::vector<runtime::NodeId>> group_replica_ids(groups);
    std::vector<std::vector<runtime::NodeId>> group_pool_ids(groups);
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t i = 0; i < protocol_.n; ++i) {
        replicas_.push_back(std::make_unique<Replica>(
            protocol_, i, &keys_,
            faults[static_cast<size_t>(g) * protocol_.n + i]));
        const runtime::NodeId id = Add(replicas_.back().get());
        group_replica_ids[g].push_back(id);
        replica_ids_.push_back(id);
      }
    }
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t p = 0; p < workload_.num_pools; ++p) {
        client::Client* client = MakePool(g, p);
        group_pool_ids[g].push_back(Add(client));
        client->SetReplicas(group_replica_ids[g]);
      }
    }
    // Each group's topology is its own replica set: groups never
    // intercommunicate, which is what makes per-group leaders, views, and
    // reputation independent by construction.
    for (uint32_t g = 0; g < groups; ++g) {
      for (uint32_t i = 0; i < protocol_.n; ++i) {
        group_replica(g, i).SetTopology(group_replica_ids[g],
                                        group_pool_ids[g]);
      }
    }
  }

  /// Joins any event loops before a node is destroyed, so a cluster going
  /// out of scope between Start and Stop (an exception, say) never tears
  /// down replicas or pools under a running loop thread.
  ~Cluster() { backend_.Stop(); }

  // Loop threads and simulator actors hold node addresses.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// False when a node could not be hosted (a socket bind failed); the
  /// deployment must then not be started. error() says why.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Starts every node. Call once before the first RunFor.
  void Start() { backend_.Start(); }
  /// Advances the deployment by `duration` (virtual or wall-clock time).
  void RunFor(util::DurationMicros duration) { backend_.RunFor(duration); }
  /// Stops the event loops (no-op in simulation). Call before inspecting
  /// state on a wall-clock backend.
  void Stop() { backend_.Stop(); }

  Replica& replica(uint32_t i) { return *replicas_[i]; }
  const Replica& replica(uint32_t i) const { return *replicas_[i]; }
  /// Closed-loop pool p (none exist on open-loop deployments).
  workload::ClientPool& pool(uint32_t p) { return *pools_[p]; }
  /// Backend node id of replica i (for fault-plane partitions / link
  /// faults).
  runtime::NodeId replica_actor_id(uint32_t i) const {
    return replica_ids_[i];
  }
  /// Total replicas across groups (group-major: group g owns global
  /// indices [g*n, (g+1)*n)). Equal to protocol n when unsharded.
  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  uint32_t num_pools() const { return static_cast<uint32_t>(pools_.size()); }
  uint32_t num_groups() const { return workload_.num_groups; }
  uint32_t replicas_per_group() const { return protocol_.n; }
  /// Replica i of group g (the group-local view of the global layout).
  Replica& group_replica(uint32_t g, uint32_t i) {
    return *replicas_[static_cast<size_t>(g) * protocol_.n + i];
  }

  Backend& backend() { return backend_; }
  // Simulation only.
  sim::Simulator& simulator() { return backend_.simulator(); }
  sim::Network& network() { return backend_.network(); }
  /// Crash / recover replica i at the network level (it neither sends nor
  /// receives while down). Simulation only.
  void SetReplicaDown(uint32_t i, bool down) {
    backend_.network().SetNodeDown(replica_ids_[i], down);
  }

  /// Installs an application service on every replica (each gets its own
  /// instance from `factory`). Call before Start().
  void InstallServices(
      const std::function<std::unique_ptr<app::Service>()>& factory) {
    for (auto& replica : replicas_) replica->SetService(factory());
  }

  /// Installs an active-adversary policy on every replica and client pool
  /// (the policy decides per node id whether and how to misbehave). The
  /// caller keeps ownership; call before Start() and keep `adversary`
  /// alive for the cluster's lifetime.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    for (auto& replica : replicas_) replica->SetAdversary(adversary);
    for (client::Client* client : clients_) client->SetAdversary(adversary);
  }

  // ------------------------------------------ replica/client/exec metrics

  /// Redeemer activations, summed over replicas.
  int64_t ViewChanges() const {
    return Sum(replicas_, [](const Replica& r) {
      return r.metrics().view_changes_started;
    });
  }
  /// Completed elections, summed over replicas.
  int64_t ElectionsWon() const {
    return Sum(replicas_,
               [](const Replica& r) { return r.metrics().elections_won; });
  }

  /// Reply entries matched to outstanding requests, summed over pools.
  int64_t RepliesReceived() const {
    return Sum(clients_, [](const client::Client& c) {
      return c.stats().replies_received;
    });
  }

  /// Conflicting result digests observed by clients (should be 0 with
  /// honest replicas).
  int64_t ResultMismatches() const {
    return Sum(clients_, [](const client::Client& c) {
      return c.stats().result_mismatches;
    });
  }

  /// Replica-side duplicate executions suppressed by the session tables.
  int64_t DuplicatesSuppressed() const {
    return Sum(replicas_, [](const Replica& r) {
      return r.delivery().stats().duplicates_suppressed;
    });
  }

  /// Exactly-once service executions, summed over replicas.
  int64_t ExecutedTotal() const {
    return Sum(replicas_,
               [](const Replica& r) { return r.delivery().stats().executed; });
  }

  /// Transactions committed, summed over all client pools (client-observed).
  int64_t ClientCommitted() const {
    return Sum(clients_,
               [](const client::Client& c) { return c.stats().completed; });
  }

  /// Transactions committed by group g's pools alone (pools register
  /// group-major, num_pools per group).
  int64_t GroupCommitted(uint32_t g) const {
    int64_t total = 0;
    const uint32_t per = workload_.num_pools;
    for (uint32_t p = g * per; p < (g + 1) * per && p < clients_.size();
         ++p) {
      total += clients_[p]->stats().completed;
    }
    return total;
  }

  /// Throughput observed by clients over [from, to] in tx/s. Uses replica 0's
  /// honest commit timeline when `replica_timeline` >= 0.
  double ClientThroughputTps(util::TimeMicros from, util::TimeMicros to,
                             int replica_timeline = -1) const {
    if (to <= from) return 0.0;
    if (replica_timeline >= 0) {
      const auto& timeline =
          replicas_[replica_timeline]->metrics().commit_timeline;
      int64_t count = 0;
      const auto& buckets = timeline.buckets();
      const size_t lo = static_cast<size_t>(from / timeline.window());
      const size_t hi = static_cast<size_t>(to / timeline.window());
      for (size_t i = lo; i < hi && i < buckets.size(); ++i) {
        count += buckets[i];
      }
      return static_cast<double>(count) / util::ToSeconds(to - from);
    }
    return static_cast<double>(ClientCommitted()) /
           util::ToSeconds(to - from);
  }

  /// Mean client latency in milliseconds across pools.
  double MeanLatencyMs() {
    double weighted = 0.0;
    size_t count = 0;
    for (client::Client* client : clients_) {
      weighted += client->latencies().Mean() *
                  static_cast<double>(client->latencies().count());
      count += client->latencies().count();
    }
    return count == 0 ? 0.0 : weighted / static_cast<double>(count);
  }

  /// Latency percentile over the merged samples of EVERY pool: pools may
  /// belong to different shard groups, and the merged percentile is exact
  /// either way.
  double LatencyPercentileMs(double p) {
    util::Histogram merged;
    for (client::Client* client : clients_) {
      merged.MergeFrom(client->latencies());
    }
    return merged.Percentile(p);
  }

  // ------------------------------------------------- open-loop aggregates

  /// End-to-end latency percentile (arrival → completion, including
  /// admission queueing) merged across every open-loop pool.
  double E2eLatencyPercentileMs(double p) {
    util::Histogram merged;
    for (auto& pool : open_pools_) merged.MergeFrom(pool->e2e_latencies());
    return merged.Percentile(p);
  }

  /// Trace arrivals generated / admitted into consensus / shed at
  /// admission, summed over open-loop pools.
  int64_t TotalArrivals() const {
    return Sum(open_pools_, [](const workload::OpenLoopPool& p) {
      return p.open_stats().arrivals;
    });
  }
  int64_t TotalAdmitted() const {
    return Sum(open_pools_, [](const workload::OpenLoopPool& p) {
      return p.open_stats().admitted;
    });
  }
  int64_t TotalShed() const {
    return Sum(open_pools_, [](const workload::OpenLoopPool& p) {
      return p.open_stats().shed;
    });
  }

  /// Fraction of completions meeting the SLO across open-loop pools
  /// (1.0 when nothing completed).
  double SloFraction() const {
    const int64_t met = Sum(open_pools_, [](const workload::OpenLoopPool& p) {
      return p.open_stats().slo_met;
    });
    const int64_t completed = Sum(
        open_pools_,
        [](const workload::OpenLoopPool& p) { return p.stats().completed; });
    return completed == 0
               ? 1.0
               : static_cast<double>(met) / static_cast<double>(completed);
  }

 private:
  /// Sums `field` over a vector of owning or raw node pointers.
  template <typename Nodes, typename Field>
  static int64_t Sum(const Nodes& nodes, Field field) {
    int64_t total = 0;
    for (const auto& node : nodes) total += field(*node);
    return total;
  }

  /// Hosts `node` on the backend, latching the first hosting error.
  runtime::NodeId Add(runtime::Node* node) {
    std::string error;
    const runtime::NodeId id = backend_.Add(node, &error);
    if (error_.empty()) error_ = error;
    return id;
  }

  /// Builds pool p of group g (closed- or open-loop per the workload) and
  /// returns it as the common client::Client base.
  client::Client* MakePool(uint32_t g, uint32_t p) {
    const uint32_t groups = workload_.num_groups;
    // Only real keys can be routed to a group, so sharded deployments
    // always drive KV puts regardless of the requested command kind.
    const workload::CommandKind kind = groups > 1
                                           ? workload::CommandKind::kKvPut
                                           : workload_.command_kind;
    // Pool ids are group-local: replicas index their own group's client
    // topology by pool id (clients_[reply->pool]), and cross-group
    // transaction identity is carried by the digest-covered group field.
    const types::ClientPoolId pool_id = p;
    if (workload_.open_loop) {
      workload::OpenLoopConfig pc;
      pc.pool_id = pool_id;
      pc.f = protocol_.f();
      pc.payload_size = workload_.payload_size;
      pc.request_timeout = workload_.client_timeout;
      pc.arrival = workload_.arrival;
      pc.logical_sessions = workload_.logical_sessions;
      pc.command_kind = kind;
      pc.kv_key_space = workload_.kv_key_space;
      pc.zipf_theta = workload_.zipf_theta;
      pc.max_outstanding = workload_.max_outstanding;
      pc.max_backlog = workload_.max_backlog;
      pc.slo_ms = workload_.slo_ms;
      pc.stop_at = workload_.open_loop_stop_at;
      pc.group = g;
      pc.num_groups = groups;
      pc.router_salt = workload_.router_salt;
      open_pools_.push_back(std::make_unique<workload::OpenLoopPool>(pc));
      clients_.push_back(open_pools_.back().get());
    } else {
      workload::ClientPoolConfig pool_config;
      pool_config.pool_id = pool_id;
      pool_config.num_clients = workload_.clients_per_pool;
      pool_config.payload_size = workload_.payload_size;
      pool_config.f = protocol_.f();
      pool_config.request_timeout = workload_.client_timeout;
      pool_config.command_kind = kind;
      pool_config.kv_key_space = workload_.kv_key_space;
      pool_config.group = g;
      pool_config.num_groups = groups;
      pool_config.router_salt = workload_.router_salt;
      pools_.push_back(std::make_unique<workload::ClientPool>(pool_config));
      clients_.push_back(pools_.back().get());
    }
    return clients_.back();
  }

  Config protocol_;
  WorkloadOptions workload_;
  crypto::KeyStore keys_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<workload::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::OpenLoopPool>> open_pools_;
  /// Every pool of either kind, in registration (group-major) order.
  std::vector<client::Client*> clients_;
  std::vector<runtime::NodeId> replica_ids_;
  std::string error_;  ///< First backend hosting error; empty when ok.
  /// Declared last so it is destroyed first: on the wall-clock backends
  /// its runtime joins the loop threads before any node above goes away.
  Backend backend_;
};

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_CLUSTER_H_
