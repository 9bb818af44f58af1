// SocketBackend: the Cluster backend (cluster.h) that hosts every node on
// the socket runtime inside ONE process — each node gets its own loopback
// UDP socket and event-loop thread, and all traffic crosses the kernel
// through the net/ framing and wire codec.
//
// This is the in-process twin of the multi-process deployment that
// prestige_node / prestige_cluster build: same runtime, same framing, same
// per-(seed, id) RNG derivation — only the process boundary differs. It
// lets tests and bench_runner exercise the socket transport without
// fork/exec, and the cross-backend equivalence suite sweep identical
// invariants over sim, threaded, and socket runs:
//   Cluster<Replica, Config, SocketBackend> cluster(config, workload);
// Node ids follow registration order like the other backends (replicas
// group-major, then pools group-major).

#ifndef PRESTIGE_HARNESS_SOCKET_CLUSTER_H_
#define PRESTIGE_HARNESS_SOCKET_CLUSTER_H_

#include <chrono>
#include <string>
#include <thread>

#include "harness/cluster.h"
#include "runtime/socket_env.h"

namespace prestige {
namespace harness {

/// The loopback address nodes bind to (port 0 = kernel-assigned).
inline net::SockAddr LoopbackAny() {
  net::SockAddr addr;
  addr.ip = 0x7f000001;  // 127.0.0.1
  addr.port = 0;
  return addr;
}

/// Real loopback UDP: one socket and one event-loop thread per node.
class SocketBackend {
 public:
  explicit SocketBackend(const WorkloadOptions& workload)
      : runtime_(workload.seed) {}

  /// Binds `node` to its own loopback socket under the next id. A failed
  /// bind (out of descriptors, say) leaves the node unhosted and says why
  /// in `error`.
  runtime::NodeId Add(runtime::Node* node, std::string* error) {
    const runtime::NodeId id = next_id_++;
    std::string why;
    if (!runtime_.AddNode(node, id, LoopbackAny(), &why)) {
      *error = "socket bind failed: " + why;
    }
    return id;
  }
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
    c.net = runtime_.net_stats();
    return c;
  }

 private:
  runtime::SocketRuntime runtime_;
  runtime::NodeId next_id_ = 0;
};

}  // namespace harness
}  // namespace prestige

#endif  // PRESTIGE_HARNESS_SOCKET_CLUSTER_H_
