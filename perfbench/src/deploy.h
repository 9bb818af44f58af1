// Deployment: n PrestigeBFT replicas plus the benchmark's one LoadClient
// on the threaded or the in-process socket runtime, optionally behind the
// trace interposers. It exposes num_replicas()/replica(i) so
// harness::CheckSafety sweeps it like any cluster.

#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "core/replica.h"
#include "harness/socket_cluster.h"
#include "load.h"
#include "runtime/socket_env.h"
#include "runtime/threaded_env.h"
#include "trace.h"

namespace perfbench {

enum class Backend { kThreaded, kSocket };

struct DeploySpec {
  Backend backend = Backend::kThreaded;
  uint32_t n = 4;
  uint64_t seed = 1;
  /// KvService on every replica; otherwise the default null service.
  bool kv = false;
  uint64_t kv_keys = 1;
  /// Fault of replica 0, the genesis leader.
  types::FaultSpec leader_fault = types::FaultSpec::Honest();
  /// Closed loop when sessions > 0, else the open-loop schedule.
  uint32_t sessions = 0;
  uint32_t command_bytes = 32;
  std::vector<Arrival> schedule;
  util::DurationMicros expire_after = 0;
  bool trace = false;
};

class Deployment {
 public:
  explicit Deployment(DeploySpec spec)
      : spec_(std::move(spec)), keys_(spec_.seed ^ 0x9e3779b97f4a7c15ULL) {
    core::PrestigeConfig config;
    config.n = spec_.n;
    client::ClientConfig cc;
    cc.f = config.f();
    cc.payload_size = spec_.command_bytes;
    if (spec_.sessions > 0) {
      client_ = std::make_unique<LoadClient>(cc, spec_.sessions,
                                             spec_.command_bytes, spec_.seed);
    } else {
      client_ = std::make_unique<LoadClient>(cc, std::move(spec_.schedule),
                                             spec_.expire_after);
    }
    if (spec_.trace) {
      tracer_ = std::make_unique<Tracer>(spec_.backend == Backend::kThreaded,
                                         config.f() + 1);
    }
    for (uint32_t i = 0; i < spec_.n; ++i) {
      replicas_.push_back(std::make_unique<core::PrestigeReplica>(
          config, i, &keys_,
          i == 0 ? spec_.leader_fault : types::FaultSpec::Honest()));
    }
    if (spec_.backend == Backend::kThreaded) {
      threaded_ = std::make_unique<runtime::ThreadedRuntime>(spec_.seed);
    } else {
      socket_ = std::make_unique<runtime::SocketRuntime>(spec_.seed);
    }
    std::vector<runtime::NodeId> replica_ids;
    for (uint32_t i = 0; i < spec_.n; ++i) {
      core::PrestigeReplica* replica = replicas_[i].get();
      runtime::Node* node = Wrap(replica, false);
      std::unique_ptr<app::Service> service;
      if (spec_.kv) {
        service = std::make_unique<app::KvService>(spec_.kv_keys);
      } else if (spec_.trace) {
        service = std::make_unique<app::NullService>();
      }
      if (service != nullptr && spec_.trace) {
        service = std::make_unique<TracedService>(
            std::move(service), replica, wrappers_.back()->trace());
      }
      if (service != nullptr) replica->SetService(std::move(service));
      replica_ids.push_back(Add(node, i));
    }
    const runtime::NodeId client_id = Add(Wrap(client_.get(), true), spec_.n);
    client_->SetReplicas(replica_ids);
    for (auto& replica : replicas_) replica->SetTopology(replica_ids, {client_id});
  }

  ~Deployment() { Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void Start() {
    if (threaded_) threaded_->Start();
    if (socket_) socket_->Start();
  }
  void Stop() {
    if (threaded_) threaded_->Stop();
    if (socket_) socket_->Stop();
  }

  /// Runtime micros since Start (the clock every node and fault sees).
  int64_t Now() const { return threaded_ ? threaded_->Now() : socket_->Now(); }

  /// Blocks until the first request completes; false after `limit_s`.
  bool WaitFirstCommit(double limit_s) {
    const int64_t start = MonoNs();
    while (client_->completed_live() == 0) {
      if (SecondsSince(start) > limit_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  LoadClient& client() { return *client_; }
  /// Socket frame counters summed over nodes (zero on the threaded runtime).
  net::FrameCounters net_stats() const {
    return socket_ ? socket_->net_stats() : net::FrameCounters{};
  }

  // Cluster shape harness::CheckSafety expects.
  uint32_t num_replicas() const {
    return static_cast<uint32_t>(replicas_.size());
  }
  const core::PrestigeReplica& replica(uint32_t i) const {
    return *replicas_[i];
  }
  /// Trace of replica i (i == n is the client); null when untraced.
  NodeTrace* trace(uint32_t i) const {
    return wrappers_.empty() ? nullptr : wrappers_[i]->trace();
  }

 private:
  runtime::Node* Wrap(runtime::Node* node, bool is_client) {
    if (!tracer_) return node;
    wrappers_.push_back(
        std::make_unique<TracedNode>(node, tracer_.get(), is_client));
    return wrappers_.back().get();
  }

  runtime::NodeId Add(runtime::Node* node, runtime::NodeId id) {
    if (threaded_) return threaded_->AddNode(node);
    std::string error;
    if (!socket_->AddNode(node, id, harness::LoopbackAny(), &error)) {
      error_ = "socket bind failed: " + error;
    }
    return id;
  }

  DeploySpec spec_;
  std::string error_;
  crypto::KeyStore keys_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<std::unique_ptr<core::PrestigeReplica>> replicas_;
  std::unique_ptr<LoadClient> client_;
  std::vector<std::unique_ptr<TracedNode>> wrappers_;
  // Runtimes last: they are destroyed (and their threads joined) before
  // the nodes they drive.
  std::unique_ptr<runtime::ThreadedRuntime> threaded_;
  std::unique_ptr<runtime::SocketRuntime> socket_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
