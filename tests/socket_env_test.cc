// Tests for the socket backend: SocketRuntime primitives (real loopback
// UDP transport, timers, local fallback for unserializable messages),
// live-loop hostile-datagram injection, and the cross-backend equivalence
// run — the same fault-free scenario on the simulator, the threaded
// runtime, and the socket runtime must all commit work and pass the same
// safety sweep.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "core/replica.h"
#include "harness/scenario.h"
#include "harness/scenario_runner.h"
#include "harness/socket_cluster.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/socket_env.h"
#include "types/client_messages.h"

namespace prestige {
namespace runtime {
namespace {

using util::Millis;

/// Waits (really) until `pred` holds or `deadline_ms` passes.
template <typename Pred>
bool SpinUntil(Pred pred, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Ping-pong over real UDP: bounces a NoiseMsg (which HAS a wire form, so
/// every hop crosses the kernel's loopback stack) back to the sender with
/// an incremented size until `limit` hops.
class UdpPongNode : public Node {
 public:
  explicit UdpPongNode(uint32_t limit) : limit_(limit) {}

  void OnMessage(NodeId from, const MessagePtr& msg) override {
    const auto* noise = dynamic_cast<const core::NoiseMsg*>(msg.get());
    if (noise == nullptr) return;
    hops_.fetch_add(1, std::memory_order_relaxed);
    if (noise->bytes >= limit_) return;
    auto next = std::make_shared<core::NoiseMsg>();
    next->bytes = noise->bytes + 1;
    Send(from, next);
  }

  void Kick(NodeId to) {
    auto msg = std::make_shared<core::NoiseMsg>();
    msg->bytes = 1;
    Send(to, msg);
  }

  uint32_t hops() const { return hops_.load(std::memory_order_relaxed); }

 private:
  uint32_t limit_;
  std::atomic<uint32_t> hops_{0};
};

class KickingUdpPongNode : public UdpPongNode {
 public:
  KickingUdpPongNode(uint32_t limit, NodeId peer)
      : UdpPongNode(limit), peer_(peer) {}
  void OnStart() override { Kick(peer_); }

 private:
  NodeId peer_;
};

TEST(SocketRuntimeTest, PingPongOverLoopbackUdp) {
  SocketRuntime runtime(1);
  UdpPongNode a(200);
  KickingUdpPongNode b(200, /*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&a, 0, harness::LoopbackAny(), &error)) << error;
  ASSERT_TRUE(runtime.AddNode(&b, 1, harness::LoopbackAny(), &error)) << error;
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return a.hops() + b.hops() >= 200; }, 5000));
  runtime.Stop();
  EXPECT_GE(a.hops() + b.hops(), 200u);
  // Every hop was a real datagram, not an in-process shortcut.
  const net::FrameCounters net = runtime.net_stats();
  EXPECT_GE(net.frames_sent, 200u);
  EXPECT_GE(net.messages_assembled, 200u);
  EXPECT_EQ(net.unserializable_drops, 0u);
}

struct LocalOnlyMsg : public NetMessage {
  size_t WireSize() const override { return 8; }
  const char* Name() const override { return "LocalOnly"; }
};

/// Counts LocalOnlyMsg deliveries (no wire form -> mailbox fallback).
class LocalSinkNode : public Node {
 public:
  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (dynamic_cast<const LocalOnlyMsg*>(msg.get()) != nullptr) {
      received_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int received() const { return received_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> received_{0};
};

class LocalSenderNode : public Node {
 public:
  explicit LocalSenderNode(NodeId peer) : peer_(peer) {}
  void OnStart() override {
    for (int i = 0; i < 10; ++i) Send(peer_, std::make_shared<LocalOnlyMsg>());
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  NodeId peer_;
};

TEST(SocketRuntimeTest, UnserializableMessagesFallBackToLocalDelivery) {
  SocketRuntime runtime(7);
  LocalSinkNode sink;
  LocalSenderNode sender(/*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&sink, 0, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&sender, 1, harness::LoopbackAny(), &error));
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return sink.received() >= 10; }, 5000));
  runtime.Stop();
  EXPECT_EQ(sink.received(), 10);
  EXPECT_EQ(runtime.net_stats().unserializable_drops, 0u);
}

class TimerNode : public Node {
 public:
  void OnStart() override {
    SetTimer(Millis(5), 5);
    SetTimer(Millis(15), 15);
    const TimerId doomed = SetTimer(Millis(10), 10);
    CancelTimer(doomed);
  }
  void OnMessage(NodeId, const MessagePtr&) override {}
  void OnTimer(uint64_t tag) override {
    fired_order_.push_back(tag);
    count_.fetch_add(1, std::memory_order_release);
  }

  int count() const { return count_.load(std::memory_order_acquire); }
  // Loop-thread state; read after Stop() only.
  std::vector<uint64_t> fired_order_;

 private:
  std::atomic<int> count_{0};
};

TEST(SocketRuntimeTest, TimersFireInOrderAndCancelWorks) {
  SocketRuntime runtime(1);
  TimerNode node;
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&node, 0, harness::LoopbackAny(), &error));
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return node.count() >= 2; }, 5000));
  runtime.Stop();
  ASSERT_EQ(node.fired_order_.size(), 2u);
  EXPECT_EQ(node.fired_order_[0], 5u);
  EXPECT_EQ(node.fired_order_[1], 15u);  // Tag 10 was cancelled.
}

TEST(SocketRuntimeTest, DuplicateIdAndUnknownPeerAreHandled) {
  SocketRuntime runtime(1);
  UdpPongNode a(1);
  UdpPongNode b(1);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&a, 3, harness::LoopbackAny(), &error));
  EXPECT_FALSE(runtime.AddNode(&b, 3, harness::LoopbackAny(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(runtime.local_addr(3).valid());
  EXPECT_FALSE(runtime.local_addr(99).valid());
}

/// Sends one ClientBatch whose encoding (33 × 1 MiB commands) exceeds
/// net::kMaxMessageBytes, then raises `sent`.
class OversizeSenderNode : public Node {
 public:
  explicit OversizeSenderNode(NodeId peer) : peer_(peer) {}
  void OnStart() override {
    auto batch = std::make_shared<types::ClientBatch>();
    types::Transaction tx;
    tx.command.assign(net::kMaxWireCommand, 0x5a);
    for (uint64_t seq = 0; seq < 33; ++seq) {
      tx.client_seq = seq;
      batch->txs.push_back(tx);
    }
    Send(peer_, batch);
    sent_.store(true, std::memory_order_release);
  }
  void OnMessage(NodeId, const MessagePtr&) override {}
  bool sent() const { return sent_.load(std::memory_order_acquire); }

 private:
  NodeId peer_;
  std::atomic<bool> sent_{false};
};

TEST(SocketRuntimeTest, OversizeSendIsCountedAsSendError) {
  SocketRuntime runtime(1);
  UdpPongNode sink(1);
  OversizeSenderNode sender(/*peer=*/0);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&sink, 0, harness::LoopbackAny(), &error));
  ASSERT_TRUE(runtime.AddNode(&sender, 1, harness::LoopbackAny(), &error));
  runtime.Start();
  EXPECT_TRUE(SpinUntil(
      [&] {
        return sender.sent() && runtime.node_net_stats(1).send_errors >= 1;
      },
      5000));
  runtime.Stop();
  const net::FrameCounters c = runtime.node_net_stats(1);
  EXPECT_EQ(c.send_errors, 1u);
  EXPECT_EQ(c.frames_sent, 0u);
  EXPECT_EQ(c.bytes_sent, 0u);
}

// ----------------------------------------------- live hostile datagrams

/// Injects raw bytes at a live node's UDP socket: pure garbage must be a
/// header drop, a well-framed datagram whose payload fails wire decode
/// must be a decode drop — and the node must keep serving either way.
TEST(SocketRuntimeTest, HostileDatagramsAreCountedDropsNotCrashes) {
  SocketRuntime runtime(1);
  UdpPongNode victim(1u << 30);
  std::string error;
  ASSERT_TRUE(runtime.AddNode(&victim, 0, harness::LoopbackAny(), &error));
  runtime.Start();
  const net::SockAddr target = runtime.local_addr(0);
  ASSERT_TRUE(target.valid());

  net::UdpSocket attacker;
  ASSERT_TRUE(attacker.Bind(harness::LoopbackAny(), &error)) << error;

  // 1. Pure garbage: fails header validation.
  const std::vector<uint8_t> garbage(64, 0xee);
  ASSERT_TRUE(attacker.SendTo(target, garbage.data(), garbage.size()));

  // 2. Valid framing around an undecodable payload (unknown wire kind):
  //    passes the assembler, dies in DecodeMessage.
  net::FrameWriter writer(/*src=*/42);
  const std::vector<uint8_t> junk_payload = {0xff, 0x01, 0x02, 0x03};
  for (const auto& datagram : writer.Split(/*dst=*/0, junk_payload)) {
    ASSERT_TRUE(attacker.SendTo(target, datagram.data(), datagram.size()));
  }

  EXPECT_TRUE(SpinUntil(
      [&] {
        const net::FrameCounters c = runtime.node_net_stats(0);
        return c.header_drops >= 1 && c.decode_drops >= 1;
      },
      5000));

  // The victim still processes legitimate traffic after the attack.
  std::vector<uint8_t> wire;
  core::NoiseMsg noise;
  noise.bytes = 1;
  ASSERT_TRUE(net::EncodeMessage(noise, &wire));
  net::FrameWriter legit(/*src=*/42);
  for (const auto& datagram : legit.Split(/*dst=*/0, wire)) {
    ASSERT_TRUE(attacker.SendTo(target, datagram.data(), datagram.size()));
  }
  EXPECT_TRUE(SpinUntil([&] { return victim.hops() >= 1; }, 5000));
  runtime.Stop();

  const net::FrameCounters c = runtime.node_net_stats(0);
  EXPECT_GE(c.header_drops, 1u);
  EXPECT_GE(c.decode_drops, 1u);
}

// ------------------------------------------------- cross-backend equivalence

/// A fault-free steady-state spec all three backends can execute.
harness::ScenarioSpec EquivalenceSpec() {
  harness::ScenarioSpec spec;
  spec.name = "equivalence";
  spec.description = "fault-free cross-backend comparison";
  spec.n = 4;
  harness::Phase phase;
  phase.name = "steady";
  phase.duration = util::Seconds(2);
  spec.phases.push_back(phase);
  return spec;
}

harness::WorkloadOptions EquivalenceWorkload() {
  harness::WorkloadOptions w;
  w.num_pools = 2;
  w.clients_per_pool = 50;
  w.payload_size = 32;
  w.client_timeout = util::Seconds(1);
  w.seed = 11;
  return w;
}

core::PrestigeConfig EquivalenceConfig() {
  core::PrestigeConfig config;
  config.n = 4;
  config.batch_size = 500;
  return config;
}

/// The equivalence run on one backend: the only thing that varies.
template <typename Backend>
harness::BackendRunResult RunEquivalence(const harness::ScenarioSpec& spec) {
  return harness::RunScenarioOnBackend<core::PrestigeReplica,
                                       core::PrestigeConfig, Backend>(
      spec, EquivalenceConfig(), EquivalenceWorkload());
}

TEST(CrossBackendTest, SameScenarioCommitsAndStaysSafeOnAllThreeBackends) {
  const harness::ScenarioSpec spec = EquivalenceSpec();
  ASSERT_TRUE(harness::ThreadedCapable(spec));
  // A deliberately modest floor: virtual time and the two wall-clock
  // backends run at different speeds; equivalence means "all make real
  // progress and none violates an invariant", not identical throughput.
  constexpr int64_t kCommittedFloor = 1000;

  const harness::BackendRunResult runs[] = {
      RunEquivalence<harness::SimBackend>(spec),
      RunEquivalence<harness::ThreadedBackend>(spec),
      RunEquivalence<harness::SocketBackend>(spec),
  };
  const char* const names[] = {"sim", "threaded", "socket"};
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(runs[i].ran) << names[i] << ": " << runs[i].error;
    EXPECT_TRUE(runs[i].safety_ok) << names[i] << ": " << runs[i].violation;
    EXPECT_GE(runs[i].committed, kCommittedFloor) << names[i];
  }
  // The socket run really crossed the kernel: frames flowed and the
  // hardened receive path assembled them.
  const net::FrameCounters& net = runs[2].counters.net;
  EXPECT_GT(net.frames_sent, 0u);
  EXPECT_GT(net.messages_assembled, 0u);

  // The spec with a simulator-only fault must be refused, not misrun.
  harness::ScenarioSpec faulty = spec;
  faulty.phases[0].crash = {0};
  const harness::BackendRunResult refused =
      RunEquivalence<harness::SocketBackend>(faulty);
  EXPECT_FALSE(refused.ran);
  EXPECT_FALSE(refused.error.empty());
}

TEST(SocketClusterTest, BindFailureRefusesTheRun) {
  // With no descriptors left, socket() fails for every node: the cluster
  // must latch the error and the runner refuse to start, instead of
  // running a deployment of unbound nodes.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &none), 0);
  const harness::BackendRunResult result =
      RunEquivalence<harness::SocketBackend>(EquivalenceSpec());
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_FALSE(result.ran);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.committed, 0);
}

}  // namespace
}  // namespace runtime
}  // namespace prestige
