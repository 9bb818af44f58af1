// Tests for runtime::OrderedRunner, the per-node prologue worker pool of
// the threaded backend. The core property under test: however adversarially
// the workers finish their prologues, epilogues are delivered strictly in
// submission (receive) order, on the loop thread, exactly once. Every test
// here crosses threads — the suite runs under the TSan CI job alongside
// threaded_env_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "runtime/ordered_runner.h"
#include "runtime/threaded_env.h"

namespace prestige {
namespace runtime {
namespace {

using util::Millis;

/// Per-index gate: prologues block in Await(i) until the test opens gate i,
/// which lets a test force any prologue completion order it likes.
class Gate {
 public:
  void Open(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_.insert(i);
    }
    cv_.notify_all();
  }
  void Await(size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_.count(i) > 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<size_t> open_;
};

/// Minimal loop-thread stand-in: waits for the runner's wakeup and drains
/// ready epilogues until `target` have been delivered.
class FakeLoop {
 public:
  std::function<void()> Wakeup() {
    return [this]() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++wakeups_;
      }
      cv_.notify_one();
    };
  }

  void DrainUntil(OrderedRunner& runner, uint64_t target) {
    while (runner.delivered() < target) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(50),
                     [&] { return runner.HasReady(); });
      }
      runner.RunReadyEpilogues();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int wakeups_ = 0;
};

TEST(OrderedRunnerTest, EpiloguesFollowSubmissionOrderUnderForcedCompletionOrder) {
  constexpr size_t kTasks = 8;
  Gate gate;
  FakeLoop loop;
  // One worker per task so every prologue can block in the gate at once.
  OrderedRunner runner(kTasks, loop.Wakeup());

  std::vector<size_t> order;  // Written by epilogues (this thread only).
  for (size_t i = 0; i < kTasks; ++i) {
    runner.Submit([&gate, &order, i]() -> OrderedRunner::Epilogue {
      gate.Await(i);
      return [&order, i]() { order.push_back(i); };
    });
  }

  // Completing the LAST prologue first must not make anything ready: the
  // head of the sequence is still in flight.
  gate.Open(kTasks - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(runner.HasReady());
  EXPECT_EQ(runner.delivered(), 0u);

  // Release the rest in a fixed adversarial order (middle-out, head last).
  for (const size_t i : {4u, 2u, 6u, 1u, 5u, 3u, 0u}) gate.Open(i);
  loop.DrainUntil(runner, kTasks);
  runner.Stop();

  std::vector<size_t> expect(kTasks);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(runner.submitted(), kTasks);
  EXPECT_EQ(runner.delivered(), kTasks);
}

TEST(OrderedRunnerTest, SeededShuffleStressKeepsOrderAcrossRounds) {
  constexpr size_t kTasks = 64;
  for (const uint32_t seed : {1u, 7u, 1234u}) {
    Gate gate;
    FakeLoop loop;
    OrderedRunner runner(kTasks, loop.Wakeup());

    std::vector<size_t> order;
    for (size_t i = 0; i < kTasks; ++i) {
      runner.Submit([&gate, &order, i]() -> OrderedRunner::Epilogue {
        gate.Await(i);
        return [&order, i]() { order.push_back(i); };
      });
    }

    std::vector<size_t> release(kTasks);
    std::iota(release.begin(), release.end(), 0u);
    std::mt19937 rng(seed);
    std::shuffle(release.begin(), release.end(), rng);
    for (const size_t i : release) gate.Open(i);

    loop.DrainUntil(runner, kTasks);
    runner.Stop();

    std::vector<size_t> expect(kTasks);
    std::iota(expect.begin(), expect.end(), 0u);
    EXPECT_EQ(order, expect) << "seed " << seed;
  }
}

TEST(OrderedRunnerTest, EpiloguesRunOnTheDrainingThreadOnly) {
  constexpr size_t kTasks = 32;
  FakeLoop loop;
  OrderedRunner runner(4, loop.Wakeup());

  const std::thread::id loop_thread = std::this_thread::get_id();
  std::atomic<int> wrong_thread{0};
  for (size_t i = 0; i < kTasks; ++i) {
    runner.Submit([&, i]() -> OrderedRunner::Epilogue {
      // Prologues DO run off the loop thread (sanity-check the premise
      // with more tasks than workers, so at least one must).
      std::this_thread::sleep_for(std::chrono::microseconds(i % 7));
      return [&]() {
        if (std::this_thread::get_id() != loop_thread) {
          wrong_thread.fetch_add(1, std::memory_order_relaxed);
        }
      };
    });
  }
  loop.DrainUntil(runner, kTasks);
  runner.Stop();
  EXPECT_EQ(wrong_thread.load(), 0);
  EXPECT_EQ(runner.delivered(), kTasks);
}

TEST(OrderedRunnerTest, DrainDeliversEverythingBeforeStop) {
  constexpr size_t kTasks = 100;
  OrderedRunner runner(3, []() {});
  std::vector<size_t> order;
  for (size_t i = 0; i < kTasks; ++i) {
    runner.Submit([&order, i]() -> OrderedRunner::Epilogue {
      std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
      return [&order, i]() { order.push_back(i); };
    });
  }
  // The shutdown sequence RunLoop uses: Drain (blocks until every stamped
  // task's epilogue has run, here, on this thread), then Stop.
  runner.Drain();
  EXPECT_EQ(runner.delivered(), kTasks);
  runner.Stop();

  std::vector<size_t> expect(kTasks);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(OrderedRunnerTest, StopFinishesStampedProloguesInsteadOfWedging) {
  constexpr size_t kTasks = 16;
  OrderedRunner runner(2, []() {});
  std::atomic<int> prologues{0};
  for (size_t i = 0; i < kTasks; ++i) {
    runner.Submit([&prologues]() -> OrderedRunner::Epilogue {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      prologues.fetch_add(1, std::memory_order_relaxed);
      return nullptr;  // Null epilogue: delivery still counts, runs nothing.
    });
  }
  // Stop without Drain: workers must finish every already-stamped task
  // (abandoning one would wedge all later epilogues behind a hole).
  runner.Stop();
  EXPECT_EQ(prologues.load(), static_cast<int>(kTasks));
  // The epilogue slots survive Stop; a final sweep delivers them in order.
  runner.RunReadyEpilogues();
  EXPECT_EQ(runner.delivered(), kTasks);
}

// ------------------------------------------------- ThreadedRuntime plumbing

struct SeqMsg : public NetMessage {
  uint64_t seq = 0;
  size_t WireSize() const override { return 16; }
  const char* Name() const override { return "Seq"; }
};

/// Receiver whose PreVerify stalls pseudo-randomly per message, scrambling
/// worker completion order; the epilogues record arrival order.
class RecordingNode : public Node {
 public:
  void OnMessage(NodeId, const MessagePtr& msg) override {
    if (auto* m = dynamic_cast<const SeqMsg*>(msg.get())) Record(m->seq);
  }

  VerdictFn PreVerify(NodeId, const MessagePtr& msg) override {
    auto m = std::dynamic_pointer_cast<const SeqMsg>(msg);
    if (m == nullptr) return nullptr;
    // Derived stall: later messages often "finish" before earlier ones.
    std::this_thread::sleep_for(
        std::chrono::microseconds((m->seq * 131) % 400));
    return [this, m]() { Record(m->seq); };
  }

  size_t count() const { return count_.load(std::memory_order_acquire); }
  // Loop-thread state; read after Stop() only.
  std::vector<uint64_t> order_;

 private:
  void Record(uint64_t seq) {
    order_.push_back(seq);
    count_.fetch_add(1, std::memory_order_release);
  }
  std::atomic<size_t> count_{0};
};

/// Sender: fires `total` numbered messages at the receiver from OnStart.
class BlastNode : public Node {
 public:
  BlastNode(NodeId peer, uint64_t total) : peer_(peer), total_(total) {}
  void OnStart() override {
    for (uint64_t i = 0; i < total_; ++i) {
      auto msg = std::make_shared<SeqMsg>();
      msg->seq = i;
      Send(peer_, msg);
    }
  }
  void OnMessage(NodeId, const MessagePtr&) override {}

 private:
  NodeId peer_;
  uint64_t total_;
};

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

TEST(OrderedRunnerIntegrationTest, RuntimeDeliversPerSenderFifoWithWorkers) {
  constexpr uint64_t kTotal = 200;
  ThreadedRuntime runtime(1, /*workers_per_node=*/3);
  EXPECT_EQ(runtime.workers_per_node(), 3u);
  RecordingNode receiver;
  BlastNode sender(/*peer=*/0, kTotal);
  ASSERT_EQ(runtime.AddNode(&receiver), 0u);
  ASSERT_EQ(runtime.AddNode(&sender), 1u);
  runtime.Start();
  EXPECT_TRUE(SpinUntil([&] { return receiver.count() >= kTotal; }, 10000));
  runtime.Stop();

  std::vector<uint64_t> expect(kTotal);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(receiver.order_, expect);
  EXPECT_GE(runtime.messages_delivered(), kTotal);
}

TEST(OrderedRunnerIntegrationTest, PrestigeBftCommitsWithWorkerPool) {
  core::PrestigeConfig config;
  config.n = 4;
  config.batch_size = 50;
  config.batch_wait = Millis(2);
  config.timeout_min = util::Seconds(2);
  config.timeout_max = util::Seconds(3);
  harness::WorkloadOptions workload;
  workload.num_pools = 2;
  workload.clients_per_pool = 25;
  workload.payload_size = 32;
  workload.client_timeout = util::Seconds(2);
  workload.seed = 5;
  workload.workers_per_node = 2;

  harness::Cluster<core::PrestigeReplica, core::PrestigeConfig,
                   harness::ThreadedBackend>
      cluster(config, workload);
  EXPECT_EQ(cluster.backend().counters().workers, 2u);
  cluster.Start();
  cluster.RunFor(Millis(700));
  cluster.Stop();

  EXPECT_GT(cluster.ClientCommitted(), 0);
  const harness::SafetyReport safety = harness::CheckSafety(cluster);
  EXPECT_TRUE(safety.ok) << safety.violation;
  EXPECT_GT(cluster.replica(0).metrics().committed_txs, 0);
}

}  // namespace
}  // namespace runtime
}  // namespace prestige
