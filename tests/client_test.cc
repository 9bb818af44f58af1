// Tests for the embeddable client::Client library.
//
// Sim-side: reply-quorum matching on result digests (f+1 distinct
// replicas, divergent results never complete), retransmission, and
// complaint escalation, against scripted replicas.
//
// Threaded-side: the acceptance path — a standalone client embedded next
// to a real 4-replica PrestigeBFT cluster on the ThreadedRuntime, driving
// a kv Put and verifying the Get round-trips the written value through the
// real reply path; plus the same client::Client (as ClientPool) driving
// HotStuff and SBFT clusters on the threaded backend.

#include <gtest/gtest.h>

#include "app/kv_service.h"
#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "client/client.h"
#include "core/replica.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "runtime/sim_env.h"
#include "runtime/threaded_env.h"
#include "sim/actor.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace prestige {
namespace client {
namespace {

using util::Millis;
using util::Seconds;

/// Scripted replica: replies to every proposal with its own id; votes are
/// bound to the transport sender client-side, so each fixture replica is
/// its own actor. Optionally reports a divergent execution result.
class ScriptedReplica : public sim::Actor {
 public:
  explicit ScriptedReplica(types::ReplicaId id) : id_(id) {}

  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    if (auto* batch = dynamic_cast<const types::ClientBatch*>(msg.get())) {
      batches_received_ += 1;
      txs_received_ += static_cast<int64_t>(batch->txs.size());
      if (!respond_) return;
      auto reply = std::make_shared<types::ClientReply>();
      reply->replica = id_;
      reply->n = 1;
      reply->pool = 0;
      for (const types::Transaction& tx : batch->txs) {
        types::ReplyEntry entry;
        entry.client_seq = tx.client_seq;
        app::Response response;
        response.result = {diverge_ ? uint8_t{0xcd} : uint8_t{0xab}};
        entry.status = static_cast<uint8_t>(response.status);
        entry.result = response.result;
        entry.result_digest = app::ResultDigest(response);
        reply->entries.push_back(std::move(entry));
      }
      Send(from, reply);
    } else if (dynamic_cast<const types::ClientComplaint*>(msg.get())) {
      ++complaints_;
    }
  }

  void set_respond(bool respond) { respond_ = respond; }
  void set_diverge(bool diverge) { diverge_ = diverge; }
  int64_t batches_received() const { return batches_received_; }
  int64_t txs_received() const { return txs_received_; }
  int64_t complaints() const { return complaints_; }

 private:
  types::ReplicaId id_;
  bool respond_ = true;
  bool diverge_ = false;
  int64_t batches_received_ = 0;
  int64_t txs_received_ = 0;
  int64_t complaints_ = 0;
};

struct ClientFixture {
  explicit ClientFixture(ClientConfig config, int ack_replicas)
      : sim(1),
        net(&sim, sim::LatencyModel::Fixed(1.0), sim::CostModel{}),
        client(config) {
    std::vector<runtime::NodeId> replica_ids;
    for (int r = 0; r < ack_replicas; ++r) {
      replicas.push_back(
          std::make_unique<ScriptedReplica>(static_cast<types::ReplicaId>(r)));
      replica_ids.push_back(sim.AddActor(replicas.back().get()));
      replicas.back()->AttachNetwork(&net);
    }
    client_env = std::make_unique<runtime::SimEnv>(&client);
    sim.AddActor(client_env.get());
    client_env->AttachNetwork(&net);
    client.SetReplicas(replica_ids);
    sim.ScheduleAfter(0, [this] { client.OnStart(); });
  }

  ScriptedReplica& replica(int i = 0) { return *replicas[i]; }
  void SetRespond(bool respond) {
    for (auto& r : replicas) r->set_respond(respond);
  }

  sim::Simulator sim;
  sim::Network net;
  std::vector<std::unique_ptr<ScriptedReplica>> replicas;
  Client client;
  std::unique_ptr<runtime::SimEnv> client_env;
};

ClientConfig TestConfig(uint32_t f = 1) {
  ClientConfig config;
  config.client_id = 0;
  config.f = f;
  config.retransmit_after = Millis(300);
  config.request_timeout = Millis(700);
  config.retry_scan_period = Millis(100);
  return config;
}

TEST(ClientTest, CompletesOnMatchingQuorumAndReturnsResult) {
  ClientFixture fx(TestConfig(/*f=*/1), /*ack_replicas=*/2);
  SubmitResult seen;
  int completions = 0;
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({1, 2, 3}, [&](const SubmitResult& r) {
      seen = r;
      ++completions;
    });
  });
  fx.sim.RunUntil(Millis(100));
  ASSERT_EQ(completions, 1);
  EXPECT_EQ(seen.status, app::ExecStatus::kOk);
  EXPECT_EQ(seen.result, std::vector<uint8_t>({0xab}));
  EXPECT_GT(seen.latency, 0);
  EXPECT_EQ(fx.client.outstanding(), 0u);
  EXPECT_EQ(fx.client.stats().completed, 1);
}

TEST(ClientTest, InsufficientQuorumNeverCompletes) {
  // f = 2 needs 3 matching replies but only 2 arrive.
  ClientFixture fx(TestConfig(/*f=*/2), /*ack_replicas=*/2);
  int completions = 0;
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({}, [&](const SubmitResult&) { ++completions; });
  });
  fx.sim.RunUntil(Millis(200));
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(fx.client.outstanding(), 1u);
}

TEST(ClientTest, DivergentResultsNeverFormAQuorum) {
  // 3 replies but one reports a different execution result: only 2 match,
  // f=2 needs 3 -> the request must not complete, and the divergence is
  // surfaced in the mismatch counter.
  ClientFixture fx(TestConfig(/*f=*/2), /*ack_replicas=*/3);
  fx.replica(2).set_diverge(true);
  int completions = 0;
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({}, [&](const SubmitResult&) { ++completions; });
  });
  fx.sim.RunUntil(Millis(200));
  EXPECT_EQ(completions, 0);
  EXPECT_GE(fx.client.stats().result_mismatches, 1);
}

TEST(ClientTest, DuplicateRepliesFromOneReplicaCountOnce) {
  // The same replica acking twice must not fake a quorum: scripted replica
  // sends each reply once, but retransmission triggers a second identical
  // reply wave from the same ids.
  ClientFixture fx(TestConfig(/*f=*/2), /*ack_replicas=*/2);
  int completions = 0;
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({}, [&](const SubmitResult&) { ++completions; });
  });
  fx.sim.RunUntil(Seconds(1));  // Several retransmit rounds elapse.
  EXPECT_EQ(completions, 0);
  EXPECT_GT(fx.client.stats().duplicate_replies, 0);
}

/// A Byzantine replica that answers every proposal with `copies` replies,
/// each under a different claimed replica id — the quorum-forgery attack.
/// Optionally it forges the result bytes while quoting an honest digest.
class ForgingReplica : public sim::Actor {
 public:
  ForgingReplica(int copies, bool forge_bytes)
      : copies_(copies), forge_bytes_(forge_bytes) {}

  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    auto* batch = dynamic_cast<const types::ClientBatch*>(msg.get());
    if (batch == nullptr) return;
    for (int r = 0; r < copies_; ++r) {
      auto reply = std::make_shared<types::ClientReply>();
      reply->replica = static_cast<types::ReplicaId>(r);  // Claimed id.
      reply->n = 1;
      reply->pool = 0;
      for (const types::Transaction& tx : batch->txs) {
        types::ReplyEntry entry;
        entry.client_seq = tx.client_seq;
        app::Response honest;
        honest.result = {0xab};
        entry.result_digest = app::ResultDigest(honest);  // Honest digest…
        entry.status = static_cast<uint8_t>(honest.status);
        entry.result = forge_bytes_ ? std::vector<uint8_t>{0x66}  // …forged
                                    : honest.result;              //   bytes.
        reply->entries.push_back(std::move(entry));
      }
      Send(from, reply);
    }
  }

 private:
  int copies_;
  bool forge_bytes_;
};

TEST(ClientTest, OneReplicaCannotForgeAQuorumUnderManyIds) {
  // Replica 0 is Byzantine and sends f+1 = 2 replies under distinct
  // claimed ids; replica 1 stays silent. Votes bind to the transport
  // sender, so the request must not complete.
  ClientConfig config = TestConfig(/*f=*/1);
  sim::Simulator sim(1);
  sim::Network net(&sim, sim::LatencyModel::Fixed(1.0), sim::CostModel{});
  ForgingReplica byzantine(/*copies=*/2, /*forge_bytes=*/false);
  ScriptedReplica silent(1);
  silent.set_respond(false);
  Client client(config);
  sim.AddActor(&byzantine);
  byzantine.AttachNetwork(&net);
  sim.AddActor(&silent);
  silent.AttachNetwork(&net);
  auto env = std::make_unique<runtime::SimEnv>(&client);
  sim.AddActor(env.get());
  env->AttachNetwork(&net);
  client.SetReplicas({0, 1});
  sim.ScheduleAfter(0, [&] { client.OnStart(); });

  int completions = 0;
  sim.ScheduleAfter(Millis(1), [&] {
    client.Submit({}, [&](const SubmitResult&) { ++completions; });
  });
  sim.RunUntil(Millis(200));
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(client.outstanding(), 1u);
  // The extra same-sender copies registered as duplicates, not votes.
  EXPECT_GT(client.stats().duplicate_replies, 0);
}

TEST(ClientTest, ForgedResultBytesCannotRideAnHonestDigest) {
  // Replica 0 quotes the honest result digest but forges the result
  // bytes; replica 1 is honest. The client recomputes digests from the
  // entry's own bytes, so the forged entry lands in its own bucket and
  // the f+1 = 2 quorum never includes it.
  ClientConfig config = TestConfig(/*f=*/1);
  sim::Simulator sim(1);
  sim::Network net(&sim, sim::LatencyModel::Fixed(1.0), sim::CostModel{});
  ForgingReplica byzantine(/*copies=*/1, /*forge_bytes=*/true);
  ScriptedReplica honest(1);
  Client client(config);
  sim.AddActor(&byzantine);
  byzantine.AttachNetwork(&net);
  sim.AddActor(&honest);
  honest.AttachNetwork(&net);
  auto env = std::make_unique<runtime::SimEnv>(&client);
  sim.AddActor(env.get());
  env->AttachNetwork(&net);
  client.SetReplicas({0, 1});
  sim.ScheduleAfter(0, [&] { client.OnStart(); });

  int completions = 0;
  sim.ScheduleAfter(Millis(1), [&] {
    client.Submit({}, [&](const SubmitResult&) { ++completions; });
  });
  sim.RunUntil(Millis(200));
  EXPECT_EQ(completions, 0);  // 1 honest + 1 forged != 2 matching.
  EXPECT_GE(client.stats().result_mismatches, 1);
}

TEST(ClientTest, ExpiredSubmitsAreAbandonedWithTimedOut) {
  ClientFixture fx(TestConfig(), /*ack_replicas=*/2);
  fx.SetRespond(false);
  SubmitResult seen;
  int completions = 0;
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit(
        {},
        [&](const SubmitResult& r) {
          seen = r;
          ++completions;
        },
        /*expire_after=*/Millis(400));
  });
  fx.sim.RunUntil(Seconds(2));
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(seen.timed_out);
  EXPECT_EQ(fx.client.outstanding(), 0u);  // No eternal retransmit churn.
  EXPECT_EQ(fx.client.stats().expired, 1);
}

TEST(ClientTest, RetransmitsUnansweredProposals) {
  ClientFixture fx(TestConfig(), /*ack_replicas=*/2);
  fx.SetRespond(false);
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({}, [](const SubmitResult&) {});
  });
  fx.sim.RunUntil(Seconds(1));
  EXPECT_GT(fx.client.stats().retransmissions, 0);
  EXPECT_GT(fx.replica().batches_received(), 1);  // Original + retransmits.
}

TEST(ClientTest, EscalatesToComplaintsAfterTimeout) {
  ClientFixture fx(TestConfig(), /*ack_replicas=*/2);
  fx.SetRespond(false);
  fx.sim.ScheduleAfter(Millis(1), [&] {
    fx.client.Submit({}, [](const SubmitResult&) {});
  });
  fx.sim.RunUntil(Seconds(2));
  EXPECT_GT(fx.client.stats().complaints_sent, 0);
  EXPECT_GT(fx.replica().complaints(), 0);
}

// ----------------------------------------------------- threaded round-trip

/// The acceptance check: a kv Put round-trips to a verified Get through
/// the real reply path on the threaded backend.
TEST(ThreadedClientTest, KvPutGetRoundTripsThroughRealReplies) {
  constexpr uint32_t kN = 4;
  core::PrestigeConfig config;
  config.n = kN;
  config.batch_size = 16;
  config.batch_wait = Millis(1);
  config.timeout_min = Millis(400);
  config.timeout_max = Millis(600);

  runtime::ThreadedRuntime runtime(/*seed=*/99);
  crypto::KeyStore keys(99 ^ 0xc0ffee);
  std::vector<std::unique_ptr<core::PrestigeReplica>> replicas;
  std::vector<runtime::NodeId> replica_ids;
  for (uint32_t i = 0; i < kN; ++i) {
    replicas.push_back(
        std::make_unique<core::PrestigeReplica>(config, i, &keys));
    replicas.back()->SetService(std::make_unique<app::KvService>(4096));
    replica_ids.push_back(runtime.AddNode(replicas.back().get()));
  }

  ClientConfig client_config;
  client_config.client_id = 0;
  client_config.f = types::MaxFaulty(kN);
  Client client(client_config);
  const runtime::NodeId client_id = runtime.AddNode(&client);
  client.SetReplicas(replica_ids);
  for (auto& replica : replicas) {
    replica->SetTopology(replica_ids, {client_id});
  }

  runtime.Start();

  // Blocking convenience calls from the test thread (not an event loop).
  SubmitResult put = client.Call(app::kv::EncodePut(1234, 5678),
                                 /*wait_limit=*/Seconds(20));
  ASSERT_FALSE(put.timed_out) << "Put did not complete on the threaded path";
  EXPECT_EQ(put.status, app::ExecStatus::kOk);
  EXPECT_EQ(app::kv::DecodeValue(put.result), 0u);  // No previous value.
  EXPECT_GT(put.height, 0);

  SubmitResult get = client.Call(app::kv::EncodeGet(1234),
                                 /*wait_limit=*/Seconds(20));
  ASSERT_FALSE(get.timed_out) << "Get did not complete on the threaded path";
  EXPECT_EQ(get.status, app::ExecStatus::kOk);
  EXPECT_EQ(app::kv::DecodeValue(get.result), 5678u)
      << "Get must observe the committed Put through the real reply path";

  runtime.Stop();

  // After Stop(), replica state is safely inspectable: the Put executed
  // exactly once everywhere it committed.
  for (auto& replica : replicas) {
    const auto& stats = replica->delivery().stats();
    EXPECT_EQ(stats.executed, replica->service().applied_count());
  }
}

/// One client::Client implementation (as ClientPool) drives the baselines
/// on the threaded backend too.
template <typename Replica, typename Config>
void RunThreadedBaseline(Config config) {
  config.n = 4;
  harness::WorkloadOptions workload;
  workload.num_pools = 2;
  workload.clients_per_pool = 20;
  workload.seed = 3;
  harness::Cluster<Replica, Config, harness::ThreadedBackend> cluster(
      config, workload);
  cluster.Start();
  cluster.RunFor(Millis(800));
  cluster.Stop();
  EXPECT_GT(cluster.ClientCommitted(), 0);
  EXPECT_EQ(cluster.ResultMismatches(), 0);
  const harness::SafetyReport report = harness::CheckSafety(cluster);
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(ThreadedClientTest, DrivesHotStuffOnThreadedRuntime) {
  baselines::hotstuff::HotStuffConfig config;
  config.batch_size = 50;
  config.batch_wait = Millis(1);
  RunThreadedBaseline<baselines::hotstuff::HotStuffReplica>(config);
}

TEST(ThreadedClientTest, DrivesSbftOnThreadedRuntime) {
  baselines::sbft::SbftConfig config;
  config.batch_size = 50;
  config.batch_wait = Millis(1);
  RunThreadedBaseline<baselines::sbft::SbftReplica>(config);
}

}  // namespace
}  // namespace client
}  // namespace prestige
