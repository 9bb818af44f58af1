// Tests of the multi-process deployment path: the node status report's
// JSON round trip, the safety sweep over reported ledgers, and a short
// run of real prestige_node processes over loopback UDP.

#include "harness/process_cluster.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <vector>

namespace prestige {
namespace harness {
namespace {

crypto::Sha256Digest DigestOf(uint8_t seed) {
  crypto::Sha256Digest d{};
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<uint8_t>(seed * 31 + i);
  }
  return d;
}

/// A report with every field distinct and nonzero.
NodeReport FullReport() {
  NodeReport r;
  r.id = 7;
  r.is_replica = true;
  r.running = true;
  r.committed_txs = int64_t{1} << 40;
  r.committed_blocks = 11;
  r.view_changes = 12;
  r.elections_won = 13;
  r.ledger.chain = {{1, DigestOf(1), 14}, {2, DigestOf(2), 15}};
  r.ledger.state_digest = 0xfedcba9876543210ull;
  r.ledger.executed = 16;
  r.ledger.duplicates = 17;
  r.completed = 18;
  r.replies = 19;
  r.result_mismatches = 20;
  r.retransmissions = 21;
  r.complaints = 22;
  r.expired = 23;
  r.p50_ms = 0.1;
  r.p99_ms = 9.875;
  r.mean_ms = 1.0 / 3.0;
  net::FrameCounters& c = r.net;
  c.frames_sent = 101;
  c.bytes_sent = 102;
  c.send_errors = 103;
  c.frames_received = 104;
  c.bytes_received = 105;
  c.header_drops = 106;
  c.wrong_dst_drops = 107;
  c.length_drops = 108;
  c.checksum_drops = 109;
  c.frag_drops = 110;
  c.decode_drops = 111;
  c.messages_assembled = 112;
  c.seq_gaps = 113;
  c.seq_out_of_order = 114;
  c.unserializable_drops = 115;
  return r;
}

TEST(NodeStatusTest, EveryFieldSurvivesWriteThenParse) {
  const NodeReport in = FullReport();
  NodeReport out;
  ASSERT_TRUE(ParseNodeStatus(NodeStatusJson(in), &out));
  EXPECT_TRUE(out.responded);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.is_replica, in.is_replica);
  EXPECT_EQ(out.running, in.running);
  EXPECT_EQ(out.committed_txs, in.committed_txs);
  EXPECT_EQ(out.committed_blocks, in.committed_blocks);
  EXPECT_EQ(out.view_changes, in.view_changes);
  EXPECT_EQ(out.elections_won, in.elections_won);
  ASSERT_EQ(out.ledger.chain.size(), in.ledger.chain.size());
  for (size_t k = 0; k < in.ledger.chain.size(); ++k) {
    EXPECT_EQ(out.ledger.chain[k].n, in.ledger.chain[k].n);
    EXPECT_EQ(out.ledger.chain[k].digest, in.ledger.chain[k].digest);
    EXPECT_EQ(out.ledger.chain[k].txs, in.ledger.chain[k].txs);
  }
  EXPECT_EQ(out.ledger.state_digest, in.ledger.state_digest);
  EXPECT_EQ(out.ledger.executed, in.ledger.executed);
  EXPECT_EQ(out.ledger.duplicates, in.ledger.duplicates);
  EXPECT_EQ(out.completed, in.completed);
  EXPECT_EQ(out.replies, in.replies);
  EXPECT_EQ(out.result_mismatches, in.result_mismatches);
  EXPECT_EQ(out.retransmissions, in.retransmissions);
  EXPECT_EQ(out.complaints, in.complaints);
  EXPECT_EQ(out.expired, in.expired);
  EXPECT_EQ(out.p50_ms, in.p50_ms);
  EXPECT_EQ(out.p99_ms, in.p99_ms);
  EXPECT_EQ(out.mean_ms, in.mean_ms);
  const net::FrameCounters& a = out.net;
  const net::FrameCounters& b = in.net;
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.send_errors, b.send_errors);
  EXPECT_EQ(a.frames_received, b.frames_received);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.header_drops, b.header_drops);
  EXPECT_EQ(a.wrong_dst_drops, b.wrong_dst_drops);
  EXPECT_EQ(a.length_drops, b.length_drops);
  EXPECT_EQ(a.checksum_drops, b.checksum_drops);
  EXPECT_EQ(a.frag_drops, b.frag_drops);
  EXPECT_EQ(a.decode_drops, b.decode_drops);
  EXPECT_EQ(a.messages_assembled, b.messages_assembled);
  EXPECT_EQ(a.seq_gaps, b.seq_gaps);
  EXPECT_EQ(a.seq_out_of_order, b.seq_out_of_order);
  EXPECT_EQ(a.unserializable_drops, b.unserializable_drops);
}

TEST(NodeStatusTest, RejectsMalformedDocuments) {
  const std::string good = NodeStatusJson(FullReport());
  const std::vector<std::string> bad = {
      "",
      "err unknown command 'status'",
      good.substr(0, good.size() - 1),                      // Truncated.
      "{\"id\":1,\"kind\":\"replica\"}",                    // Unknown key.
      "{\"ledger\":{\"chain\":[{\"digest\":\"abcd\"}]}}",   // Short digest.
      "{\"id\":-1}",                                        // Out of range.
      good + "x",                                           // Trailing junk.
  };
  for (const std::string& json : bad) {
    NodeReport out;
    out.id = 99;
    EXPECT_FALSE(ParseNodeStatus(json, &out)) << json;
    EXPECT_FALSE(out.responded) << json;
    EXPECT_EQ(out.id, 99u) << json;
  }
}

TEST(NodeStatusTest, FrameCountersJsonCarriesAllFifteenCounters) {
  const std::string json = FrameCountersJson(FullReport().net);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (int value = 101; value <= 115; ++value) {
    EXPECT_NE(json.find(":" + std::to_string(value)), std::string::npos)
        << value;
  }
}

// ------------------------------------------------------------------ sweep

/// A finished 4-replica + 1-pool fleet whose chains all agree.
std::vector<NodeReport> AgreeingFleet() {
  std::vector<NodeReport> fleet(5);
  for (uint32_t i = 0; i < 5; ++i) {
    NodeReport& node = fleet[i];
    node.id = i;
    node.responded = true;
    node.is_replica = i < 4;
    if (!node.is_replica) continue;
    node.ledger.chain = {
        {1, DigestOf(1), 10}, {2, DigestOf(2), 20}, {3, DigestOf(3), 30}};
    node.ledger.state_digest = 0xabc;
    node.ledger.executed = 55;
    node.ledger.duplicates = 5;
  }
  return fleet;
}

TEST(NodeSweepTest, AgreeingFleetIsSafe) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  // A replica one block behind, with the execution state of its prefix.
  fleet[3].ledger.chain.pop_back();
  fleet[3].ledger.state_digest = 0x123;
  fleet[3].ledger.executed = 28;
  fleet[3].ledger.duplicates = 2;
  const SafetyReport report = SweepNodeReports(fleet);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_EQ(report.min_height, 2);
  EXPECT_EQ(report.max_height, 3);
  EXPECT_EQ(report.executed_total, 55 * 3 + 28);
  EXPECT_EQ(report.duplicates_total, 5 * 3 + 2);
}

std::string ViolationOf(const std::vector<NodeReport>& fleet) {
  const SafetyReport report = SweepNodeReports(fleet);
  EXPECT_FALSE(report.ok);
  return report.violation;
}

TEST(NodeSweepTest, FlagsConflictingDigests) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  fleet[2].ledger.chain[1].digest = DigestOf(9);
  EXPECT_EQ(ViolationOf(fleet),
            "conflicting txBlocks at n=2: replica 0 has 3e3f4041…, "
            "replica 2 has 1718191a…");
}

TEST(NodeSweepTest, FlagsDigestsThatDifferOnlyPastTheFirstEightBytes) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  fleet[1].ledger.chain[0].digest[31] ^= 1;
  EXPECT_NE(ViolationOf(fleet).find("conflicting txBlocks at n=1"),
            std::string::npos);
}

TEST(NodeSweepTest, FlagsDivergentStateDigests) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  fleet[3].ledger.state_digest = 0xabd;
  EXPECT_EQ(ViolationOf(fleet),
            "divergent execution at height 3: replica 0 "
            "(digest=0000000000000abc, executed=55) vs replica 3 "
            "(digest=0000000000000abd, executed=55)");
}

TEST(NodeSweepTest, FlagsConservationMismatch) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  for (NodeReport& node : fleet) node.ledger.duplicates = 6;
  fleet[4].ledger.duplicates = 0;  // The pool carries no ledger.
  EXPECT_EQ(ViolationOf(fleet),
            "execution count mismatch on replica 0: chain carries 60 txs "
            "but executed=55 + duplicates=6");
}

TEST(NodeSweepTest, FlagsMissingReport) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  fleet[1].responded = false;
  EXPECT_EQ(ViolationOf(fleet), "node 1 reported no status");
}

TEST(NodeSweepTest, FlagsStillRunningReport) {
  // What prestige_node answers to `status` when its `stop` failed: the
  // live subset, which must not pass as an honest chain at height 0.
  std::vector<NodeReport> fleet = AgreeingFleet();
  NodeReport live;
  live.id = 2;
  live.running = true;
  ASSERT_TRUE(ParseNodeStatus(NodeStatusJson(live), &fleet[2]));
  EXPECT_EQ(ViolationOf(fleet), "node 2 did not stop");

  fleet = AgreeingFleet();
  fleet[4].running = true;  // Pools must stop too.
  EXPECT_EQ(ViolationOf(fleet), "node 4 did not stop");
}

TEST(NodeSweepTest, FlagsFleetWithoutReplicas) {
  std::vector<NodeReport> fleet = AgreeingFleet();
  fleet.erase(fleet.begin(), fleet.begin() + 4);
  EXPECT_EQ(ViolationOf(fleet), "no replica reports to sweep");
}

// ------------------------------------------------------------ real fleet

TEST(ProcessClusterTest, FourReplicasAndOnePoolCommitSafely) {
  std::string work_dir = ::testing::TempDir() + "process_cluster_XXXXXX";
  ASSERT_NE(::mkdtemp(work_dir.data()), nullptr);
  ProcessClusterOptions options;
  options.node_binary = PRESTIGE_NODE_BINARY;
  options.work_dir = work_dir;
  options.config.n = 4;
  options.config.pools = 1;
  options.config.clients_per_pool = 50;
  options.config.duration_us = 2000000;
  const ProcessClusterResult result = RunProcessCluster(options);
  std::filesystem::remove_all(work_dir);

  ASSERT_TRUE(result.ran) << result.error;
  EXPECT_TRUE(result.safety.ok) << result.safety.violation;
  EXPECT_GT(result.committed, 0);
  EXPECT_GT(result.safety.max_height, 0);
  ASSERT_EQ(result.nodes.size(), 5u);
  EXPECT_GT(result.net.messages_assembled, 0u);
}

}  // namespace
}  // namespace harness
}  // namespace prestige
