// Basic (non-chained) HotStuff baseline with a passive view-change protocol.
//
// The paper's primary comparator (§6): three quorum-certificate phases
// (prepare, pre-commit, commit) plus a decide broadcast — the extra phase
// relative to PrestigeBFT is precisely the sync-up cost HotStuff pays for
// its passive pacemaker (§1, §4.3 of the paper). Leadership follows the
// predefined schedule L = V mod n; view changes occur on leader timeout
// (with exponential back-off) or the timing policy (r10/r30), and cannot
// skip an already-crashed scheduled leader.
//
// Shares the simulation substrate, client messages, ledger, and fault
// profiles with PrestigeBFT, so harness experiments drive both identically.

#ifndef PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_
#define PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_

#include <map>
#include <memory>
#include <vector>

#include "core/messages.h"
#include "core/replica_shell.h"
#include "crypto/keys.h"
#include "crypto/quorum_cert.h"
#include "types/ids.h"
#include "types/fault_spec.h"

namespace prestige {
namespace baselines {
namespace hotstuff {

/// HotStuff protocol phases.
enum class HsPhase : uint8_t {
  kPrepare = 0,
  kPreCommit = 1,
  kCommit = 2,
  kDecide = 3,
};

const char* HsPhaseName(HsPhase phase);

/// Digest signed by votes of `phase` for block (v, n, digest).
crypto::Sha256Digest HsVoteDigest(HsPhase phase, types::View v,
                                  types::SeqNum n,
                                  const crypto::Sha256Digest& block_digest);

/// Leader proposal carrying the batch body (the prepare broadcast).
struct HsProposalMsg : public runtime::NetMessage {
  types::View v = 0;
  ledger::TxBlock block;
  crypto::Signature sig;

  /// Stateless prologue result (never serialized): the block hash, the
  /// kPrepare vote digest derived from it, and the leader signature over
  /// that digest. The handler still checks signer-vs-schedule and its
  /// vote-binding rule on the loop thread.
  struct Verified {
    crypto::Sha256Digest block_digest{};
    crypto::Sha256Digest vote_digest{};
    bool sig_ok = false;
  };

  size_t WireSize() const override {
    size_t payload = 0;
    for (const auto& tx : block.txs()) payload += tx.WireBytes();
    return core::kHeaderBytes + payload + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsProposal"; }
};

/// Follower vote: partial signature for one phase.
struct HsVoteMsg : public runtime::NetMessage {
  types::View v = 0;
  HsPhase phase = HsPhase::kPrepare;
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::Signature partial;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsVote"; }
};

/// Leader phase broadcast carrying the QC of the previous phase.
struct HsPhaseMsg : public runtime::NetMessage {
  types::View v = 0;
  HsPhase phase = HsPhase::kPreCommit;  // kPreCommit / kCommit / kDecide.
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::QuorumCert justify;
  crypto::Signature sig;

  /// Stateless prologue result (never serialized): the justify QC checked
  /// over the previous phase's vote digest, which is derived purely from
  /// message fields (phase, v, n, block_digest) plus the configured quorum.
  struct Verified {
    bool justify_ok = false;
  };

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  // libhotstuff verifies each of the quorum's secp256k1 signatures
  // individually when checking a QC (no threshold aggregation), which is
  // the dominant per-phase cost and the known scaling bottleneck.
  int NumSigVerifies() const override {
    return 1 + static_cast<int>(justify.partials.size());
  }
  const char* Name() const override { return "HsPhase"; }
};

/// Pacemaker message sent to the next scheduled leader on view advance.
struct HsNewViewMsg : public runtime::NetMessage {
  types::View v = 0;           ///< The view being entered.
  types::SeqNum latest_n = 0;  ///< Sender's chain height.
  crypto::Signature sig;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 1; }
  const char* Name() const override { return "HsNewView"; }
};

/// Cluster parameters (mirrors the paper's hs configuration).
struct HotStuffConfig {
  uint32_t n = 4;
  size_t batch_size = 1000;
  util::DurationMicros batch_wait = util::Millis(3);
  /// Initial view timeout (paper: 1 s), doubled per consecutive failure.
  util::DurationMicros view_timeout = util::Seconds(1);
  util::DurationMicros max_view_timeout = util::Seconds(8);
  /// Timing policy: rotate every r (0 = only on failure).
  util::DurationMicros rotation_period = 0;

  uint32_t f() const { return types::MaxFaulty(n); }
  uint32_t quorum() const { return types::QuorumSize(n); }
};

/// One HotStuff server.
class HotStuffReplica : public core::ReplicaShell {
 public:
  HotStuffReplica(HotStuffConfig config, types::ReplicaId id,
                  const crypto::KeyStore* keys,
                  types::FaultSpec fault = types::FaultSpec::Honest());

  void OnStart() override;
  void OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) override;
  /// Stateless prologues for the threaded backend's worker pool: proposal
  /// hashing + leader signature, and phase-QC verification (the dominant
  /// cost — see HsPhaseMsg::NumSigVerifies). Votes check against live
  /// builder state and are declined. See src/core/pre_verify.cc for the
  /// splitting discipline.
  runtime::Node::VerdictFn PreVerify(runtime::NodeId from,
                                     const runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  types::View view() const { return view_; }
  types::ReplicaId current_leader() const {
    return static_cast<types::ReplicaId>(view_ % config_.n);
  }
  bool IsLeader() const { return current_leader() == id_; }

 private:
  enum TimerKind : uint64_t {
    kViewTimer = 1,
    kBatchTimer = 2,
    kRotationTimer = 3,
    kNoiseTimer = 4,
  };
  void EnterView(types::View v, bool failed);
  void AdvanceView(bool failed);
  void MaybePropose(bool allow_partial);
  void OnProposal(runtime::NodeId from, const HsProposalMsg& msg,
                  const HsProposalMsg::Verified* pre = nullptr);
  void OnVote(runtime::NodeId from, const HsVoteMsg& msg);
  void OnPhase(runtime::NodeId from, const HsPhaseMsg& msg,
               const HsPhaseMsg::Verified* pre = nullptr);
  void OnNewView(runtime::NodeId from, const HsNewViewMsg& msg);
  void DecideBlock(ledger::TxBlock block);
  void ArmViewTimer();

  HotStuffConfig config_;

  types::View view_ = 1;
  int consecutive_failures_ = 0;
  runtime::TimerId view_timer_ = 0;
  runtime::TimerId rotation_timer_ = 0;
  runtime::TimerId batch_timer_ = 0;

  // Leader state: the single in-flight proposal (basic HotStuff has no
  // pipelining — one decision per view sequence of phases).
  bool proposal_active_ = false;
  ledger::TxBlock current_block_;
  HsPhase collect_phase_ = HsPhase::kPrepare;
  crypto::QuorumCertBuilder vote_builder_;
  crypto::QuorumCertBuilder newview_builder_;
  bool have_newview_quorum_ = false;

  // Follower state for the in-flight proposal.
  std::map<types::SeqNum, ledger::TxBlock> pending_blocks_;
  std::map<types::SeqNum, ledger::TxBlock> buffered_commits_;
  /// Cross-view vote binding (the role basic HotStuff's lock rule plays):
  /// once this replica votes — in any phase — for a block body at sequence
  /// n, it refuses votes for a different body at n until n decides. Every
  /// commitQC needs 2f+1 votes, so at most one body is ever certifiable per
  /// sequence even when views drift under message loss (found by the
  /// flaky-links scenario).
  std::map<types::SeqNum, crypto::Sha256Digest> vote_bound_;
};

}  // namespace hotstuff
}  // namespace baselines
}  // namespace prestige

#endif  // PRESTIGE_BASELINES_HOTSTUFF_REPLICA_H_
