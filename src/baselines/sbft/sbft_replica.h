// SBFT-like baseline: linear collector-based BFT (Gueta et al., DSN'19).
//
// Round structure (fast path): pre-prepare broadcast → sign-shares to the
// collector → full-commit-proof broadcast → state-shares → execute-proof,
// then client notification. Message complexity is linear like PrestigeBFT
// and HotStuff, but the concord-style implementation verifies every client
// request signature individually with heavyweight threshold-RSA crypto,
// which dominates its throughput (the paper measures sb at ~4.9k TPS peak,
// §6.1). We model that cost with a per-transaction signature-verification
// weight on the pre-prepare message (see DESIGN.md §4).

#ifndef PRESTIGE_BASELINES_SBFT_REPLICA_H_
#define PRESTIGE_BASELINES_SBFT_REPLICA_H_

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
namespace sbft {

/// Pre-prepare: the batch body; every replica verifies each request's
/// client signature individually (RSA-style weight).
struct SbPrePrepareMsg : public runtime::NetMessage {
  types::View v = 0;
  ledger::TxBlock block;
  crypto::Signature sig;
  /// Relative cost of one threshold-RSA client-signature verification vs
  /// the baseline HMAC verify in the cost model.
  int crypto_weight = 8;

  /// Stateless prologue result (never serialized): the block hash, the
  /// stage-0 digest derived from it, and the leader signature over that
  /// digest — the modeled threshold-RSA hotspot, moved off the loop thread
  /// by the threaded backend's worker pool.
  struct Verified {
    crypto::Sha256Digest block_digest{};
    crypto::Sha256Digest stage_digest{};
    bool sig_ok = false;
  };

  size_t WireSize() const override {
    size_t payload = 0;
    for (const auto& tx : block.txs()) payload += tx.WireBytes();
    return core::kHeaderBytes + payload + core::kSigBytes;
  }
  int NumSigVerifies() const override {
    return 1 + crypto_weight * static_cast<int>(block.BatchSize());
  }
  const char* Name() const override { return "SbPrePrepare"; }
};

/// Threshold signature share sent to the collector.
struct SbShareMsg : public runtime::NetMessage {
  enum class Stage : uint8_t { kCommit = 0, kExecute = 1 } stage = Stage::kCommit;
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Signature partial;

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 4; }  // Share verification.
  const char* Name() const override { return "SbShare"; }
};

/// Collector broadcast carrying a combined proof.
struct SbProofMsg : public runtime::NetMessage {
  enum class Stage : uint8_t { kCommit = 0, kExecute = 1 } stage = Stage::kCommit;
  types::View v = 0;
  types::SeqNum n = 0;
  crypto::Sha256Digest block_digest{};
  crypto::QuorumCert proof;
  crypto::Signature sig;

  /// Stateless prologue result (never serialized): the combined proof
  /// checked over SbStageDigest(stage, v, n, block_digest), all of which
  /// come from message fields plus the configured quorum.
  struct Verified {
    bool proof_ok = false;
  };

  size_t WireSize() const override {
    return core::kHeaderBytes + core::kQcBytes + core::kSigBytes;
  }
  int NumSigVerifies() const override { return 2; }
  const char* Name() const override { return "SbProof"; }
};

/// Cluster parameters.
struct SbftConfig {
  uint32_t n = 4;
  size_t batch_size = 800;
  util::DurationMicros batch_wait = util::Millis(3);
  util::DurationMicros view_timeout = util::Seconds(1);
  int crypto_weight = 8;  ///< Threshold-RSA verify weight per request.

  uint32_t f() const { return types::MaxFaulty(n); }
  uint32_t quorum() const { return types::QuorumSize(n); }
};

/// Digest signed in SBFT stage `stage` for block (v, n, digest).
crypto::Sha256Digest SbStageDigest(int stage, types::View v, types::SeqNum n,
                                   const crypto::Sha256Digest& block_digest);

/// One SBFT server (leader doubles as the collector, fast path only; view
/// changes use the passive schedule like HotStuff). It models no quiet or
/// equivocating faults: it sends and signs through the ungated paths.
class SbftReplica : public core::ReplicaShell {
 public:
  SbftReplica(SbftConfig config, types::ReplicaId id,
              const crypto::KeyStore* keys,
              types::FaultSpec fault = types::FaultSpec::Honest());

  void OnStart() override;
  void OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) override;
  /// Stateless prologues for the threaded backend's worker pool:
  /// pre-prepare hashing + leader signature (the modeled RSA hotspot) and
  /// proof verification. Shares check against live builder state and are
  /// declined. See src/core/pre_verify.cc for the splitting discipline.
  runtime::Node::VerdictFn PreVerify(runtime::NodeId from,
                                     const runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  types::View view() const { return view_; }
  types::ReplicaId current_leader() const {
    return static_cast<types::ReplicaId>(view_ % config_.n);
  }
  bool IsLeader() const { return current_leader() == id_; }

 private:
  enum TimerKind : uint64_t { kViewTimer = 1, kBatchTimer = 2 };

  void MaybePropose(bool allow_partial);
  void ExecuteBlock(ledger::TxBlock block);
  void OnPrePrepare(runtime::NodeId from, const SbPrePrepareMsg& msg,
                    const SbPrePrepareMsg::Verified* pre = nullptr);
  void OnProof(runtime::NodeId from, const SbProofMsg& msg,
               const SbProofMsg::Verified* pre = nullptr);
  SbftConfig config_;

  types::View view_ = 1;
  runtime::TimerId view_timer_ = 0;
  runtime::TimerId batch_timer_ = 0;

  bool proposal_active_ = false;
  ledger::TxBlock current_block_;
  int collect_stage_ = 0;
  crypto::QuorumCertBuilder share_builder_;

  std::map<types::SeqNum, ledger::TxBlock> pending_blocks_;
  std::map<types::SeqNum, ledger::TxBlock> buffered_commits_;
  /// Cross-view share binding: once this replica sends a share for a block
  /// body at sequence n, it never shares for a *different* body at n until
  /// n executes. Any execute-proof needs 2f+1 shares, so at most one body
  /// can ever be certified per sequence — without this, view drift under
  /// message loss lets two leaders certify conflicting blocks at the same
  /// height (found by the flaky-links scenario).
  std::map<types::SeqNum, crypto::Sha256Digest> share_bound_;
};

}  // namespace sbft
}  // namespace baselines
}  // namespace prestige

#endif  // PRESTIGE_BASELINES_SBFT_REPLICA_H_
