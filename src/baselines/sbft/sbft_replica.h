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

#include "core/commit_delivery.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/request_pool.h"
#include "crypto/keys.h"
#include "crypto/quorum_cert.h"
#include "ledger/block_store.h"
#include "runtime/env.h"
#include "types/adversary.h"
#include "types/client_messages.h"
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
/// changes use the passive schedule like HotStuff).
class SbftReplica : public runtime::Node {
 public:
  SbftReplica(SbftConfig config, types::ReplicaId id,
              const crypto::KeyStore* keys,
              types::FaultSpec fault = types::FaultSpec::Honest());

  void SetTopology(std::vector<runtime::NodeId> replicas,
                   std::vector<runtime::NodeId> clients);
  void SetService(std::unique_ptr<app::Service> service);

  /// Installs an active-adversary policy (harness wiring only; nullptr =
  /// honest, the default). See types/adversary.h.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    adversary_ = adversary;
  }

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
  const ledger::BlockStore& store() const { return store_; }
  const app::Service& service() const { return delivery_.service(); }
  const core::CommitPipeline& delivery() const { return delivery_; }
  const core::ReplicaMetrics& metrics() const { return metrics_; }
  const types::FaultSpec& fault() const { return fault_; }

 private:
  enum TimerKind : uint64_t { kViewTimer = 1, kBatchTimer = 2 };
  // Shared 48-bit tag packing (util/timer_tag.h).
  static uint64_t Tag(TimerKind kind, uint64_t payload = 0) {
    return util::PackTimerTag(kind, payload);
  }
  static TimerKind TagKind(uint64_t tag) {
    return util::TimerTagKind<TimerKind>(tag);
  }

  std::vector<runtime::NodeId> PeerActors() const;
  void MaybePropose(bool allow_partial);
  void ExecuteBlock(ledger::TxBlock block);
  void OnPrePrepare(runtime::NodeId from, const SbPrePrepareMsg& msg,
                    const SbPrePrepareMsg::Verified* pre = nullptr);
  void OnProof(runtime::NodeId from, const SbProofMsg& msg,
               const SbProofMsg::Verified* pre = nullptr);
  /// True once a kCrash fault has activated; epilogues re-check this
  /// because the fault may trip between prologue and epilogue.
  bool CrashedNow() const;

  // Active-adversary queries (all false when no policy is installed).
  bool AdversaryWedged() const {
    return adversary_ != nullptr && adversary_->WedgeProposals(id_, Now());
  }
  bool AdversaryWithholds(types::ReplicaId target) const {
    return adversary_ != nullptr &&
           adversary_->WithholdVote(id_, target, Now());
  }
  bool AdversaryTampers() const {
    return adversary_ != nullptr && adversary_->TamperExecution(id_, Now());
  }
  types::ReplicaId ReplicaIndexOf(runtime::NodeId node) const {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i] == node) return static_cast<types::ReplicaId>(i);
    }
    return id_;
  }

  SbftConfig config_;
  types::ReplicaId id_;
  const crypto::KeyStore* keys_;
  crypto::Signer signer_;
  types::FaultSpec fault_;
  /// Active-adversary interposer (nullptr = honest; harness-owned).
  const types::AdversaryPolicy* adversary_ = nullptr;

  std::vector<runtime::NodeId> replicas_;
  std::vector<runtime::NodeId> clients_;

  ledger::BlockStore store_;
  core::CommitPipeline delivery_;

  types::View view_ = 1;
  runtime::TimerId view_timer_ = 0;
  runtime::TimerId batch_timer_ = 0;

  core::RequestPool pool_{delivery_};

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

  core::ReplicaMetrics metrics_;
};

}  // namespace sbft
}  // namespace baselines
}  // namespace prestige

#endif  // PRESTIGE_BASELINES_SBFT_REPLICA_H_
