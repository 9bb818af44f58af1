// ReplicaShell: what every replica is apart from its protocol.
//
// PrestigeReplica and the HotStuff and SBFT baselines all derive from it.
// The shell owns the replica's identity (id, keys, signer), its fault
// profile and adversary hook, the actor ids of its peers and client pools,
// and the commit side: block store, commit pipeline, request pool and
// metrics. It writes once the helpers all three need:
//
//  * wiring (SetTopology / SetService / SetAdversary) and the read-only
//    accessors the harness and tests use;
//  * the crash gate, the adversary queries, and the F2/F3 gates
//    (QuietActive, EquivocateActive, GuardedSend, SignMaybeCorrupt);
//  * the commit step, DeliverBlock: execute a decided block, reply to its
//    clients, count it, and keep the request pool bounded;
//  * re-serving a cached reply to a complaint about an executed request;
//  * the equivocating leader's per-group proposal fan-out.
//
// Everything else is protocol logic and stays in the protocol: phases,
// QCs, views, the per-sequence binding maps, PreVerify, and PrestigeBFT's
// complaint relay and inspection. The shell never asks which protocol it
// serves. Where a gate depends on protocol state — an F4 attacker turns
// quiet or equivocates only while it acts as leader — the protocol passes
// its own "acting as leader" bit in.

#ifndef PRESTIGE_CORE_REPLICA_SHELL_H_
#define PRESTIGE_CORE_REPLICA_SHELL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/commit_delivery.h"
#include "core/metrics.h"
#include "core/request_pool.h"
#include "crypto/keys.h"
#include "ledger/block_store.h"
#include "runtime/env.h"
#include "types/adversary.h"
#include "types/client_messages.h"
#include "types/fault_spec.h"
#include "types/ids.h"
#include "util/timer_tag.h"

namespace prestige {
namespace core {

class ReplicaShell : public runtime::Node {
 public:
  /// Wires actor ids: `replicas[i]` is replica i's actor id; `clients` are
  /// the client-pool actors to reply to on commit.
  void SetTopology(std::vector<runtime::NodeId> replicas,
                   std::vector<runtime::NodeId> clients);

  /// Replaces the application service (defaults to app::NullService).
  void SetService(std::unique_ptr<app::Service> service);

  /// Installs an active-adversary policy (harness wiring only; nullptr =
  /// honest, the default). The protocol consults it at its propose /
  /// reply / vote sites, the commit step at execution; see
  /// types/adversary.h.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    adversary_ = adversary;
  }

  types::ReplicaId replica_id() const { return id_; }
  const ledger::BlockStore& store() const { return store_; }
  const app::Service& service() const { return delivery_.service(); }
  /// The commit-delivery pipeline (service + client session table).
  const CommitPipeline& delivery() const { return delivery_; }
  const ReplicaMetrics& metrics() const { return metrics_; }
  const types::FaultSpec& fault() const { return fault_; }
  /// Requests buffered for proposal, decided ones not yet pruned included.
  size_t pending_pool_size() const { return pool_.size(); }

 protected:
  /// `batch_size` is the protocol's proposal batch; it sets the request
  /// pool's prune bound.
  ReplicaShell(types::ReplicaId id, const crypto::KeyStore* keys,
               types::FaultSpec fault, size_t batch_size);

  // Timer tags: 16-bit kind, 48-bit payload (util/timer_tag.h). Each
  // protocol keeps its own TimerKind enum.
  template <typename Kind>
  static uint64_t Tag(Kind kind, uint64_t payload = 0) {
    return util::PackTimerTag(kind, payload);
  }
  template <typename Kind>
  static Kind TagKind(uint64_t tag) {
    return util::TimerTagKind<Kind>(tag);
  }
  static uint64_t TagPayload(uint64_t tag) {
    return util::TimerTagPayload(tag);
  }

  runtime::NodeId ActorOf(types::ReplicaId id) const { return replicas_[id]; }
  std::vector<runtime::NodeId> PeerActors() const;  ///< All replicas but self.
  /// Replica index of actor `node`, or id_ when it is not a replica.
  types::ReplicaId ReplicaIndexOf(runtime::NodeId node) const;

  /// True once a kCrash fault has activated: OnMessage/OnTimer drop
  /// everything, and PreVerify epilogues re-check it at delivery time (the
  /// fault may activate between prologue and epilogue).
  bool CrashedNow() const;

  /// True once `tx` executed here (see CommitPipeline::Executed).
  bool Decided(const types::Transaction& tx) const {
    return delivery_.Executed(tx.pool, tx.client_seq);
  }

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

  // Fault gates. `leading` is the protocol's "acting as leader" bit: an F4
  // attacker is quiet (F2) or equivocates (F3) only while it leads.
  bool QuietActive(bool leading) const;
  bool EquivocateActive(bool leading) const;
  /// Send gated by fault behaviour (quiet servers drop all output).
  void GuardedSend(bool leading, runtime::NodeId to, runtime::MessagePtr msg);
  void GuardedSend(bool leading, const std::vector<runtime::NodeId>& to,
                   runtime::MessagePtr msg);
  /// Signs `digest`, corrupting the MAC when equivocating (F3).
  crypto::Signature SignMaybeCorrupt(bool leading,
                                     const crypto::Sha256Digest& digest);

  /// Sends a leader's proposal to every peer, unless `quiet`. Under an
  /// installed adversary each peer gets the variant the policy assigns it
  /// (types::AdversaryPolicy::ProposalVariant): variant 0 is `canonical`,
  /// the body the leader's own vote covers; `forge(v)` builds each other
  /// variant once, a conflicting but properly signed body.
  template <typename Msg, typename Forge>
  void BroadcastProposal(const std::shared_ptr<Msg>& canonical, bool quiet,
                         Forge forge) {
    if (adversary_ == nullptr) {
      if (!quiet) Send(PeerActors(), canonical);
      return;
    }
    std::map<uint32_t, std::shared_ptr<Msg>> variants;
    variants.emplace(0u, canonical);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      const auto dest = static_cast<types::ReplicaId>(i);
      if (dest == id_) continue;
      const uint32_t variant = adversary_->ProposalVariant(id_, dest, Now());
      auto it = variants.find(variant);
      if (it == variants.end()) {
        it = variants.emplace(variant, forge(variant)).first;
      }
      if (!quiet) Send(replicas_[i], it->second);
    }
  }

  /// The commit step, run once per decided block in chain order: executes
  /// `block` exactly once per request through the commit pipeline (a
  /// tampered copy while the adversary forges results), sends the per-pool
  /// replies unless `quiet`, counts the commit, and prunes the request pool
  /// once it holds more than 8 × batch_size + 1024 requests. Appending to
  /// the store stays with the caller.
  void DeliverBlock(const ledger::TxBlock& block, bool quiet);

  /// A complaint about `tx`: if it already executed here the client missed
  /// the replies, so the cached one is re-served (unless `quiet`) and this
  /// returns true. Returns false, sending nothing, for a request not yet
  /// executed.
  bool ServeCachedReply(const types::Transaction& tx, types::View view,
                        bool quiet);

  types::ReplicaId id_;
  const crypto::KeyStore* keys_;
  crypto::Signer signer_;
  types::FaultSpec fault_;
  /// Active-adversary interposer (nullptr = honest; harness-owned).
  const types::AdversaryPolicy* adversary_ = nullptr;

  std::vector<runtime::NodeId> replicas_;
  std::vector<runtime::NodeId> clients_;

  ledger::BlockStore store_;
  CommitPipeline delivery_;
  /// Every replica buffers every request; only the leader proposes.
  RequestPool pool_{delivery_};
  /// DeliverBlock prunes decided requests once the pool grows past this.
  size_t prune_above_;
  ReplicaMetrics metrics_;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_REPLICA_SHELL_H_
