// ReplicaShell: wiring, fault gates and the commit step shared by every
// replica (see replica_shell.h).

#include "core/replica_shell.h"

#include <utility>

namespace prestige {
namespace core {

ReplicaShell::ReplicaShell(types::ReplicaId id, const crypto::KeyStore* keys,
                           types::FaultSpec fault, size_t batch_size)
    : id_(id),
      keys_(keys),
      signer_(keys, id),
      fault_(fault),
      delivery_(id),
      prune_above_(8 * batch_size + 1024) {}

void ReplicaShell::SetTopology(std::vector<runtime::NodeId> replicas,
                               std::vector<runtime::NodeId> clients) {
  replicas_ = std::move(replicas);
  clients_ = std::move(clients);
}

void ReplicaShell::SetService(std::unique_ptr<app::Service> service) {
  delivery_.SetService(std::move(service));
}

std::vector<runtime::NodeId> ReplicaShell::PeerActors() const {
  std::vector<runtime::NodeId> peers;
  peers.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<types::ReplicaId>(i) != id_) peers.push_back(replicas_[i]);
  }
  return peers;
}

types::ReplicaId ReplicaShell::ReplicaIndexOf(runtime::NodeId node) const {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == node) return static_cast<types::ReplicaId>(i);
  }
  return id_;
}

bool ReplicaShell::CrashedNow() const {
  return fault_.type == types::FaultType::kCrash && fault_.start_at > 0 &&
         Now() >= fault_.start_at;
}

// --------------------------------------------------------------- faults

bool ReplicaShell::QuietActive(bool leading) const {
  if (Now() < fault_.start_at) return false;
  if (fault_.type == types::FaultType::kQuiet) return true;
  // F4+F2: the attacker wins its elections honestly, then stonewalls
  // replication while it leads.
  return fault_.type == types::FaultType::kRepeatedVc && leading &&
         fault_.as_leader == types::LeaderMisbehaviour::kQuiet;
}

bool ReplicaShell::EquivocateActive(bool leading) const {
  if (Now() < fault_.start_at) return false;
  if (fault_.type == types::FaultType::kEquivocate) return true;
  return fault_.type == types::FaultType::kRepeatedVc && leading &&
         fault_.as_leader == types::LeaderMisbehaviour::kEquivocate;
}

void ReplicaShell::GuardedSend(bool leading, runtime::NodeId to,
                               runtime::MessagePtr msg) {
  if (QuietActive(leading)) return;  // F2: a quiet server emits nothing.
  Send(to, std::move(msg));
}

void ReplicaShell::GuardedSend(bool leading,
                               const std::vector<runtime::NodeId>& to,
                               runtime::MessagePtr msg) {
  if (QuietActive(leading)) return;
  Send(to, std::move(msg));
}

crypto::Signature ReplicaShell::SignMaybeCorrupt(
    bool leading, const crypto::Sha256Digest& digest) {
  crypto::Signature sig = signer_.Sign(digest);
  if (EquivocateActive(leading)) {
    sig.mac[0] ^= 0xff;  // F3: erroneous reply; receivers reject it.
  }
  return sig;
}

// ---------------------------------------------------------------- commit

void ReplicaShell::DeliverBlock(const ledger::TxBlock& block, bool quiet) {
  std::vector<std::shared_ptr<types::ClientReply>> replies;
  if (AdversaryTampers()) {
    // Forged replies: execute a tampered copy of the committed block, so
    // this replica's application state genuinely diverges and the reply
    // entries it reports carry forged result digests. The chain itself
    // stays canonical: the caller appends the real body.
    ledger::TxBlock forged = block;
    std::vector<types::Transaction> txs = forged.release_txs();
    for (types::Transaction& tx : txs) {
      tx.fingerprint ^= 0xf00dfacef00dfaceULL;
      for (uint8_t& b : tx.command) b ^= 0x5a;
    }
    forged.set_txs(std::move(txs));
    replies = delivery_.Deliver(forged);
  } else {
    replies = delivery_.Deliver(block);
  }
  if (!quiet) {
    for (const auto& reply : replies) {
      if (reply->pool < clients_.size()) Send(clients_[reply->pool], reply);
    }
  }
  const auto txs = static_cast<int64_t>(block.BatchSize());
  metrics_.committed_txs += txs;
  ++metrics_.committed_blocks;
  metrics_.commit_timeline.Add(Now(), txs);
  // Amortised prune: decided requests linger in the pool until a leader's
  // Take skips them, and a follower never takes. Rebuild the pool once it
  // outgrows the bound, so every replica's pool stays bounded.
  if (pool_.size() > prune_above_) pool_.PruneDecided();
}

bool ReplicaShell::ServeCachedReply(const types::Transaction& tx,
                                    types::View view, bool quiet) {
  if (!Decided(tx)) return false;
  if (!quiet && tx.pool < clients_.size()) {
    Send(clients_[tx.pool], delivery_.ReplyFor(tx, view));
  }
  return true;
}

}  // namespace core
}  // namespace prestige
