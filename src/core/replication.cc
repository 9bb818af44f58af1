// The two-phase replication protocol (§4.3): ordering_QC then commit_QC,
// with batching and pipelining. Message complexity O(n); 7 rounds end-to-end
// including the client (Prop, Ord, replies, Cmt, replies, txBlock, Notif).

#include <cassert>

#include "core/replica.h"
#include "util/logging.h"

namespace prestige {
namespace core {

// ----------------------------------------------------------- client input

void PrestigeReplica::OnClientBatch(const runtime::MessagePtr& msg,
                                    const types::ClientBatch& batch) {
  // Every replica buffers proposals (clients broadcast them, §4.3), so a
  // newly elected leader can make immediate progress on outstanding load.
  pool_.Enqueue(msg, batch.txs);
  if (role_ == Role::kLeader) MaybePropose();
}

void PrestigeReplica::MaybePropose(bool allow_partial) {
  if (role_ != Role::kLeader || !replication_enabled_) return;
  // Slow/selective leader: wedge the proposal path while heartbeats keep
  // flowing (OnTimer kHeartbeat), so failure detectors that only watch
  // pings see a live leader that never makes progress.
  if (AdversaryWedged()) return;
  // An expired batch-wait deadline stays in force until the partial batch
  // actually goes out: when the timer fires while the pipeline is full, the
  // trigger must survive to the next free slot, not be dropped.
  if (partial_due_) allow_partial = true;
  while (!pool_.empty() && instances_.size() < config_.max_inflight) {
    if (pool_.size() < config_.batch_size && !allow_partial) break;
    // Decided requests are dropped by the pool; those inside an in-flight
    // (re-proposed) body are dropped here.
    std::vector<types::Transaction> batch =
        pool_.Take(config_.batch_size, [this](const types::Transaction& tx) {
          return inflight_tx_keys_.count(TxKey(tx)) > 0;
        });
    if (batch.empty()) break;
    Propose(std::move(batch));
    allow_partial = false;  // At most one partial block per trigger.
    partial_due_ = false;   // The overdue front of the pool was proposed.
  }
  if (pool_.empty()) partial_due_ = false;
  // A partial batch left behind gets proposed when the batch timer fires.
  if (!pool_.empty() && batch_timer_ == 0) {
    batch_timer_ = SetTimer(config_.batch_wait, Tag(kBatchTimer));
  }
}

void PrestigeReplica::Propose(types::TxBatch batch) {
  for (const types::Transaction& tx : batch) {
    inflight_tx_keys_.insert(TxKey(tx));
  }
  Instance instance;
  instance.last_broadcast_at = Now();
  instance.block.v = view_;
  instance.block.set_n(next_seq_++);
  instance.block.set_prev_hash(last_proposed_digest_);
  instance.block.set_txs(std::move(batch));
  instance.block.status.assign(instance.block.BatchSize(), 1);

  const crypto::Sha256Digest digest = instance.block.Digest();
  last_proposed_digest_ = digest;
  const crypto::Sha256Digest ord_digest =
      ledger::OrderingDigest(view_, instance.block.n(), digest);
  instance.ord_builder =
      crypto::QuorumCertBuilder(ord_digest, config_.quorum());
  instance.ord_builder.Add(signer_.Sign(ord_digest), ord_digest);

  auto ord = std::make_shared<OrdMsg>();
  ord->v = view_;
  ord->n = instance.block.n();
  ord->prev_hash = instance.block.prev_hash();
  ord->txs = instance.block.txs();
  ord->sig = SignMaybeCorrupt(Leading(), ord_digest);

  auto it = instances_.emplace(instance.block.n(), std::move(instance)).first;
  BroadcastOrd(ord);
  // A quorum of one (n < 4) is formed by the leader's own partial.
  if (it->second.ord_builder.Complete()) OrderingQuorumFormed(it);
}

void PrestigeReplica::BroadcastOrd(const std::shared_ptr<OrdMsg>& ord) {
  // Equivocating leader: perturbing every transaction fingerprint changes
  // the block digest while keeping the batch well-formed.
  BroadcastProposal(ord, QuietActive(Leading()), [&](uint32_t variant) {
    ledger::TxBlock block;
    block.v = ord->v;
    block.set_n(ord->n);
    block.set_prev_hash(ord->prev_hash);
    std::vector<types::Transaction> txs = ord->txs.ToVector();
    for (types::Transaction& tx : txs) {
      tx.fingerprint ^= 0x9e3779b97f4a7c15ULL * variant;
    }
    block.set_txs(std::move(txs));
    block.status.assign(block.BatchSize(), 1);
    auto forged = std::make_shared<OrdMsg>();
    forged->v = ord->v;
    forged->n = ord->n;
    forged->prev_hash = ord->prev_hash;
    forged->txs = block.txs();
    forged->sig = SignMaybeCorrupt(
        Leading(), ledger::OrderingDigest(ord->v, ord->n, block.Digest()));
    return forged;
  });
}

// ------------------------------------------------------ follower: phase 1

void PrestigeReplica::OnOrd(runtime::NodeId from, const OrdMsg& ord,
                            OrdMsg::Verified* pre) {
  if (ord.v < view_) return;  // Never respond to lower views (§4.3).
  if (ord.v > view_) {
    // We are behind on view changes; catch up from the sender.
    RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                ord.v);
    return;
  }
  if (role_ == Role::kLeader || from != ActorOf(leader_)) return;
  if (ord.n <= store_.LatestTxSeq()) return;  // Stale retransmission.

  // Heavy prologue (block rebuild + hashing + leader signature): use the
  // worker-pool results when present, compute inline otherwise.
  ledger::TxBlock block;
  crypto::Sha256Digest digest;
  crypto::Sha256Digest ord_digest;
  bool sig_ok;
  if (pre != nullptr) {
    block = std::move(pre->block);
    digest = pre->block_digest;
    ord_digest = pre->ord_digest;
    sig_ok = pre->sig_ok;
  } else {
    block.v = ord.v;
    block.set_n(ord.n);
    block.set_prev_hash(ord.prev_hash);
    block.set_txs(ord.txs);
    block.status.assign(block.BatchSize(), 1);
    digest = block.Digest();
    ord_digest = ledger::OrderingDigest(ord.v, ord.n, digest);
    sig_ok = keys_->Verify(ord.sig, ord_digest);
  }

  if (!sig_ok || ord.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }

  // Equivocation guard: never sign two different blocks at the same (v, n).
  const auto key = std::make_pair(ord.v, ord.n);
  auto signed_it = signed_ord_.find(key);
  if (signed_it != signed_ord_.end()) {
    if (signed_it->second != digest) {
      ++metrics_.invalid_messages;  // Leader equivocated.
      return;
    }
  } else {
    signed_ord_.emplace(key, digest);
  }

  // Cross-view ordering binding: once we ordering-sign a body at n, no
  // other body may occupy n (Theorem 3). Bind now; conflicting proposals
  // from later views are refused until n commits.
  auto bound = commit_bound_.find(ord.n);
  if (bound != commit_bound_.end() && bound->second != digest) {
    return;  // Keep the bound body; refuse the conflicting proposal.
  }
  commit_bound_.emplace(ord.n, digest);

  PendingBlock pending;
  pending.block = std::move(block);
  pending_blocks_[ord.n] = std::move(pending);

  // Vote withholding: starve the leader of this ordering reply (the
  // progress timer still resets — the attacker saw a live leader and has
  // no interest in campaigning itself).
  if (AdversaryWithholds(ReplicaIndexOf(from))) {
    ResetProgress();
    return;
  }

  auto reply = std::make_shared<OrdReplyMsg>();
  reply->v = ord.v;
  reply->n = ord.n;
  reply->partial = SignMaybeCorrupt(Leading(), ord_digest);
  GuardedSend(Leading(), from, reply);
  ResetProgress();
}

// -------------------------------------------------------- leader: phase 1

void PrestigeReplica::OnOrdReply(runtime::NodeId from, const OrdReplyMsg& reply) {
  (void)from;
  if (role_ != Role::kLeader || reply.v != view_) return;
  auto it = instances_.find(reply.n);
  if (it == instances_.end() || it->second.ordered) return;
  Instance& instance = it->second;

  const crypto::Sha256Digest ord_digest = instance.ord_builder.digest();
  if (!keys_->Verify(reply.partial, ord_digest)) {
    ++metrics_.invalid_messages;  // F3 equivocators land here.
    return;
  }
  instance.ord_builder.Add(reply.partial, ord_digest);
  if (instance.ord_builder.Complete()) OrderingQuorumFormed(it);
}

void PrestigeReplica::OrderingQuorumFormed(InstanceIt it) {
  // ordering_QC formed: enter phase 2.
  Instance& instance = it->second;
  instance.ordered = true;
  instance.last_broadcast_at = Now();  // The Cmt broadcast below.
  instance.block.ordering_qc = instance.ord_builder.Build();
  const crypto::Sha256Digest& block_digest = instance.block.Digest();
  const crypto::Sha256Digest cmt_digest =
      ledger::CommitDigest(view_, instance.block.n(), block_digest);
  instance.cmt_builder =
      crypto::QuorumCertBuilder(cmt_digest, config_.quorum());
  instance.cmt_builder.Add(signer_.Sign(cmt_digest), cmt_digest);

  auto cmt = std::make_shared<CmtMsg>();
  cmt->v = view_;
  cmt->n = instance.block.n();
  cmt->block_digest = block_digest;
  cmt->ordering_qc = instance.block.ordering_qc;
  cmt->sig = SignMaybeCorrupt(Leading(), cmt_digest);
  GuardedSend(Leading(), PeerActors(), cmt);
  if (instance.cmt_builder.Complete()) CommitQuorumFormed(it);
}

// ------------------------------------------------------ follower: phase 2

void PrestigeReplica::OnCmt(runtime::NodeId from, const CmtMsg& cmt,
                            const CmtMsg::Verified* pre) {
  if (cmt.v != view_ || role_ == Role::kLeader || from != ActorOf(leader_)) {
    return;
  }
  auto it = pending_blocks_.find(cmt.n);
  if (it == pending_blocks_.end()) return;  // No Ord seen for this n.
  PendingBlock& pending = it->second;
  const crypto::Sha256Digest digest = pending.block.Digest();
  if (digest != cmt.block_digest) {
    ++metrics_.invalid_messages;
    return;
  }
  // Past this point digest == cmt.block_digest, so prologue verdicts
  // (computed over the message's own digest) apply to our pending body.
  const bool qc_ok =
      pre != nullptr
          ? pre->qc_ok
          : crypto::VerifyQuorumCert(*keys_, cmt.ordering_qc,
                                     ledger::OrderingDigest(cmt.v, cmt.n,
                                                            digest),
                                     config_.quorum())
                .ok();
  if (!qc_ok) {
    ++metrics_.invalid_messages;
    return;
  }
  const crypto::Sha256Digest cmt_digest =
      pre != nullptr ? pre->cmt_digest
                     : ledger::CommitDigest(cmt.v, cmt.n, digest);
  const bool sig_ok =
      pre != nullptr ? pre->sig_ok : keys_->Verify(cmt.sig, cmt_digest);
  if (!sig_ok || cmt.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }
  // Binding check (Theorem 3): never commit-sign a block conflicting with
  // the body we ordering-signed at this sequence number.
  auto bound = commit_bound_.find(cmt.n);
  if (bound != commit_bound_.end() && bound->second != digest) {
    ++metrics_.invalid_messages;
    return;
  }

  pending.block.ordering_qc = cmt.ordering_qc;
  pending.commit_signed = true;

  if (AdversaryWithholds(ReplicaIndexOf(from))) {  // Starve the commit QC.
    ResetProgress();
    return;
  }

  auto reply = std::make_shared<CmtReplyMsg>();
  reply->v = cmt.v;
  reply->n = cmt.n;
  reply->partial = SignMaybeCorrupt(Leading(), cmt_digest);
  GuardedSend(Leading(), from, reply);
  ResetProgress();
}

// -------------------------------------------------------- leader: phase 2

void PrestigeReplica::OnCmtReply(runtime::NodeId from, const CmtReplyMsg& reply) {
  (void)from;
  if (role_ != Role::kLeader || reply.v != view_) return;
  auto it = instances_.find(reply.n);
  if (it == instances_.end() || !it->second.ordered) return;
  Instance& instance = it->second;

  const crypto::Sha256Digest cmt_digest = instance.cmt_builder.digest();
  if (!keys_->Verify(reply.partial, cmt_digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  instance.cmt_builder.Add(reply.partial, cmt_digest);
  if (!instance.cmt_builder.Complete()) return;
  CommitQuorumFormed(it);
  MaybePropose();
}

void PrestigeReplica::CommitQuorumFormed(InstanceIt it) {
  // commit_QC formed: the block is decided.
  Instance& instance = it->second;
  instance.block.commit_qc = instance.cmt_builder.Build();
  ready_blocks_.emplace(it->first, std::move(instance.block));
  instances_.erase(it);

  // Commit strictly in sequence order (QCs may complete out of order).
  while (true) {
    auto ready = ready_blocks_.find(store_.LatestTxSeq() + 1);
    if (ready == ready_blocks_.end()) break;
    ledger::TxBlock block = std::move(ready->second);
    ready_blocks_.erase(ready);

    auto msg = std::make_shared<TxBlockMsg>();
    msg->block = block;
    GuardedSend(Leading(), PeerActors(), msg);
    CommitBlock(std::move(block));
  }
}

// ----------------------------------------------------------------- commit

void PrestigeReplica::OnTxBlockMsg(runtime::NodeId from, const TxBlockMsg& msg) {
  const types::SeqNum latest = store_.LatestTxSeq();
  if (msg.block.n() <= latest) return;  // Duplicate.
  if (msg.block.n() > latest + 1) {
    // Gap: buffer and fetch the missing prefix.
    buffered_commits_[msg.block.n()] = msg.block;
    RequestSync(from, SyncReqMsg::Kind::kTxBlocks, latest, msg.block.n() - 1);
    return;
  }
  CommitBlock(msg.block);
  DrainBufferedBlocks();
}

void PrestigeReplica::CommitBlock(ledger::TxBlock block) {
  const types::SeqNum n = block.n();
  if (!ValidateAndAppendTxBlock(block).ok()) {
    ++metrics_.invalid_messages;
    return;
  }
  pending_blocks_.erase(n);
  signed_ord_.erase(std::make_pair(block.v, n));
  commit_bound_.erase(n);
  for (const types::Transaction& tx : block.txs()) {
    inflight_tx_keys_.erase(TxKey(tx));
  }
  ResetProgress();
}

void PrestigeReplica::DrainBufferedBlocks() {
  while (true) {
    auto it = buffered_commits_.find(store_.LatestTxSeq() + 1);
    if (it == buffered_commits_.end()) break;
    ledger::TxBlock block = std::move(it->second);
    buffered_commits_.erase(it);
    CommitBlock(std::move(block));
  }
}

// -------------------------------------------------------------- liveness

void PrestigeReplica::OnHeartbeat(runtime::NodeId from, const HeartbeatMsg& hb,
                                  const HeartbeatMsg::Verified* pre) {
  if (hb.v < view_) return;
  if (hb.v > view_) {
    RequestSync(from, SyncReqMsg::Kind::kVcBlocks, store_.CurrentView(),
                hb.v);
    return;
  }
  if (from != ActorOf(leader_)) return;
  const bool sig_ok =
      pre != nullptr
          ? pre->sig_ok
          : keys_->Verify(hb.sig, HeartbeatDigest(hb.v, hb.latest_n));
  if (!sig_ok || hb.sig.signer != leader_) {
    ++metrics_.invalid_messages;
    return;
  }
  if (hb.latest_n > store_.LatestTxSeq()) {
    RequestSync(from, SyncReqMsg::Kind::kTxBlocks, store_.LatestTxSeq(),
                hb.latest_n);
  }
  ResetProgress();
}

void PrestigeReplica::ResetProgress() {
  progress_stale_ = false;
  if (role_ == Role::kLeader) return;
  ArmProgressTimer();
}

void PrestigeReplica::ArmProgressTimer() {
  if (progress_timer_ != 0) CancelTimer(progress_timer_);
  progress_timer_ = SetTimer(SampleTimeout(), Tag(kProgressTimeout));
}

util::DurationMicros PrestigeReplica::SampleTimeout() {
  if (config_.timeout_max <= config_.timeout_min) return config_.timeout_min;
  return config_.timeout_min +
         timeout_rng_.NextInRange(
             0, config_.timeout_max - config_.timeout_min - 1);
}

void PrestigeReplica::StartLeading() {
  replication_enabled_ = true;
  next_seq_ = store_.LatestTxSeq() + 1;
  last_proposed_digest_ = store_.LatestTxDigest();
  instances_.clear();
  ready_blocks_.clear();
  if (progress_timer_ != 0) {
    CancelTimer(progress_timer_);
    progress_timer_ = 0;
  }
  if (heartbeat_timer_ != 0) CancelTimer(heartbeat_timer_);
  heartbeat_timer_ = SetTimer(config_.timeout_min / 3, Tag(kHeartbeat));

  // Re-propose the in-flight suffix inherited from the previous view: the
  // bodies keep their identity (TxBlock::Digest excludes the view), so
  // followers commit-bound by the old view converge on the same blocks.
  std::vector<ledger::TxBlock> repropose = std::move(repropose_);
  repropose_.clear();
  for (ledger::TxBlock& body : repropose) {
    if (body.n() < next_seq_) continue;  // Committed while we were elected.
    if (body.n() != next_seq_ || instances_.size() >= config_.max_inflight) {
      // Gap or full pipeline: recycle the transactions into the pool.
      pool_.Enqueue(body.txs());
      continue;
    }
    Propose(body.txs());
  }

  MaybePropose(/*allow_partial=*/true);
}

void PrestigeReplica::StopReplicationActivity() {
  replication_enabled_ = false;
  // Return uncommitted in-flight transactions to the request pool so a
  // future leadership term can re-propose them.
  for (auto& [n, instance] : instances_) {
    (void)n;
    for (const types::Transaction& tx : instance.block.txs()) {
      inflight_tx_keys_.erase(TxKey(tx));
    }
    pool_.Enqueue(instance.block.txs());
  }
  for (auto& [n, block] : ready_blocks_) {
    (void)n;
    for (const types::Transaction& tx : block.txs()) {
      inflight_tx_keys_.erase(TxKey(tx));
    }
    pool_.Enqueue(block.txs());
  }
  instances_.clear();
  ready_blocks_.clear();
  partial_due_ = false;
  if (batch_timer_ != 0) {
    CancelTimer(batch_timer_);
    batch_timer_ = 0;
  }
  if (heartbeat_timer_ != 0) {
    CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
}

void PrestigeReplica::RetransmitStalledInstances() {
  // On lossy links an instance wedges when an Ord/Cmt copy or enough
  // replies are lost: the leader would otherwise wait forever (followers
  // keep seeing heartbeats, so only the slow complaint path would recover
  // via a full view change). Re-broadcast the current phase of any
  // instance older than one heartbeat interval; followers treat the
  // repeats idempotently and re-send their replies.
  if (AdversaryWedged()) return;  // Wedged leaders never retransmit.
  const util::DurationMicros stall_age = config_.timeout_min / 3;
  for (auto& [n, instance] : instances_) {
    if (Now() - instance.last_broadcast_at < stall_age) {
      continue;
    }
    instance.last_broadcast_at = Now();
    const crypto::Sha256Digest& digest = instance.block.Digest();
    if (!instance.ordered) {
      auto ord = std::make_shared<OrdMsg>();
      ord->v = instance.block.v;
      ord->n = n;
      ord->prev_hash = instance.block.prev_hash();
      ord->txs = instance.block.txs();
      ord->sig = SignMaybeCorrupt(
          Leading(), ledger::OrderingDigest(instance.block.v, n, digest));
      BroadcastOrd(ord);  // Equivocators keep their per-group stories.
    } else {
      auto cmt = std::make_shared<CmtMsg>();
      cmt->v = instance.block.v;
      cmt->n = n;
      cmt->block_digest = digest;
      cmt->ordering_qc = instance.block.ordering_qc;
      cmt->sig = SignMaybeCorrupt(
          Leading(), ledger::CommitDigest(instance.block.v, n, digest));
      GuardedSend(Leading(), PeerActors(), cmt);
    }
  }
}

}  // namespace core
}  // namespace prestige
