// CommitPipeline: the one commit-delivery path shared by PrestigeBFT and
// both baselines.
//
// Every protocol funnels each committed TxBlock through Deliver(), which
//   1. executes every *fresh* transaction exactly once via app::Service
//      (ClientSessionTable suppresses retransmitted / complaint-resubmitted
//      duplicates and re-serves their cached replies),
//   2. fires the service's block hook (and checkpoint hook + reply-cache
//      eviction every checkpoint_interval blocks),
//   3. returns the per-pool types::ClientReply messages — status + opaque
//      result + result digest per request — for the replica to send.
//
// Because the pipeline is driven only by the committed chain, its state
// (session table, execution counts, service state digest) is a
// deterministic function of the chain — the property the cross-replica
// execution invariant (harness/invariants.h) checks.

#ifndef PRESTIGE_CORE_COMMIT_DELIVERY_H_
#define PRESTIGE_CORE_COMMIT_DELIVERY_H_

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "app/service.h"
#include "core/client_session.h"
#include "ledger/tx_block.h"
#include "types/client_messages.h"

namespace prestige {
namespace core {

class CommitPipeline {
 public:
  struct Stats {
    int64_t executed = 0;               ///< Exactly-once service executions.
    int64_t duplicates_suppressed = 0;  ///< Dedup hits answered from cache.
    int64_t blocks_delivered = 0;
    int64_t checkpoints = 0;
  };

  explicit CommitPipeline(types::ReplicaId replica_id,
                          types::SeqNum checkpoint_interval = 32,
                          types::SeqNum reply_retain_blocks = 64)
      : replica_id_(replica_id),
        checkpoint_interval_(checkpoint_interval < 1 ? 1
                                                     : checkpoint_interval),
        reply_retain_blocks_(reply_retain_blocks),
        service_(std::make_unique<app::NullService>()) {}

  void SetService(std::unique_ptr<app::Service> service) {
    service_ = std::move(service);
  }

  app::Service& service() { return *service_; }
  const app::Service& service() const { return *service_; }
  const ClientSessionTable& sessions() const { return sessions_; }
  const Stats& stats() const { return stats_; }

  /// Executes `block` through the service with exactly-once dedup and
  /// returns one ClientReply per client pool present in the block.
  std::vector<std::shared_ptr<types::ClientReply>> Deliver(
      const ledger::TxBlock& block) {
    // One reply per pool, each sized once from a first counting pass.
    struct PoolReply {
      size_t count = 0;
      std::shared_ptr<types::ClientReply> reply;
    };
    std::map<types::ClientPoolId, PoolReply> by_pool;
    for (const types::Transaction& tx : block.txs()) ++by_pool[tx.pool].count;
    for (auto& [pool, slot] : by_pool) {
      slot.reply = std::make_shared<types::ClientReply>();
      slot.reply->replica = replica_id_;
      slot.reply->v = block.v;
      slot.reply->n = block.n();
      slot.reply->pool = pool;
      slot.reply->entries.reserve(slot.count);
    }
    for (const types::Transaction& tx : block.txs()) {
      if (tx.client_seq == 0) zero_seq_decided_.insert(tx.pool);
      by_pool[tx.pool].reply->entries.push_back(
          ExecuteOrReplay(tx, block.n()));
    }
    service_->OnBlockCommitted(block.n(), block.v);
    ++stats_.blocks_delivered;
    if (block.n() % checkpoint_interval_ == 0) {
      service_->OnCheckpoint(block.n());
      sessions_.EvictUpTo(block.n() - reply_retain_blocks_);
      ++stats_.checkpoints;
    }

    std::vector<std::shared_ptr<types::ClientReply>> replies;
    replies.reserve(by_pool.size());
    for (auto& [pool, slot] : by_pool) {
      (void)pool;
      replies.push_back(std::move(slot.reply));
    }
    return replies;
  }

  /// Reply for a single already-committed request (complaint path: the
  /// client missed the original replies). Served from the cache; evicted
  /// results come back as kStaleDup — deterministically on every replica,
  /// so the client's digest quorum still forms.
  std::shared_ptr<types::ClientReply> ReplyFor(const types::Transaction& tx,
                                               types::View v) {
    auto reply = std::make_shared<types::ClientReply>();
    reply->replica = replica_id_;
    reply->v = v;
    reply->pool = tx.pool;
    const ClientSessionTable::CachedReply* cached =
        sessions_.Lookup(tx.pool, tx.client_seq);
    if (cached != nullptr) reply->n = cached->height;
    reply->entries.push_back(ReplayEntry(tx.client_seq, cached));
    return reply;
  }

  /// True when (pool, seq) is decided here: it committed, so it must not
  /// be proposed again. The session table answers for session seqs. Seq 0
  /// is outside session tracking (executed every time it commits), so one
  /// marker per pool records that some seq-0 request of that pool
  /// committed, and from then on every seq-0 request of the pool counts as
  /// decided.
  bool Executed(types::ClientPoolId pool, uint64_t seq) const {
    if (seq == 0) return zero_seq_decided_.count(pool) > 0;
    return sessions_.IsDuplicate(pool, seq);
  }

 private:
  /// The one construction of a duplicate's ReplyEntry — from the cached
  /// response, or the deterministic kStaleDup shape once evicted. Both
  /// the block-delivery and complaint paths must produce byte-identical
  /// entries (clients quorum-match on the digest), so they share this.
  static types::ReplyEntry ReplayEntry(
      uint64_t client_seq, const ClientSessionTable::CachedReply* cached) {
    types::ReplyEntry entry;
    entry.client_seq = client_seq;
    entry.duplicate = true;
    if (cached != nullptr) {
      entry.status = static_cast<uint8_t>(cached->response.status);
      entry.result = cached->response.result;
      entry.result_digest = app::ResultDigest(cached->response);
    } else {
      app::Response stale;
      stale.status = app::ExecStatus::kStaleDup;
      entry.status = static_cast<uint8_t>(stale.status);
      entry.result_digest = app::ResultDigest(stale);
    }
    return entry;
  }

  types::ReplyEntry ExecuteOrReplay(const types::Transaction& tx,
                                    types::SeqNum height) {
    if (sessions_.IsDuplicate(tx.pool, tx.client_seq)) {
      ++stats_.duplicates_suppressed;
      return ReplayEntry(tx.client_seq,
                         sessions_.Lookup(tx.pool, tx.client_seq));
    }
    types::ReplyEntry entry;
    entry.client_seq = tx.client_seq;
    app::Response response = service_->Execute(tx);
    ++stats_.executed;
    entry.status = static_cast<uint8_t>(response.status);
    entry.result_digest = app::ResultDigest(response);
    entry.result = response.result;
    sessions_.Record(tx.pool, tx.client_seq, std::move(response), height);
    return entry;
  }

  types::ReplicaId replica_id_;
  types::SeqNum checkpoint_interval_;
  types::SeqNum reply_retain_blocks_;
  std::unique_ptr<app::Service> service_;
  ClientSessionTable sessions_;
  /// Pools with a committed seq-0 request (see Executed).
  std::set<types::ClientPoolId> zero_seq_decided_;
  Stats stats_;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_COMMIT_DELIVERY_H_
