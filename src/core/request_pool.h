// RequestPool: the buffer of client requests awaiting proposal, shared by
// PrestigeBFT and both baselines.
//
// Clients broadcast every proposal to all servers (§4.3), so every replica
// buffers every request — that is what lets a newly elected leader propose
// the outstanding load at once — and the pool sits on the hot path of all
// n replicas. It is therefore built to cost no per-request copy and no
// per-request decided state:
//
//  * Requests are held as FIFO slices into the storage they arrived in: the
//    received ClientBatch (or complaint) message, or a block's shared
//    TxBatch when an in-flight body returns to the pool. Each slice holds a
//    reference on that storage, so the storage lives exactly as long as
//    some slice still points into it. A request is copied once, when Take()
//    moves it into the leader's proposal.
//  * "Already decided?" is the commit pipeline's question
//    (CommitPipeline::Executed), answered by the session table's per-pool
//    floor plus sparse set. The pool keeps nothing per decided request.
//  * "Already pooled?" is a key set over the requests currently buffered,
//    so it is bounded by the pool's size.
//
// Decided requests are not removed eagerly: they are skipped when they
// reach the front (Take) and dropped in bulk by PruneDecided. Order, size()
// (which drives the partial-batch trigger) and both of those rules are the
// pool's observable behaviour, identical to a deque of copied requests.

#ifndef PRESTIGE_CORE_REQUEST_POOL_H_
#define PRESTIGE_CORE_REQUEST_POOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/commit_delivery.h"
#include "runtime/message.h"
#include "types/transaction.h"

namespace prestige {
namespace core {

class RequestPool {
 public:
  /// `log` answers "already decided?"; it must outlive the pool.
  explicit RequestPool(const CommitPipeline& log) : log_(log) {}
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// A request's identity, (pool, client_seq), folded into 64 bits.
  static uint64_t Key(const types::Transaction& tx) {
    return static_cast<uint64_t>(tx.pool) * 0x9e3779b97f4a7c15ULL ^
           tx.client_seq * 0xc2b2ae3d27d4eb4fULL;
  }

  /// Buffers the requests of `txs`, which `msg` owns (a ClientBatch).
  void Enqueue(const runtime::MessagePtr& msg,
               const std::vector<types::Transaction>& txs) {
    Append(msg, txs.data(), txs.data() + txs.size());
  }
  /// Buffers the one request `msg` carries (a complaint or its relay).
  void Enqueue(const runtime::MessagePtr& msg, const types::Transaction& tx) {
    Append(msg, &tx, &tx + 1);
  }
  /// Buffers a block body's requests again (an in-flight body returned to
  /// the pool). Shares the body; copies nothing.
  void Enqueue(const types::TxBatch& body) {
    Append(body.storage(), body.begin(), body.end());
  }

  /// Buffered requests, decided ones not yet skipped or pruned included.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True when a request with `tx`'s identity is buffered.
  bool Contains(const types::Transaction& tx) const {
    return keys_.count(Key(tx)) > 0;
  }

  /// Removes requests from the front until `max` have been taken or the
  /// pool is empty, and returns copies of the taken ones in pool order.
  /// Decided requests, and those `skip` rejects, are removed but not taken.
  template <typename Skip>
  std::vector<types::Transaction> Take(size_t max, Skip skip) {
    std::vector<types::Transaction> out;
    out.reserve(std::min(size_, max));
    while (size_ > 0 && out.size() < max) {
      Slice& front = slices_.front();
      const types::Transaction& tx = *front.next;
      keys_.erase(Key(tx));
      if (!Decided(tx) && !skip(tx)) out.push_back(tx);
      --size_;
      // Popping the slice may release the storage `tx` lives in, so the
      // copy above comes first.
      if (++front.next == front.end) slices_.pop_front();
    }
    return out;
  }
  std::vector<types::Transaction> Take(size_t max) {
    return Take(max, [](const types::Transaction&) { return false; });
  }

  /// Drops every decided request, keeping the rest in order.
  void PruneDecided() {
    std::deque<Slice> kept;
    size_ = 0;
    for (Slice& slice : slices_) {
      const types::Transaction* run = slice.next;
      for (const types::Transaction* it = slice.next; it != slice.end; ++it) {
        if (!Decided(*it)) continue;
        keys_.erase(Key(*it));
        Push(&kept, slice.owner, run, it);
        run = it + 1;
      }
      Push(&kept, std::move(slice.owner), run, slice.end);
    }
    slices_.swap(kept);
  }

 private:
  /// A run of buffered requests inside storage that `owner` keeps alive.
  struct Slice {
    std::shared_ptr<const void> owner;
    const types::Transaction* next;  ///< Front of the run.
    const types::Transaction* end;
  };

  bool Decided(const types::Transaction& tx) const {
    return log_.Executed(tx.pool, tx.client_seq);
  }

  /// Buffers each request of [first, last) that is neither decided nor
  /// already buffered, as maximal runs of accepted requests.
  void Append(std::shared_ptr<const void> owner,
              const types::Transaction* first,
              const types::Transaction* last) {
    const types::Transaction* run = first;
    for (const types::Transaction* it = first; it != last; ++it) {
      if (!Decided(*it) && keys_.insert(Key(*it)).second) continue;
      Push(&slices_, owner, run, it);
      run = it + 1;
    }
    Push(&slices_, std::move(owner), run, last);
  }

  void Push(std::deque<Slice>* to, std::shared_ptr<const void> owner,
            const types::Transaction* first, const types::Transaction* last) {
    if (first == last) return;
    to->push_back(Slice{std::move(owner), first, last});
    size_ += static_cast<size_t>(last - first);
  }

  const CommitPipeline& log_;
  std::deque<Slice> slices_;
  std::unordered_set<uint64_t> keys_;  ///< Key() of every buffered request.
  size_t size_ = 0;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_REQUEST_POOL_H_
