// ClientSessionTable: per-client exactly-once bookkeeping on the replica.
//
// Tracks, per client pool (session), which client_seq values have already
// executed and caches the last replies so a retransmitted or
// complaint-resubmitted request is answered from the cache instead of being
// executed a second time (the dsnet-style per-client OpNum / reply-cache
// discipline).
//
// Dedup metadata is exact and tiny: a contiguous floor ("every seq <= floor
// executed") plus a sparse set of executed seqs above it — pools issue
// seqs contiguously, so the sparse set only holds the current out-of-order
// window. Cached reply *bodies* are the bounded part: they are evicted at
// checkpoint boundaries once older than the retain window, after which a
// duplicate is still detected but answered with ExecStatus::kStaleDup
// (committed, result no longer available). Eviction is driven purely by
// committed block heights, so every honest replica's table evolves
// identically.

#ifndef PRESTIGE_CORE_CLIENT_SESSION_H_
#define PRESTIGE_CORE_CLIENT_SESSION_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "app/service.h"
#include "types/ids.h"

namespace prestige {
namespace core {

class ClientSessionTable {
 public:
  /// One cached execution result.
  struct CachedReply {
    app::Response response;
    types::SeqNum height = 0;  ///< Block height the request executed at.
  };

  /// True when (pool, seq) has already executed on this replica.
  /// Session seqs are 1-based (client::Client numbers from 1); seq 0 is
  /// outside session tracking — never a duplicate, executed every time it
  /// commits — rather than silently aliasing the pre-session floor.
  bool IsDuplicate(types::ClientPoolId pool, uint64_t seq) const {
    if (seq == 0) return false;
    auto it = sessions_.find(pool);
    if (it == sessions_.end()) return false;
    const Session& s = it->second;
    return seq <= s.floor || s.executed_above.count(seq) > 0;
  }

  /// Cached reply for a duplicate, or nullptr when it was evicted.
  const CachedReply* Lookup(types::ClientPoolId pool, uint64_t seq) const {
    auto it = sessions_.find(pool);
    if (it == sessions_.end()) return nullptr;
    auto r = it->second.replies.find(seq);
    return r == it->second.replies.end() ? nullptr : &r->second;
  }

  /// Records an execution: marks (pool, seq) executed and caches the reply.
  /// Seq 0 is untracked (see IsDuplicate) and recording it is a no-op.
  /// Heights must not decrease from one call to the next (the commit
  /// pipeline records in chain order); eviction relies on it.
  void Record(types::ClientPoolId pool, uint64_t seq, app::Response response,
              types::SeqNum height) {
    if (seq == 0) return;
    Session& s = sessions_[pool];
    if (seq == s.floor + 1) {
      // In order: advance the floor, then absorb any sparse seqs it reached.
      ++s.floor;
      while (!s.executed_above.empty() &&
             *s.executed_above.begin() == s.floor + 1) {
        ++s.floor;
        s.executed_above.erase(s.executed_above.begin());
      }
    } else if (seq > s.floor) {
      s.executed_above.insert(seq);
    }
    if (!s.replies.emplace(seq, CachedReply{std::move(response), height})
             .second) {
      return;
    }
    assert(s.reply_order.empty() || s.reply_order.back().first <= height);
    s.reply_order.emplace_back(height, seq);
    ++cached_replies_;
  }

  /// Evicts cached replies recorded at or below block `height` (dedup
  /// metadata is kept — duplicates stay detectable forever). Called at
  /// checkpoint boundaries with `checkpoint - retain_window`. Replies are
  /// recorded in height order, so each pool's oldest ones are at the front
  /// of its FIFO and eviction touches only what it removes.
  void EvictUpTo(types::SeqNum height) {
    for (auto& [pool, s] : sessions_) {
      (void)pool;
      while (!s.reply_order.empty() && s.reply_order.front().first <= height) {
        cached_replies_ -= s.replies.erase(s.reply_order.front().second);
        s.reply_order.pop_front();
      }
    }
  }

  /// The pool's contiguous floor: every seq in [1, floor] executed.
  uint64_t Floor(types::ClientPoolId pool) const {
    auto it = sessions_.find(pool);
    return it == sessions_.end() ? 0 : it->second.floor;
  }
  /// Executed seqs above the pool's floor (the out-of-order window).
  size_t SparseCount(types::ClientPoolId pool) const {
    auto it = sessions_.find(pool);
    return it == sessions_.end() ? 0 : it->second.executed_above.size();
  }

  size_t session_count() const { return sessions_.size(); }
  size_t cached_replies() const { return cached_replies_; }

 private:
  struct Session {
    uint64_t floor = 0;                  ///< All seqs <= floor executed.
    std::set<uint64_t> executed_above;   ///< Executed seqs > floor (sparse).
    std::unordered_map<uint64_t, CachedReply> replies;
    /// (height, seq) of every cached reply, in recording order.
    std::deque<std::pair<types::SeqNum, uint64_t>> reply_order;
  };

  std::unordered_map<types::ClientPoolId, Session> sessions_;
  size_t cached_replies_ = 0;
};

}  // namespace core
}  // namespace prestige

#endif  // PRESTIGE_CORE_CLIENT_SESSION_H_
