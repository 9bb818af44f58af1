// Client transactions as carried through consensus.
//
// A Transaction records its origin, timing, size, and the opaque command
// the application service will execute. Workloads that only measure
// consensus (no real application) leave `command` empty and rely on the
// random `fingerprint` for content identity; sizes feed the bandwidth
// model either way.

#ifndef PRESTIGE_TYPES_TRANSACTION_H_
#define PRESTIGE_TYPES_TRANSACTION_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "types/codec.h"
#include "types/ids.h"
#include "util/page_allocator.h"
#include "util/time.h"

namespace prestige {
namespace types {

/// One client request (the paper's ⟨Prop, t, d, c, σc, tx⟩).
struct Transaction {
  ClientPoolId pool = 0;          ///< Originating client pool / session.
  uint64_t client_seq = 0;        ///< Unique per-pool request number.
  /// Consensus group the client routed this request to (sharded
  /// deployments; 0 — the only group — when unsharded). Covered by the
  /// digest so a relayed proposal cannot be silently re-homed.
  GroupId group = 0;
  util::TimeMicros sent_at = 0;   ///< The client timestamp t.
  uint32_t payload_size = 32;     ///< m: modelled request payload bytes.
  uint64_t fingerprint = 0;       ///< Content stand-in when command is empty.
  /// Opaque command bytes executed by app::Service (empty for synthetic
  /// consensus-only workloads).
  std::vector<uint8_t> command;

  bool operator==(const Transaction& other) const {
    return pool == other.pool && client_seq == other.client_seq &&
           group == other.group && sent_at == other.sent_at &&
           payload_size == other.payload_size &&
           fingerprint == other.fingerprint && command == other.command;
  }

  /// Canonical digest d of the request (covers the command payload).
  crypto::Sha256Digest Digest() const {
    HashingEncoder enc("tx");
    enc.PutU32(pool)
        .PutU64(client_seq)
        .PutU32(group)
        .PutI64(sent_at)
        .PutU32(payload_size)
        .PutU64(fingerprint)
        .PutBytes(command);
    return enc.Digest();
  }

  /// Wire bytes of the full proposal (payload + header + client signature).
  /// Real command bytes dominate `payload_size` when both are present.
  size_t WireBytes() const {
    return std::max<size_t>(payload_size, command.size()) + 72;
  }
};

/// An immutable, reference-counted batch body: the transaction list of one
/// block, shared by every holder instead of deep-copied.
///
/// Ownership contract:
///  * The transactions are frozen once wrapped. There is no mutating
///    accessor; code that must change transactions (re-proposal, the
///    equivocation and forged-reply adversaries) copies them out with
///    ToVector(), edits the copy, and wraps a new TxBatch.
///  * Copying a TxBatch is a refcount bump. Under the threaded runtime one
///    body is read concurrently by every replica that holds the block;
///    that is safe because nothing ever writes through it.
///  * A TxBatch carries no digest. Each TxBlock memoizes its own digest
///    (ledger::DigestCache), so a replica that builds a block from a
///    received body hashes the transactions itself.
///  * The body is stored at exact size in util::PageAllocator storage: the
///    leader's loop thread allocates every body, and every replica's
///    ledger may retain it, so it must not pin the leader's malloc arena.
class TxBatch {
 public:
  using const_iterator = const Transaction*;

  TxBatch() = default;
  /// Freezes `txs` (implicit, so a freshly built vector can be assigned or
  /// passed where a TxBatch is expected).
  TxBatch(std::vector<Transaction> txs);  // NOLINT(google-explicit-constructor)
  TxBatch(std::initializer_list<Transaction> txs)
      : TxBatch(std::vector<Transaction>(txs)) {}

  size_t size() const { return body_ ? body_->size() : 0; }
  bool empty() const { return size() == 0; }
  const_iterator begin() const { return body_ ? body_->data() : nullptr; }
  const_iterator end() const { return begin() + size(); }
  const Transaction& operator[](size_t i) const { return begin()[i]; }

  /// A private, mutable copy of the transactions.
  std::vector<Transaction> ToVector() const {
    return std::vector<Transaction>(begin(), end());
  }

  /// A reference on the shared body: holders may keep pointers into
  /// [begin(), end()) for as long as they hold it.
  std::shared_ptr<const void> storage() const { return body_; }

 private:
  using Body = std::vector<Transaction, util::PageAllocator<Transaction>>;

  std::shared_ptr<const Body> body_;
};

/// Digest covering an ordered list of transactions (a batch body).
crypto::Sha256Digest BatchDigest(const TxBatch& txs);

}  // namespace types
}  // namespace prestige

#endif  // PRESTIGE_TYPES_TRANSACTION_H_
