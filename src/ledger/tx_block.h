// txBlock: the deterministic result of one replication consensus instance.
//
// Mirrors Figure 3 of the paper:
//   header    — view number v, block index n, addresses of this block and
//               the previous txBlock (hash chaining);
//   agreement — ordering_QC and commit_QC;
//   payload   — tx[] and per-transaction status[].

#ifndef PRESTIGE_LEDGER_TX_BLOCK_H_
#define PRESTIGE_LEDGER_TX_BLOCK_H_

#include <utility>
#include <vector>

#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "ledger/digest_cache.h"
#include "types/codec.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace prestige {
namespace ledger {

/// One committed batch of transactions.
///
/// The identity fields (n, prev_hash, txs) are private behind mutators so
/// the memoized Digest() can never go stale: every write invalidates the
/// cache. Fields the digest does not cover (v, status, QCs) stay public.
class TxBlock {
 public:
  types::View v = 0;
  std::vector<uint8_t> status;  ///< Per-tx consensus result (1 = committed).

  crypto::QuorumCert ordering_qc;
  crypto::QuorumCert commit_qc;

  types::SeqNum n() const { return n_; }
  void set_n(types::SeqNum n) {
    n_ = n;
    cache_.Invalidate();
  }

  const crypto::Sha256Digest& prev_hash() const { return prev_hash_; }
  void set_prev_hash(const crypto::Sha256Digest& h) {
    prev_hash_ = h;
    cache_.Invalidate();
  }

  /// The batch body. Copying the block shares it (see types::TxBatch).
  const types::TxBatch& txs() const { return txs_; }
  void set_txs(types::TxBatch txs) {
    txs_ = std::move(txs);
    cache_.Invalidate();
  }
  /// Hands out a private, mutable copy of the batch and leaves this block
  /// empty. Other holders of the shared body are unaffected.
  std::vector<types::Transaction> release_txs() {
    std::vector<types::Transaction> out = txs_.ToVector();
    set_txs({});
    return out;
  }

  /// Digest of the block body, i.e. the block's address. Memoized; valid
  /// until the next identity-field mutation.
  ///
  /// Identity = (n, prev_hash, transactions). The view is deliberately
  /// excluded (like PBFT's request digests): a new leader re-proposing an
  /// in-flight block in a higher view keeps the same block identity, so
  /// followers commit-bound to it by an earlier view still converge. QCs
  /// certify the block and are likewise not part of the address.
  const crypto::Sha256Digest& Digest() const {
    return cache_.Get([this] {
      types::HashingEncoder enc("txblock");
      enc.PutI64(n_).PutDigest(prev_hash_).PutDigest(types::BatchDigest(txs_));
      return enc.Digest();
    });
  }

  /// Number of transactions (the batch size beta of this block).
  size_t BatchSize() const { return txs_.size(); }

 private:
  types::SeqNum n_ = 0;
  crypto::Sha256Digest prev_hash_{};  ///< Address of the previous txBlock.
  types::TxBatch txs_;
  DigestCache cache_;
};

/// Digest signed in the ordering phase for block (v, n, body).
crypto::Sha256Digest OrderingDigest(types::View v, types::SeqNum n,
                                    const crypto::Sha256Digest& block_digest);

/// Digest signed in the commit phase for block (v, n, body).
crypto::Sha256Digest CommitDigest(types::View v, types::SeqNum n,
                                  const crypto::Sha256Digest& block_digest);

}  // namespace ledger
}  // namespace prestige

#endif  // PRESTIGE_LEDGER_TX_BLOCK_H_
