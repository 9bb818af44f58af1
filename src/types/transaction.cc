#include "types/transaction.h"

#include <iterator>

namespace prestige {
namespace types {

TxBatch::TxBatch(std::vector<Transaction> txs) {
  if (txs.empty()) return;
  body_ = std::make_shared<const Body>(std::make_move_iterator(txs.begin()),
                                       std::make_move_iterator(txs.end()));
}

crypto::Sha256Digest BatchDigest(const TxBatch& txs) {
  HashingEncoder enc("batch");
  enc.PutU64(txs.size());
  for (const Transaction& tx : txs) {
    enc.PutDigest(tx.Digest());
  }
  return enc.Digest();
}

}  // namespace types
}  // namespace prestige
