#include "harness/invariants.h"

#include <cstdarg>
#include <cstdio>

#include "util/hex.h"

namespace prestige {
namespace harness {

bool LedgerSweep::Fail(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  report_.ok = false;
  report_.violation = buf;
  return false;
}

bool LedgerSweep::Add(uint32_t replica, const LedgerReport& ledger) {
  const auto height = static_cast<types::SeqNum>(ledger.chain.size());
  if (first_ || height < report_.min_height) report_.min_height = height;
  if (first_ || height > report_.max_height) report_.max_height = height;
  first_ = false;

  // 1 + 2. Agreement at every height.
  if (reference_.size() < ledger.chain.size()) {
    reference_.resize(ledger.chain.size());
  }
  for (size_t k = 0; k < ledger.chain.size(); ++k) {
    const LedgerReport::Block& block = ledger.chain[k];
    Reference& reference = reference_[k];
    if (reference.digest == crypto::Sha256Digest{}) {
      reference = Reference{block.digest, replica};
    } else if (reference.digest != block.digest) {
      return Fail("conflicting txBlocks at n=%lld: replica %u has %s…, "
                  "replica %u has %s…",
                  static_cast<long long>(block.n), reference.owner,
                  util::HexEncode(reference.digest.data(), 4).c_str(),
                  replica, util::HexEncode(block.digest.data(), 4).c_str());
    }
  }

  // 3. Execution-result agreement among replicas at this chain height.
  report_.executed_total += ledger.executed;
  report_.duplicates_total += ledger.duplicates;
  const auto [it, first_at_height] = exec_reference_.try_emplace(
      height, ExecReference{ledger.state_digest, ledger.executed, replica});
  const ExecReference& exec = it->second;
  if (!first_at_height && (exec.state_digest != ledger.state_digest ||
                           exec.executed != ledger.executed)) {
    return Fail("divergent execution at height %lld: replica %u "
                "(digest=%016llx, executed=%lld) vs replica %u "
                "(digest=%016llx, executed=%lld)",
                static_cast<long long>(height), exec.owner,
                static_cast<unsigned long long>(exec.state_digest),
                static_cast<long long>(exec.executed), replica,
                static_cast<unsigned long long>(ledger.state_digest),
                static_cast<long long>(ledger.executed));
  }

  // 4. Conservation: every committed transaction either executed exactly
  // once or was suppressed as a session duplicate — never both, never
  // neither.
  int64_t chain_txs = 0;
  for (const LedgerReport::Block& block : ledger.chain) chain_txs += block.txs;
  if (ledger.executed + ledger.duplicates != chain_txs) {
    return Fail("execution count mismatch on replica %u: chain carries "
                "%lld txs but executed=%lld + duplicates=%lld",
                replica, static_cast<long long>(chain_txs),
                static_cast<long long>(ledger.executed),
                static_cast<long long>(ledger.duplicates));
  }
  return true;
}

}  // namespace harness
}  // namespace prestige
