// HMAC-SHA256 (RFC 2104), built on crypto::Sha256.
//
// Backs the simulated signature scheme: in this reproduction a "signature"
// is an HMAC over the canonical message digest under the signer's secret key
// (see DESIGN.md §4 for why this substitution preserves protocol behaviour).

#ifndef PRESTIGE_CRYPTO_HMAC_H_
#define PRESTIGE_CRYPTO_HMAC_H_

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace prestige {
namespace crypto {

/// Computes HMAC-SHA256(key, message).
Sha256Digest HmacSha256(const std::vector<uint8_t>& key, const uint8_t* data,
                        size_t len);

inline Sha256Digest HmacSha256(const std::vector<uint8_t>& key,
                               const std::vector<uint8_t>& data) {
  return HmacSha256(key, data.data(), data.size());
}

inline Sha256Digest HmacSha256(const std::vector<uint8_t>& key,
                               const Sha256Digest& digest) {
  return HmacSha256(key, digest.data(), digest.size());
}

}  // namespace crypto
}  // namespace prestige

#endif  // PRESTIGE_CRYPTO_HMAC_H_
