#include "crypto/sha256.h"

// The low-level SHA256_Init/Update/Final API is deprecated in OpenSSL 3
// in favour of EVP, but it is the fast path here: no per-hasher context
// allocation and no provider dispatch (about 160 ns vs 250 ns per
// transaction digest on an x86-64 host with SHA-NI). Suppress the
// deprecation attributes for this translation unit only.
#define OPENSSL_SUPPRESS_DEPRECATED
#include <openssl/sha.h>

#include <new>

#include "util/hex.h"

namespace prestige {
namespace crypto {

namespace {

// Hash accounting. Thread-local on purpose: parallel seed sweeps run one
// Simulator per worker thread, and per-run attribution must not race or
// bleed across runs. t_active is the innermost installed CryptoMeter (or
// null); t_total_finished is the thread's cumulative count backing
// Sha256::TotalFinished().
thread_local uint64_t t_total_finished = 0;
thread_local CryptoMeter* t_active_meter = nullptr;

SHA256_CTX* Ctx(unsigned char* storage) {
  return std::launder(reinterpret_cast<SHA256_CTX*>(storage));
}

}  // namespace

ScopedCryptoMeter::ScopedCryptoMeter(CryptoMeter* meter)
    : prev_(t_active_meter) {
  t_active_meter = meter;
}

ScopedCryptoMeter::~ScopedCryptoMeter() { t_active_meter = prev_; }

void Sha256::Reset() {
  static_assert(sizeof(SHA256_CTX) <= kCtxBytes,
                "Sha256::ctx_ too small for SHA256_CTX");
  static_assert(alignof(SHA256_CTX) <= 8, "Sha256::ctx_ under-aligned");
  SHA256_Init(new (ctx_) SHA256_CTX);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  // Zero-length updates may legitimately carry data == nullptr (e.g. an
  // empty command payload streamed through HashingEncoder).
  if (len == 0) return;
  SHA256_Update(Ctx(ctx_), data, len);
}

uint64_t Sha256::TotalFinished() { return t_total_finished; }

Sha256Digest Sha256::Finish() {
  ++t_total_finished;
  if (t_active_meter != nullptr) ++t_active_meter->finished;
  Sha256Digest out;
  SHA256_Final(out.data(), Ctx(ctx_));
  return out;
}

Sha256Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

std::string DigestToHex(const Sha256Digest& digest) {
  return util::HexEncode(digest.data(), digest.size());
}

int CountLeadingZeroBits(const Sha256Digest& digest) {
  int bits = 0;
  for (uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if ((byte >> b) & 1) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace crypto
}  // namespace prestige
