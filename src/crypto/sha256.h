// SHA-256 (FIPS 180-4) over OpenSSL libcrypto's compression function.
//
// Used for block digests, HMAC-SHA256 (simulated signatures), and the
// view-change proof-of-work puzzle (§4.2.2 of the paper). Verified against
// NIST known-answer test vectors in tests/crypto_test.cc.
//
// This class is the only way into the digest engine: libcrypto is linked
// statically and <openssl/*> is included only by sha256.cc (enforced by the
// prestige_lint `crypto-lib` rule), so every digest in the system passes
// through Finish() and is credited to the active CryptoMeter.

#ifndef PRESTIGE_CRYPTO_SHA256_H_
#define PRESTIGE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace prestige {
namespace crypto {

/// A 32-byte SHA-256 digest.
using Sha256Digest = std::array<uint8_t, 32>;

/// Hash-cost accounting for one unit of work (one seed run, one bench).
///
/// Replaces the old process-wide Sha256 counter, which assumed a
/// single-threaded simulation: with parallel seed sweeps, several
/// independent Simulator instances hash concurrently on different threads,
/// and a process-global counter could no longer attribute work to a run.
/// Install a meter with ScopedCryptoMeter; every Finish() on that thread is
/// then credited to it. Counts are deterministic per (spec, config, seed).
struct CryptoMeter {
  uint64_t finished = 0;  ///< Completed SHA-256 computations (Finish calls).
};

/// RAII installer: redirects this thread's hash accounting to `meter` for
/// the scope's lifetime, restoring the previous meter (if any) on exit.
/// Scopes nest; only the innermost meter is credited.
class ScopedCryptoMeter {
 public:
  explicit ScopedCryptoMeter(CryptoMeter* meter);
  ~ScopedCryptoMeter();

  ScopedCryptoMeter(const ScopedCryptoMeter&) = delete;
  ScopedCryptoMeter& operator=(const ScopedCryptoMeter&) = delete;

 private:
  CryptoMeter* prev_;
};

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.Update(data, len);
///   Sha256Digest d = h.Finish();
///
/// Finish() may be called once; use Reset() to reuse the object.
class Sha256 {
 public:
  Sha256() { Reset(); }

  /// Restores the initial hash state (also required after Finish()).
  void Reset();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }
  void Update(const std::string& data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  /// Pads, finalizes, and returns the digest.
  Sha256Digest Finish();

  /// Cumulative count of completed SHA-256 computations on the calling
  /// thread. Thread-local (not process-wide): with parallel seed sweeps,
  /// per-run attribution goes through CryptoMeter; this counter remains as
  /// the whole-thread total, and in a single-threaded run the per-run
  /// meters sum exactly to its delta (asserted by
  /// tests/parallel_sweep_test.cc).
  static uint64_t TotalFinished();

  /// One-shot convenience.
  static Sha256Digest Hash(const uint8_t* data, size_t len);
  static Sha256Digest Hash(const std::vector<uint8_t>& data) {
    return Hash(data.data(), data.size());
  }
  static Sha256Digest Hash(const std::string& data) {
    return Hash(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

 private:
  /// Storage for libcrypto's SHA256_CTX, kept opaque so no OpenSSL header
  /// leaks into includers; sha256.cc static_asserts that the context fits.
  /// The context is plain data, so hashers stay trivially copyable.
  static constexpr size_t kCtxBytes = 112;
  alignas(8) unsigned char ctx_[kCtxBytes];
};

/// Lower-case hex rendering of a digest.
std::string DigestToHex(const Sha256Digest& digest);

/// Number of leading zero *bits* in the digest (PoW difficulty check).
int CountLeadingZeroBits(const Sha256Digest& digest);

}  // namespace crypto
}  // namespace prestige

#endif  // PRESTIGE_CRYPTO_SHA256_H_
