// Unit tests for src/crypto: SHA-256 (NIST KATs, streaming equivalence),
// hash accounting (CryptoMeter), HMAC-SHA256 (RFC 4231), simulated PKI
// signatures, quorum certificates, and the PoW puzzle.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/pow.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "util/hex.h"

namespace prestige {
namespace crypto {
namespace {

// --------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(DigestToHex(Sha256::Hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    h.Update(reinterpret_cast<const uint8_t*>(&c), 1);
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte message exercises the zero-remainder padding path.
  const std::string msg(64, 'x');
  const std::string msg2(128, 'x');
  EXPECT_NE(Sha256::Hash(msg), Sha256::Hash(msg2));
  // 55/56/57 bytes straddle the length-field boundary.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    Sha256 h;
    const std::string m(len, 'y');
    h.Update(m);
    EXPECT_EQ(h.Finish(), Sha256::Hash(m)) << "len=" << len;
  }
}

TEST(Sha256Test, ResetRestoresInitialState) {
  Sha256 h;
  h.Update(std::string("garbage"));
  h.Reset();
  h.Update(std::string("abc"));
  EXPECT_EQ(DigestToHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Streaming equivalence: for every message length 0..200 and every split
// point, two Update() calls produce the one-shot digest. The fold of all
// 201 one-shot digests is pinned to the value the previous in-tree
// SHA-256 implementation produced, so the digest engine can change
// underneath without moving a single protocol digest.
TEST(Sha256Test, EverySplitPointMatchesOneShot) {
  std::vector<uint8_t> msg(200);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  Sha256 fold;
  for (size_t len = 0; len <= msg.size(); ++len) {
    const Sha256Digest one_shot = Sha256::Hash(msg.data(), len);
    for (size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.Update(msg.data(), split);
      h.Update(msg.data() + split, len - split);
      ASSERT_EQ(h.Finish(), one_shot) << "len=" << len << " split=" << split;
    }
    fold.Update(one_shot.data(), one_shot.size());
  }
  EXPECT_EQ(DigestToHex(fold.Finish()),
            "f9be27f65ce096e9153691cee0f5949b0e477b1afb72e8fa01644e3860e834c5");
}

TEST(Sha256Test, CopiedHasherContinuesIndependently) {
  Sha256 a;
  a.Update(std::string("ab"));
  Sha256 b = a;
  a.Update(std::string("c"));
  b.Update(std::string("x"));
  EXPECT_EQ(a.Finish(), Sha256::Hash(std::string("abc")));
  EXPECT_EQ(b.Finish(), Sha256::Hash(std::string("abx")));
}

// ------------------------------------------------------------ CryptoMeter

TEST(CryptoMeterTest, CountsExactlyOnePerFinish) {
  CryptoMeter meter;
  const uint64_t total_before = Sha256::TotalFinished();
  {
    ScopedCryptoMeter scope(&meter);
    Sha256 h;
    for (int i = 0; i < 100; ++i) h.Update(std::string(70, 'z'));
    EXPECT_EQ(meter.finished, 0u);  // Updates are free.
    (void)h.Finish();
    EXPECT_EQ(meter.finished, 1u);
    h.Reset();
    EXPECT_EQ(meter.finished, 1u);  // So is Reset().
    (void)h.Finish();               // Empty message still counts once.
    (void)Sha256::Hash(std::string("abc"));
    EXPECT_EQ(meter.finished, 3u);
  }
  (void)Sha256::Hash(std::string("uncredited"));
  EXPECT_EQ(meter.finished, 3u);  // Scope ended: no longer credited.
  EXPECT_EQ(Sha256::TotalFinished() - total_before, 4u);
}

TEST(CryptoMeterTest, OnlyInnermostMeterIsCredited) {
  CryptoMeter outer, inner;
  {
    ScopedCryptoMeter o(&outer);
    (void)Sha256::Hash(std::string("a"));
    {
      ScopedCryptoMeter i(&inner);
      (void)Sha256::Hash(std::string("b"));
      (void)Sha256::Hash(std::string("c"));
    }
    (void)Sha256::Hash(std::string("d"));
  }
  EXPECT_EQ(outer.finished, 2u);
  EXPECT_EQ(inner.finished, 2u);
}

/// Hashes `fn` performs on this thread, as its own CryptoMeter sees them.
template <typename Fn>
uint64_t HashesOf(Fn&& fn) {
  CryptoMeter meter;
  ScopedCryptoMeter scope(&meter);
  fn();
  return meter.finished;
}

// Per-operation hash counts, pinned at the values of the previous in-tree
// SHA-256. The simulator's per-seed results include the run's hash count,
// so any change here is a determinism break, not a tuning knob.
TEST(CryptoMeterTest, PerOperationCountsArePinned) {
  constexpr uint64_t kHashesPerSign = 3;       // SecretKey + inner + outer.
  constexpr uint64_t kHashesPerVerify = 3;
  constexpr uint64_t kHashesPerHmacShortKey = 2;
  constexpr uint64_t kHashesPerHmacLongKey = 3;  // Key > 64 B is hashed.
  const KeyStore keys(42);
  const Sha256Digest digest = Sha256::Hash(std::string("block"));
  Signature sig;
  EXPECT_EQ(HashesOf([&] { sig = keys.Sign(3, digest); }), kHashesPerSign);
  EXPECT_EQ(HashesOf([&] { EXPECT_TRUE(keys.Verify(sig, digest)); }),
            kHashesPerVerify);
  const std::vector<uint8_t> msg(50, 0x01);
  auto hmac_hashes = [&msg](size_t key_len) {
    const std::vector<uint8_t> key(key_len, 0x0b);
    return HashesOf([&] { (void)HmacSha256(key, msg); });
  };
  EXPECT_EQ(hmac_hashes(16), kHashesPerHmacShortKey);
  EXPECT_EQ(hmac_hashes(64), kHashesPerHmacShortKey);
  EXPECT_EQ(hmac_hashes(100), kHashesPerHmacLongKey);
}

TEST(Sha256Test, LeadingZeroBitsCount) {
  Sha256Digest d{};
  d.fill(0);
  EXPECT_EQ(CountLeadingZeroBits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(CountLeadingZeroBits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(CountLeadingZeroBits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(CountLeadingZeroBits(d), 11);
}

// ------------------------------------------------------------------ HMAC

std::vector<uint8_t> Bytes(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

TEST(HmacTest, Rfc4231Case1) {
  const std::vector<uint8_t> key = Bytes(20, 0x0b);
  const std::string data = "Hi There";
  const Sha256Digest mac =
      HmacSha256(key, reinterpret_cast<const uint8_t*>(data.data()),
                 data.size());
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key_str = "Jefe";
  const std::vector<uint8_t> key(key_str.begin(), key_str.end());
  const std::string data = "what do ya want for nothing?";
  const Sha256Digest mac =
      HmacSha256(key, reinterpret_cast<const uint8_t*>(data.data()),
                 data.size());
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const std::vector<uint8_t> key = Bytes(20, 0xaa);
  const std::vector<uint8_t> data = Bytes(50, 0xdd);
  EXPECT_EQ(DigestToHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<uint8_t> key = Bytes(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Sha256Digest mac =
      HmacSha256(key, reinterpret_cast<const uint8_t*>(data.data()),
                 data.size());
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// -------------------------------------------------------------- Keys/PKI

TEST(KeysTest, SignVerifyRoundTrip) {
  KeyStore keys(42);
  const Sha256Digest msg = Sha256::Hash(std::string("hello"));
  const Signature sig = keys.Sign(3, msg);
  EXPECT_EQ(sig.signer, 3u);
  EXPECT_TRUE(keys.Verify(sig, msg));
}

TEST(KeysTest, VerifyRejectsWrongMessage) {
  KeyStore keys(42);
  const Signature sig = keys.Sign(3, Sha256::Hash(std::string("hello")));
  EXPECT_FALSE(keys.Verify(sig, Sha256::Hash(std::string("other"))));
}

TEST(KeysTest, VerifyRejectsImpersonation) {
  KeyStore keys(42);
  const Sha256Digest msg = Sha256::Hash(std::string("hello"));
  Signature sig = keys.Sign(3, msg);
  sig.signer = 4;  // Claim a different signer with node 3's MAC.
  EXPECT_FALSE(keys.Verify(sig, msg));
}

TEST(KeysTest, DistinctSeedsProduceDistinctSignatures) {
  KeyStore a(1), b(2);
  const Sha256Digest msg = Sha256::Hash(std::string("m"));
  EXPECT_NE(a.Sign(0, msg).mac, b.Sign(0, msg).mac);
}

TEST(KeysTest, SignerRestrictedToOwnId) {
  KeyStore keys(42);
  Signer signer(&keys, 7);
  const Sha256Digest msg = Sha256::Hash(std::string("x"));
  const Signature sig = signer.Sign(msg);
  EXPECT_EQ(sig.signer, 7u);
  EXPECT_TRUE(keys.Verify(sig, msg));
}

// ---------------------------------------------------------- Quorum certs

class QuorumCertTest : public ::testing::Test {
 protected:
  KeyStore keys_{99};
  Sha256Digest msg_ = Sha256::Hash(std::string("block digest"));
};

TEST_F(QuorumCertTest, BuildAtThreshold) {
  QuorumCertBuilder builder(msg_, 3);
  EXPECT_FALSE(builder.Complete());
  for (SignerId i = 0; i < 3; ++i) {
    EXPECT_TRUE(builder.Add(keys_.Sign(i, msg_), msg_));
  }
  EXPECT_TRUE(builder.Complete());
  const QuorumCert qc = builder.Build();
  EXPECT_EQ(qc.partials.size(), 3u);
  EXPECT_TRUE(VerifyQuorumCert(keys_, qc, msg_, 3).ok());
}

TEST_F(QuorumCertTest, RejectsDuplicateSigner) {
  QuorumCertBuilder builder(msg_, 3);
  EXPECT_TRUE(builder.Add(keys_.Sign(1, msg_), msg_));
  EXPECT_FALSE(builder.Add(keys_.Sign(1, msg_), msg_));
  EXPECT_EQ(builder.Count(), 1u);
}

TEST_F(QuorumCertTest, RejectsWrongDigest) {
  QuorumCertBuilder builder(msg_, 3);
  const Sha256Digest other = Sha256::Hash(std::string("other"));
  EXPECT_FALSE(builder.Add(keys_.Sign(1, other), other));
}

TEST_F(QuorumCertTest, VerifyRejectsTamperedPartial) {
  QuorumCertBuilder builder(msg_, 2);
  builder.Add(keys_.Sign(0, msg_), msg_);
  builder.Add(keys_.Sign(1, msg_), msg_);
  QuorumCert qc = builder.Build();
  qc.partials[0].mac[0] ^= 0xff;
  EXPECT_TRUE(
      VerifyQuorumCert(keys_, qc, msg_, 2).IsInvalidSignature());
}

TEST_F(QuorumCertTest, VerifyRejectsInsufficientThreshold) {
  QuorumCertBuilder builder(msg_, 2);
  builder.Add(keys_.Sign(0, msg_), msg_);
  builder.Add(keys_.Sign(1, msg_), msg_);
  const QuorumCert qc = builder.Build();
  // Protocol step demands 3 signers; this QC only proves 2.
  EXPECT_TRUE(VerifyQuorumCert(keys_, qc, msg_, 3).IsInvalidSignature());
}

TEST_F(QuorumCertTest, VerifyRejectsDigestMismatch) {
  QuorumCertBuilder builder(msg_, 2);
  builder.Add(keys_.Sign(0, msg_), msg_);
  builder.Add(keys_.Sign(1, msg_), msg_);
  const QuorumCert qc = builder.Build();
  const Sha256Digest other = Sha256::Hash(std::string("other"));
  EXPECT_TRUE(VerifyQuorumCert(keys_, qc, other, 2).IsInvalidSignature());
}

TEST_F(QuorumCertTest, VerifyRejectsEmpty) {
  QuorumCert qc;
  EXPECT_TRUE(VerifyQuorumCert(keys_, qc, msg_, 1).IsInvalidSignature());
}

TEST_F(QuorumCertTest, SignerIdsSortedCanonically) {
  QuorumCertBuilder builder(msg_, 3);
  builder.Add(keys_.Sign(5, msg_), msg_);
  builder.Add(keys_.Sign(1, msg_), msg_);
  builder.Add(keys_.Sign(3, msg_), msg_);
  const QuorumCert qc = builder.Build();
  const std::vector<SignerId> ids = qc.SignerIds();
  EXPECT_EQ(ids, (std::vector<SignerId>{1, 3, 5}));
}

// ------------------------------------------------------------------- PoW

TEST(PowTest, VerifyAcceptsRealSolution) {
  util::Rng rng(7);
  RealPowSolver solver;
  const Sha256Digest payload = Sha256::Hash(std::string("txblock"));
  auto sol = solver.Solve(payload, /*difficulty_bits=*/8, &rng);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(PowVerify(payload, sol->nonce, 8));
  EXPECT_GE(CountLeadingZeroBits(sol->hash), 8);
}

TEST(PowTest, VerifyRejectsWrongNonce) {
  const Sha256Digest payload = Sha256::Hash(std::string("txblock"));
  util::Rng rng(7);
  RealPowSolver solver;
  auto sol = solver.Solve(payload, 8, &rng);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(PowVerify(payload, sol->nonce + 1, 24));
}

TEST(PowTest, HigherDifficultyIsHarder) {
  util::Rng rng(11);
  RealPowSolver solver;
  const Sha256Digest payload = Sha256::Hash(std::string("p"));
  uint64_t iters_low = 0, iters_high = 0;
  const int kTrials = 20;
  for (int i = 0; i < kTrials; ++i) {
    iters_low += solver.Solve(payload, 4, &rng)->iterations;
    iters_high += solver.Solve(payload, 12, &rng)->iterations;
  }
  EXPECT_LT(iters_low, iters_high);
}

TEST(PowTest, ZeroDifficultySolvesImmediately) {
  util::Rng rng(13);
  RealPowSolver solver;
  auto sol = solver.Solve(Sha256::Hash(std::string("p")), 0, &rng);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->iterations, 1u);
}

TEST(PowTest, SolveTimesOutWhenExhausted) {
  util::Rng rng(17);
  RealPowSolver solver;
  auto sol = solver.Solve(Sha256::Hash(std::string("p")), 200, &rng,
                          /*max_iterations=*/10);
  EXPECT_TRUE(sol.status().IsTimedOut());
}

TEST(PowParamsTest, DifficultyScalesWithPenalty) {
  PowParams params;
  params.bits_per_unit = 4;
  EXPECT_EQ(params.DifficultyBits(1), 4);
  EXPECT_EQ(params.DifficultyBits(5), 20);
  EXPECT_EQ(params.DifficultyBits(0), 0);
  EXPECT_EQ(params.DifficultyBits(1000), 256);  // Clamped.
}

TEST(PowParamsTest, ExpectedTimeMatchesPaperScale) {
  // Paper §4.2.4: "< 20 ms for rp < 5" and "hours for rp > 8" with SHA-256.
  PowParams params;  // Defaults: 4 bits/unit, 3.3 MH/s.
  EXPECT_LT(params.ExpectedSolveMicros(4), util::Millis(25));
  EXPECT_GT(params.ExpectedSolveMicros(9), util::Seconds(3600));
}

TEST(ModeledPowTest, MeanIterationsNearExpectation) {
  PowParams params;
  ModeledPowSolver solver(params);
  util::Rng rng(19);
  double total = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    total += solver.SampleIterations(/*difficulty_bits=*/6, &rng);
  }
  // Geometric(p = 1/64) has mean 64.
  EXPECT_NEAR(total / kSamples, 64.0, 3.0);
}

TEST(ModeledPowTest, SolveTimePositiveAndMonotoneInDifficulty) {
  PowParams params;
  ModeledPowSolver solver(params);
  util::Rng rng(23);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 200; ++i) {
    low += solver.SampleSolveMicros(8, &rng);
    high += solver.SampleSolveMicros(24, &rng);
  }
  EXPECT_GT(low, 0);
  EXPECT_LT(low, high);
}

}  // namespace
}  // namespace crypto
}  // namespace prestige
