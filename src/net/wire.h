// Wire codec for the socket backend: every runtime::NetMessage that can
// legitimately cross a process boundary gets a byte-exact encoding, and the
// decode path treats its input as hostile.
//
// wire.cc lists each wire type's fields once, in wire order, in the schema
// `Fields(f, m)`; an Encode visitor (over Writer) and a Decode visitor (over
// Reader) walk that one list, and one (type, MsgKind) table drives both
// dispatches. Hostile-input bounds are typed wrappers inside the schema.
// Adding a message means one Fields branch plus one table row. Rules:
//   * bounds-checked reads only — a net::Reader carries an ok() flag that
//     latches false on the first out-of-range read and poisons every
//     subsequent accessor, so decoders never branch on uninitialised data;
//   * every length prefix is validated against both a per-field cap
//     (kMax... constants below) and the bytes actually remaining, so a
//     hostile count can neither overflow a vector reserve nor force a
//     multi-gigabyte allocation;
//   * DecodeMessage returns nullptr on any malformation (unknown kind,
//     truncation, oversized field, trailing bytes) — the caller counts the
//     drop; partial objects are never visible to protocol code;
//   * messages that exist only for in-process marshalling (the client's
//     SubmitRequestMsg closure carrier) have no wire form: EncodeMessage
//     returns false and the runtime falls back to local delivery.
//
// This codec is deliberately distinct from types::Encoder (codec.h): that
// family exists for domain-separated *hashing* with a globally unique tag
// registry; this one is a plain little-endian transport serializer whose
// output is never hashed or signed directly.

#ifndef PRESTIGE_NET_WIRE_H_
#define PRESTIGE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/sha256.h"
#include "runtime/message.h"

namespace prestige {
namespace net {

// Hostile-input caps. Generous relative to every real workload (batches top
// out in the low thousands), tight relative to memory exhaustion.
constexpr uint64_t kMaxWireTxs = 1 << 16;       ///< Txs per batch / block.
constexpr uint64_t kMaxWireCommand = 1 << 20;   ///< Command bytes per tx.
constexpr uint64_t kMaxWirePartials = 1 << 12;  ///< Signatures per QC.
constexpr uint64_t kMaxWireStatus = 1 << 20;    ///< Status bytes per block.
constexpr uint64_t kMaxWireBlocks = 1 << 13;    ///< Blocks per SyncResp.
constexpr uint64_t kMaxWireEntries = 1 << 16;   ///< Entries per ClientReply.
constexpr uint64_t kMaxWireResult = 1 << 20;    ///< Result bytes per entry.
constexpr uint64_t kMaxWireMapEntries = 1 << 12;  ///< rp/ci map entries.
constexpr uint64_t kMaxWireNoise = 1 << 20;     ///< Modelled noise bytes.

/// Little-endian byte writer (transport serialization only — see header
/// comment for why this is not a types::Encoder).
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutI64(int64_t v) { PutLe(static_cast<uint64_t>(v), 8); }
  void PutDigest(const crypto::Sha256Digest& d) {
    buf_.insert(buf_.end(), d.begin(), d.end());
  }
  /// u32 length prefix + raw bytes.
  void PutBytes(const std::vector<uint8_t>& bytes) {
    PutU32(static_cast<uint32_t>(bytes.size()));
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over untrusted bytes. Accessors
/// return 0 / empty once ok() is false; callers check ok() exactly once at
/// the end of a decode instead of after every field.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8() { return static_cast<uint8_t>(Le(1)); }
  uint16_t U16() { return static_cast<uint16_t>(Le(2)); }
  uint32_t U32() { return static_cast<uint32_t>(Le(4)); }
  uint64_t U64() { return Le(8); }
  int64_t I64() { return static_cast<int64_t>(Le(8)); }

  crypto::Sha256Digest Digest() {
    crypto::Sha256Digest d{};
    if (!Need(d.size())) return d;
    std::memcpy(d.data(), data_ + pos_, d.size());
    pos_ += d.size();
    return d;
  }

  /// u32 length prefix + raw bytes, rejecting lengths above `max_len` or
  /// beyond the remaining input.
  std::vector<uint8_t> Bytes(uint64_t max_len) {
    const uint32_t n = U32();
    if (!ok_ || n > max_len || !Need(n)) {
      ok_ = false;
      return {};
    }
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  /// u32 element-count prefix capped at `max_count`; also rejects counts
  /// that could not possibly fit in the remaining bytes (each element needs
  /// at least `min_element_bytes`), so a hostile count cannot drive a huge
  /// loop or allocation.
  uint64_t Count(uint64_t max_count, uint64_t min_element_bytes = 1) {
    const uint32_t n = U32();
    if (!ok_ || n > max_count ||
        static_cast<uint64_t>(n) * min_element_bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
  void Fail() { ok_ = false; }

 private:
  bool Need(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint64_t Le(int bytes) {
    if (!Need(static_cast<size_t>(bytes))) return 0;
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Wire discriminator: first byte of every encoded message. Values are
/// frozen — append, never renumber.
enum class MsgKind : uint8_t {
  // PrestigeBFT (core/messages.h).
  kOrd = 1,
  kOrdReply = 2,
  kCmt = 3,
  kCmtReply = 4,
  kTxBlock = 5,
  kComptRelay = 6,
  kConfVc = 7,
  kReVc = 8,
  kCamp = 9,
  kVoteCp = 10,
  kVcBlock = 11,
  kVcYes = 12,
  kRef = 13,
  kRefReply = 14,
  kRdone = 15,
  kSyncReq = 16,
  kSyncResp = 17,
  kHeartbeat = 18,
  kNoise = 19,
  // Client plane (types/client_messages.h).
  kClientBatch = 32,
  kClientReply = 33,
  kClientComplaint = 34,
  // HotStuff baseline.
  kHsProposal = 48,
  kHsVote = 49,
  kHsPhase = 50,
  kHsNewView = 51,
  // SBFT baseline.
  kSbPrePrepare = 64,
  kSbShare = 65,
  kSbProof = 66,
};

/// Appends the full wire form (kind byte + body) of `msg` to `out`.
/// Returns false when the concrete type has no wire encoding (in-process
/// marshal messages) — the caller decides between local delivery and drop.
bool EncodeMessage(const runtime::NetMessage& msg, std::vector<uint8_t>* out);

/// Decodes one message from untrusted bytes. Returns nullptr on ANY
/// malformation: unknown kind, truncation, field over its cap, out-of-range
/// enum value, or trailing bytes after a complete body. Never throws, never
/// reads out of range, never returns a partially initialised message.
runtime::MessagePtr DecodeMessage(const uint8_t* data, size_t len);

}  // namespace net
}  // namespace prestige

#endif  // PRESTIGE_NET_WIRE_H_
