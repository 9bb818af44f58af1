#include "net/wire.h"

#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/messages.h"
#include "crypto/quorum_cert.h"
#include "ledger/tx_block.h"
#include "ledger/vc_block.h"
#include "types/client_messages.h"
#include "types/transaction.h"

namespace prestige {
namespace net {
namespace {

using baselines::hotstuff::HsNewViewMsg;
using baselines::hotstuff::HsPhase;
using baselines::hotstuff::HsPhaseMsg;
using baselines::hotstuff::HsProposalMsg;
using baselines::hotstuff::HsVoteMsg;
using baselines::sbft::SbPrePrepareMsg;
using baselines::sbft::SbProofMsg;
using baselines::sbft::SbShareMsg;

// ------------------------------------------------------------- list caps

/// Hostile-input caps of one list, keyed by element type: the most
/// elements it may hold and the fewest wire bytes one element occupies.
struct Cap {
  uint64_t max_count;
  uint64_t min_bytes;
};
// 4-byte signer + 32-byte MAC.
constexpr Cap CapOf(const crypto::Signature*) { return {kMaxWirePartials, 36}; }
// Fixed fields + command length prefix.
constexpr Cap CapOf(const types::Transaction*) { return {kMaxWireTxs, 40}; }
constexpr Cap CapOf(const types::ReplyEntry*) { return {kMaxWireEntries, 22}; }
constexpr Cap CapOf(const ledger::TxBlock*) { return {kMaxWireBlocks, 80}; }
constexpr Cap CapOf(const ledger::VcBlock*) { return {kMaxWireBlocks, 60}; }
// rp/ci entry: 4-byte id + 8-byte value.
constexpr Cap CapOf(const std::pair<const types::ReplicaId, int64_t>*) {
  return {kMaxWireMapEntries, 12};
}

// --------------------------------------------------------------- visitors
//
// The schema Fields(f, m) below hands the fields of m to the visitor f in
// wire order. Plain fields go through f(...), with the wire width of the
// field's C++ type; a field with a hostile-input bound goes through a named
// wrapper, which Encode writes and Decode enforces. Decode checks a bound
// on the full wire-width value, before any narrowing.

/// Writes each field to a Writer.
class Encode {
 public:
  explicit Encode(Writer& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... fields) {
    (One(fields), ...);
  }
  /// u32 length + bytes; decode rejects more than `max` bytes.
  void Bytes(const std::vector<uint8_t>& v, uint64_t /*max*/) {
    w_.PutBytes(v);
  }
  /// One byte (an enum or a flag); decode rejects values above `max`.
  template <class E>
  void Enum(const E& v, E /*max*/) {
    w_.PutU8(static_cast<uint8_t>(v));
  }
  /// Travels as `Wire`; decode rejects wire values outside [lo, hi].
  template <class T, class Wire>
  void Ranged(const T& v, Wire /*lo*/, Wire /*hi*/) {
    One(static_cast<Wire>(v));
  }
  /// u32 clamped to `max`; decode rejects values above `max`.
  void Clamped(size_t v, uint64_t max) {
    w_.PutU32(static_cast<uint32_t>(v > max ? max : v));
  }
  /// A field behind a getter/setter pair.
  template <class B, class Get, class Set>
  void Prop(const B& b, Get get, Set /*set*/) {
    One(std::invoke(get, b));
  }

 private:
  void One(uint8_t v) { w_.PutU8(v); }
  void One(uint32_t v) { w_.PutU32(v); }
  void One(uint64_t v) { w_.PutU64(v); }
  void One(int64_t v) { w_.PutI64(v); }
  void One(const crypto::Sha256Digest& d) { w_.PutDigest(d); }
  template <class K, class V>
  void One(const std::pair<K, V>& entry) {
    One(entry.first);
    One(entry.second);
  }
  void One(const types::TxBatch& list) { List(list); }
  template <class T>
  void One(const std::vector<T>& list) {
    List(list);
  }
  template <class K, class V>
  void One(const std::map<K, V>& list) {
    List(list);
  }
  template <class T>
  void One(const T& composite) {
    Fields(*this, composite);
  }
  template <class L>
  void List(const L& list) {
    w_.PutU32(static_cast<uint32_t>(list.size()));
    for (const auto& e : list) One(e);
  }

  Writer& w_;
};

/// Reads each field from a Reader; a failed bound latches the Reader.
class Decode {
 public:
  explicit Decode(Reader& r) : r_(r) {}

  template <class... T>
  void operator()(T&... fields) {
    (One(fields), ...);
  }
  void Bytes(std::vector<uint8_t>& v, uint64_t max) { v = r_.Bytes(max); }
  template <class E>
  void Enum(E& v, E max) {
    const uint8_t raw = r_.U8();
    if (raw > static_cast<uint8_t>(max)) r_.Fail();
    v = static_cast<E>(raw);
  }
  template <class T, class Wire>
  void Ranged(T& v, Wire lo, Wire hi) {
    Wire raw{};
    One(raw);
    if (raw < lo || raw > hi) r_.Fail();
    v = r_.ok() ? static_cast<T>(raw) : T{};
  }
  void Clamped(size_t& v, uint64_t max) {
    v = r_.U32();
    if (v > max) r_.Fail();
  }
  template <class B, class Get, class Set>
  void Prop(B& b, Get /*get*/, Set set) {
    std::decay_t<std::invoke_result_t<Get, const B&>> v{};
    One(v);
    std::invoke(set, b, std::move(v));
  }

 private:
  void One(uint8_t& v) { v = r_.U8(); }
  void One(uint32_t& v) { v = r_.U32(); }
  void One(uint64_t& v) { v = r_.U64(); }
  void One(int64_t& v) { v = r_.I64(); }
  void One(crypto::Sha256Digest& d) { d = r_.Digest(); }
  void One(types::TxBatch& list) {
    std::vector<types::Transaction> txs;
    One(txs);
    list = std::move(txs);
  }
  template <class T>
  void One(std::vector<T>& list) {
    const uint64_t n = Count<T>();
    list.reserve(n);
    for (uint64_t i = 0; i < n && r_.ok(); ++i) One(list.emplace_back());
  }
  template <class K, class V>
  void One(std::map<K, V>& list) {
    const uint64_t n = Count<typename std::map<K, V>::value_type>();
    for (uint64_t i = 0; i < n && r_.ok(); ++i) {
      K key{};
      One(key);
      One(list[key]);  // A repeated key keeps its last value.
    }
  }
  template <class T>
  void One(T& composite) {
    Fields(*this, composite);
  }
  template <class T>
  uint64_t Count() {
    const Cap cap = CapOf(static_cast<const T*>(nullptr));
    return r_.Count(cap.max_count, cap.min_bytes);
  }

  Reader& r_;
};

// ----------------------------------------------------------------- schema

template <class M, class T>
constexpr bool kIs = std::is_same_v<std::remove_const_t<M>, T>;

/// The schema of every wire type: its fields, in wire order. M is const
/// under Encode and mutable under Decode.
template <class F, class M>
void Fields(F& f, M& m) {
  if constexpr (kIs<M, crypto::Signature>) {
    f(m.signer, m.mac);
  } else if constexpr (kIs<M, crypto::QuorumCert>) {
    f(m.digest, m.threshold, m.partials);
  } else if constexpr (kIs<M, types::Transaction>) {
    f(m.pool, m.client_seq, m.group, m.sent_at);
    f.Ranged(m.payload_size, uint32_t{0}, uint32_t{1} << 30);
    f(m.fingerprint);
    f.Bytes(m.command, kMaxWireCommand);
  } else if constexpr (kIs<M, types::ReplyEntry>) {
    f(m.client_seq, m.status);
    f.Enum(m.duplicate, true);
    f(m.result_digest);
    f.Bytes(m.result, kMaxWireResult);
  } else if constexpr (kIs<M, ledger::TxBlock>) {
    using ledger::TxBlock;
    f(m.v);
    f.Prop(m, &TxBlock::n, &TxBlock::set_n);
    f.Prop(m, &TxBlock::prev_hash, &TxBlock::set_prev_hash);
    f.Prop(m, &TxBlock::txs, &TxBlock::set_txs);
    f.Bytes(m.status, kMaxWireStatus);
    f(m.ordering_qc, m.commit_qc);
  } else if constexpr (kIs<M, ledger::VcBlock>) {
    using ledger::VcBlock;
    f.Prop(m, &VcBlock::v, &VcBlock::set_v);
    f.Prop(m, &VcBlock::leader, &VcBlock::set_leader);
    f.Prop(m, &VcBlock::confirmed_view, &VcBlock::set_confirmed_view);
    f.Prop(m, &VcBlock::prev_hash, &VcBlock::set_prev_hash);
    f.Prop(m, &VcBlock::rp, [](VcBlock& b, const auto& rp) {
      for (const auto& [id, penalty] : rp) b.SetPenalty(id, penalty);
    });
    f.Prop(m, &VcBlock::ci, [](VcBlock& b, const auto& ci) {
      for (const auto& [id, index] : ci) b.SetCompensation(id, index);
    });
    f(m.conf_qc, m.vc_qc);
  } else if constexpr (kIs<M, core::OrdMsg>) {
    f(m.v, m.n, m.prev_hash, m.txs, m.sig);
  } else if constexpr (kIs<M, core::OrdReplyMsg>) {
    f(m.v, m.n, m.partial);
  } else if constexpr (kIs<M, core::CmtMsg>) {
    f(m.v, m.n, m.block_digest, m.ordering_qc, m.sig);
  } else if constexpr (kIs<M, core::CmtReplyMsg>) {
    f(m.v, m.n, m.partial);
  } else if constexpr (kIs<M, core::TxBlockMsg>) {
    f(m.block);
  } else if constexpr (kIs<M, core::ComptRelayMsg>) {
    f(m.tx, m.sig);
  } else if constexpr (kIs<M, core::ConfVcMsg>) {
    f(m.v);
    f.Enum(m.reason, core::VcReason::kPolicy);
    f(m.tx, m.sig);
  } else if constexpr (kIs<M, core::ReVcMsg>) {
    f(m.v, m.partial);
  } else if constexpr (kIs<M, core::CampMsg>) {
    f(m.conf_qc, m.v, m.v_new, m.rp, m.ci, m.nonce, m.hash_result);
    f.Ranged(m.claimed_difficulty_bits, int64_t{0}, int64_t{256});
    f(m.latest_tx_block, m.latest_n, m.latest_vc_view, m.sig);
  } else if constexpr (kIs<M, core::VoteCpMsg>) {
    f(m.v_new, m.candidate, m.partial);
  } else if constexpr (kIs<M, core::VcBlockMsg>) {
    f(m.block);
  } else if constexpr (kIs<M, core::VcYesMsg>) {
    f(m.v, m.latest_n, m.partial);
  } else if constexpr (kIs<M, core::RefMsg>) {
    f(m.v, m.sig);
  } else if constexpr (kIs<M, core::RefReplyMsg>) {
    f(m.target, m.v, m.partial);
  } else if constexpr (kIs<M, core::RdoneMsg>) {
    f(m.target, m.v, m.rs_qc, m.sig);
  } else if constexpr (kIs<M, core::SyncReqMsg>) {
    f.Enum(m.kind, core::SyncReqMsg::Kind::kVcBlocks);
    f(m.after, m.up_to);
  } else if constexpr (kIs<M, core::SyncRespMsg>) {
    f(m.tx_blocks, m.vc_blocks);
  } else if constexpr (kIs<M, core::HeartbeatMsg>) {
    f(m.v, m.latest_n, m.sig);
  } else if constexpr (kIs<M, core::NoiseMsg>) {
    // Modelled size only — the junk bytes themselves are not materialised.
    f.Clamped(m.bytes, kMaxWireNoise);
  } else if constexpr (kIs<M, types::ClientBatch>) {
    f(m.txs);
  } else if constexpr (kIs<M, types::ClientReply>) {
    f(m.replica, m.v, m.n, m.pool, m.entries);
  } else if constexpr (kIs<M, types::ClientComplaint>) {
    f(m.tx);
  } else if constexpr (kIs<M, HsProposalMsg>) {
    f(m.v, m.block, m.sig);
  } else if constexpr (kIs<M, HsVoteMsg>) {
    f(m.v);
    f.Enum(m.phase, HsPhase::kDecide);
    f(m.n, m.block_digest, m.partial);
  } else if constexpr (kIs<M, HsPhaseMsg>) {
    f(m.v);
    f.Enum(m.phase, HsPhase::kDecide);
    f(m.n, m.block_digest, m.justify, m.sig);
  } else if constexpr (kIs<M, HsNewViewMsg>) {
    f(m.v, m.latest_n, m.sig);
  } else if constexpr (kIs<M, SbPrePrepareMsg>) {
    f(m.v, m.block, m.sig);
    f.Ranged(m.crypto_weight, int64_t{0}, int64_t{1} << 16);
  } else if constexpr (kIs<M, SbShareMsg>) {
    f.Enum(m.stage, SbShareMsg::Stage::kExecute);
    f(m.v, m.n, m.partial);
  } else if constexpr (kIs<M, SbProofMsg>) {
    f.Enum(m.stage, SbProofMsg::Stage::kExecute);
    f(m.v, m.n, m.block_digest, m.proof, m.sig);
  } else {
    static_assert(!sizeof(M), "type has no wire schema");
  }
}

// ------------------------------------------------------------- kind table

/// One wire kind: message type M travels under kind byte K.
template <class M, MsgKind K>
struct Row {
  /// Writes kind byte + body when msg's dynamic type is exactly M.
  static bool EncodeIf(const runtime::NetMessage& msg, Writer& w) {
    if (typeid(msg) != typeid(M)) return false;
    w.PutU8(static_cast<uint8_t>(K));
    Encode{w}(static_cast<const M&>(msg));
    return true;
  }
  /// Reads an M body when `kind` is K; nullptr otherwise.
  static runtime::MessagePtr DecodeIf(uint8_t kind, Reader& r) {
    if (kind != static_cast<uint8_t>(K)) return nullptr;
    auto m = std::make_shared<M>();
    Decode{r}(*m);
    return m;
  }
};

template <class... Rows>
struct KindTable {
  static bool EncodeAny(const runtime::NetMessage& msg, Writer& w) {
    return (Rows::EncodeIf(msg, w) || ...);
  }
  static runtime::MessagePtr DecodeAny(uint8_t kind, Reader& r) {
    runtime::MessagePtr m;
    (void)((m = Rows::DecodeIf(kind, r)) || ...);
    return m;
  }
};

/// Every message with a wire form. Adding one = a branch in Fields above
/// plus one row here. client::SubmitRequestMsg (a closure carrier) has no row:
/// EncodeMessage refuses it and the runtime delivers it locally.
using Kinds = KindTable<
    // PrestigeBFT (core/messages.h).
    Row<core::OrdMsg, MsgKind::kOrd>,
    Row<core::OrdReplyMsg, MsgKind::kOrdReply>,
    Row<core::CmtMsg, MsgKind::kCmt>,
    Row<core::CmtReplyMsg, MsgKind::kCmtReply>,
    Row<core::TxBlockMsg, MsgKind::kTxBlock>,
    Row<core::ComptRelayMsg, MsgKind::kComptRelay>,
    Row<core::ConfVcMsg, MsgKind::kConfVc>,
    Row<core::ReVcMsg, MsgKind::kReVc>,
    Row<core::CampMsg, MsgKind::kCamp>,
    Row<core::VoteCpMsg, MsgKind::kVoteCp>,
    Row<core::VcBlockMsg, MsgKind::kVcBlock>,
    Row<core::VcYesMsg, MsgKind::kVcYes>,
    Row<core::RefMsg, MsgKind::kRef>,
    Row<core::RefReplyMsg, MsgKind::kRefReply>,
    Row<core::RdoneMsg, MsgKind::kRdone>,
    Row<core::SyncReqMsg, MsgKind::kSyncReq>,
    Row<core::SyncRespMsg, MsgKind::kSyncResp>,
    Row<core::HeartbeatMsg, MsgKind::kHeartbeat>,
    Row<core::NoiseMsg, MsgKind::kNoise>,
    // Client plane (types/client_messages.h).
    Row<types::ClientBatch, MsgKind::kClientBatch>,
    Row<types::ClientReply, MsgKind::kClientReply>,
    Row<types::ClientComplaint, MsgKind::kClientComplaint>,
    // HotStuff baseline.
    Row<HsProposalMsg, MsgKind::kHsProposal>,
    Row<HsVoteMsg, MsgKind::kHsVote>,
    Row<HsPhaseMsg, MsgKind::kHsPhase>,
    Row<HsNewViewMsg, MsgKind::kHsNewView>,
    // SBFT baseline.
    Row<SbPrePrepareMsg, MsgKind::kSbPrePrepare>,
    Row<SbShareMsg, MsgKind::kSbShare>,
    Row<SbProofMsg, MsgKind::kSbProof>>;

}  // namespace

bool EncodeMessage(const runtime::NetMessage& msg, std::vector<uint8_t>* out) {
  Writer w;
  if (!Kinds::EncodeAny(msg, w)) return false;
  const std::vector<uint8_t>& body = w.data();
  out->insert(out->end(), body.begin(), body.end());
  return true;
}

runtime::MessagePtr DecodeMessage(const uint8_t* data, size_t len) {
  if (data == nullptr || len == 0) return nullptr;
  Reader r(data + 1, len - 1);
  runtime::MessagePtr msg = Kinds::DecodeAny(data[0], r);
  if (msg == nullptr || !r.ok() || r.remaining() != 0) return nullptr;
  return msg;
}

}  // namespace net
}  // namespace prestige
