#include "net/wire.h"

#include <memory>
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

// ------------------------------------------------------------- components

void PutSig(Writer& w, const crypto::Signature& sig) {
  w.PutU32(sig.signer);
  w.PutDigest(sig.mac);
}

crypto::Signature GetSig(Reader& r) {
  crypto::Signature sig;
  sig.signer = r.U32();
  sig.mac = r.Digest();
  return sig;
}

void PutQc(Writer& w, const crypto::QuorumCert& qc) {
  w.PutDigest(qc.digest);
  w.PutU32(qc.threshold);
  w.PutU32(static_cast<uint32_t>(qc.partials.size()));
  for (const crypto::Signature& sig : qc.partials) PutSig(w, sig);
}

crypto::QuorumCert GetQc(Reader& r) {
  crypto::QuorumCert qc;
  qc.digest = r.Digest();
  qc.threshold = r.U32();
  // One partial = 4-byte signer + 32-byte MAC.
  const uint64_t count = r.Count(kMaxWirePartials, 36);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    qc.partials.push_back(GetSig(r));
  }
  return qc;
}

void PutTx(Writer& w, const types::Transaction& tx) {
  w.PutU32(tx.pool);
  w.PutU64(tx.client_seq);
  w.PutU32(tx.group);
  w.PutI64(tx.sent_at);
  w.PutU32(tx.payload_size);
  w.PutU64(tx.fingerprint);
  w.PutBytes(tx.command);
}

types::Transaction GetTx(Reader& r) {
  types::Transaction tx;
  tx.pool = r.U32();
  tx.client_seq = r.U64();
  tx.group = r.U32();
  tx.sent_at = r.I64();
  tx.payload_size = r.U32();
  if (tx.payload_size > (1u << 30)) r.Fail();
  tx.fingerprint = r.U64();
  tx.command = r.Bytes(kMaxWireCommand);
  return tx;
}

/// A transaction list: a client batch's vector or a block's TxBatch.
template <typename Txs>
void PutTxVec(Writer& w, const Txs& txs) {
  w.PutU32(static_cast<uint32_t>(txs.size()));
  for (const types::Transaction& tx : txs) PutTx(w, tx);
}

std::vector<types::Transaction> GetTxVec(Reader& r) {
  std::vector<types::Transaction> txs;
  // One tx = at least 40 fixed bytes (+4 command length prefix).
  const uint64_t count = r.Count(kMaxWireTxs, 40);
  txs.reserve(count);
  for (uint64_t i = 0; i < count && r.ok(); ++i) txs.push_back(GetTx(r));
  return txs;
}

void PutTxBlock(Writer& w, const ledger::TxBlock& b) {
  w.PutI64(b.v);
  w.PutI64(b.n());
  w.PutDigest(b.prev_hash());
  PutTxVec(w, b.txs());
  w.PutBytes(b.status);
  PutQc(w, b.ordering_qc);
  PutQc(w, b.commit_qc);
}

ledger::TxBlock GetTxBlock(Reader& r) {
  ledger::TxBlock b;
  b.v = r.I64();
  b.set_n(r.I64());
  b.set_prev_hash(r.Digest());
  b.set_txs(GetTxVec(r));
  b.status = r.Bytes(kMaxWireStatus);
  b.ordering_qc = GetQc(r);
  b.commit_qc = GetQc(r);
  return b;
}

void PutVcBlock(Writer& w, const ledger::VcBlock& b) {
  w.PutI64(b.v());
  w.PutU32(b.leader());
  w.PutI64(b.confirmed_view());
  w.PutDigest(b.prev_hash());
  w.PutU32(static_cast<uint32_t>(b.rp().size()));
  for (const auto& [id, penalty] : b.rp()) {
    w.PutU32(id);
    w.PutI64(penalty);
  }
  w.PutU32(static_cast<uint32_t>(b.ci().size()));
  for (const auto& [id, index] : b.ci()) {
    w.PutU32(id);
    w.PutI64(index);
  }
  PutQc(w, b.conf_qc);
  PutQc(w, b.vc_qc);
}

ledger::VcBlock GetVcBlock(Reader& r) {
  ledger::VcBlock b;
  b.set_v(r.I64());
  b.set_leader(r.U32());
  b.set_confirmed_view(r.I64());
  b.set_prev_hash(r.Digest());
  const uint64_t rp_count = r.Count(kMaxWireMapEntries, 12);
  for (uint64_t i = 0; i < rp_count && r.ok(); ++i) {
    const types::ReplicaId id = r.U32();
    const types::Penalty penalty = r.I64();
    b.SetPenalty(id, penalty);
  }
  const uint64_t ci_count = r.Count(kMaxWireMapEntries, 12);
  for (uint64_t i = 0; i < ci_count && r.ok(); ++i) {
    const types::ReplicaId id = r.U32();
    const types::CompensationIndex index = r.I64();
    b.SetCompensation(id, index);
  }
  b.conf_qc = GetQc(r);
  b.vc_qc = GetQc(r);
  return b;
}

// ----------------------------------------------------------------- encode

void PutKind(Writer& w, MsgKind kind) {
  w.PutU8(static_cast<uint8_t>(kind));
}

bool EncodeBody(const runtime::NetMessage& msg, Writer& w) {
  if (const auto* m = dynamic_cast<const types::ClientBatch*>(&msg)) {
    PutKind(w, MsgKind::kClientBatch);
    PutTxVec(w, m->txs);
    return true;
  }
  if (const auto* m = dynamic_cast<const types::ClientReply*>(&msg)) {
    PutKind(w, MsgKind::kClientReply);
    w.PutU32(m->replica);
    w.PutI64(m->v);
    w.PutI64(m->n);
    w.PutU32(m->pool);
    w.PutU32(static_cast<uint32_t>(m->entries.size()));
    for (const types::ReplyEntry& e : m->entries) {
      w.PutU64(e.client_seq);
      w.PutU8(e.status);
      w.PutU8(e.duplicate ? 1 : 0);
      w.PutU64(e.result_digest);
      w.PutBytes(e.result);
    }
    return true;
  }
  if (const auto* m = dynamic_cast<const core::OrdMsg*>(&msg)) {
    PutKind(w, MsgKind::kOrd);
    w.PutI64(m->v);
    w.PutI64(m->n);
    w.PutDigest(m->prev_hash);
    PutTxVec(w, m->txs);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::OrdReplyMsg*>(&msg)) {
    PutKind(w, MsgKind::kOrdReply);
    w.PutI64(m->v);
    w.PutI64(m->n);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::CmtMsg*>(&msg)) {
    PutKind(w, MsgKind::kCmt);
    w.PutI64(m->v);
    w.PutI64(m->n);
    w.PutDigest(m->block_digest);
    PutQc(w, m->ordering_qc);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::CmtReplyMsg*>(&msg)) {
    PutKind(w, MsgKind::kCmtReply);
    w.PutI64(m->v);
    w.PutI64(m->n);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::TxBlockMsg*>(&msg)) {
    PutKind(w, MsgKind::kTxBlock);
    PutTxBlock(w, m->block);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::ComptRelayMsg*>(&msg)) {
    PutKind(w, MsgKind::kComptRelay);
    PutTx(w, m->tx);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::ConfVcMsg*>(&msg)) {
    PutKind(w, MsgKind::kConfVc);
    w.PutI64(m->v);
    w.PutU8(static_cast<uint8_t>(m->reason));
    PutTx(w, m->tx);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::ReVcMsg*>(&msg)) {
    PutKind(w, MsgKind::kReVc);
    w.PutI64(m->v);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::CampMsg*>(&msg)) {
    PutKind(w, MsgKind::kCamp);
    PutQc(w, m->conf_qc);
    w.PutI64(m->v);
    w.PutI64(m->v_new);
    w.PutI64(m->rp);
    w.PutI64(m->ci);
    w.PutU64(m->nonce);
    w.PutDigest(m->hash_result);
    w.PutI64(m->claimed_difficulty_bits);
    PutTxBlock(w, m->latest_tx_block);
    w.PutI64(m->latest_n);
    w.PutI64(m->latest_vc_view);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::VoteCpMsg*>(&msg)) {
    PutKind(w, MsgKind::kVoteCp);
    w.PutI64(m->v_new);
    w.PutU32(m->candidate);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::VcBlockMsg*>(&msg)) {
    PutKind(w, MsgKind::kVcBlock);
    PutVcBlock(w, m->block);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::VcYesMsg*>(&msg)) {
    PutKind(w, MsgKind::kVcYes);
    w.PutI64(m->v);
    w.PutI64(m->latest_n);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::RefMsg*>(&msg)) {
    PutKind(w, MsgKind::kRef);
    w.PutI64(m->v);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::RefReplyMsg*>(&msg)) {
    PutKind(w, MsgKind::kRefReply);
    w.PutU32(m->target);
    w.PutI64(m->v);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::RdoneMsg*>(&msg)) {
    PutKind(w, MsgKind::kRdone);
    w.PutU32(m->target);
    w.PutI64(m->v);
    PutQc(w, m->rs_qc);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::SyncReqMsg*>(&msg)) {
    PutKind(w, MsgKind::kSyncReq);
    w.PutU8(static_cast<uint8_t>(m->kind));
    w.PutI64(m->after);
    w.PutI64(m->up_to);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::SyncRespMsg*>(&msg)) {
    PutKind(w, MsgKind::kSyncResp);
    w.PutU32(static_cast<uint32_t>(m->tx_blocks.size()));
    for (const ledger::TxBlock& b : m->tx_blocks) PutTxBlock(w, b);
    w.PutU32(static_cast<uint32_t>(m->vc_blocks.size()));
    for (const ledger::VcBlock& b : m->vc_blocks) PutVcBlock(w, b);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::HeartbeatMsg*>(&msg)) {
    PutKind(w, MsgKind::kHeartbeat);
    w.PutI64(m->v);
    w.PutI64(m->latest_n);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const core::NoiseMsg*>(&msg)) {
    PutKind(w, MsgKind::kNoise);
    // Modelled size only — the junk bytes themselves are not materialised.
    w.PutU32(static_cast<uint32_t>(
        m->bytes > kMaxWireNoise ? kMaxWireNoise : m->bytes));
    return true;
  }
  if (const auto* m = dynamic_cast<const types::ClientComplaint*>(&msg)) {
    PutKind(w, MsgKind::kClientComplaint);
    PutTx(w, m->tx);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsProposalMsg*>(&msg)) {
    PutKind(w, MsgKind::kHsProposal);
    w.PutI64(m->v);
    PutTxBlock(w, m->block);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsVoteMsg*>(&msg)) {
    PutKind(w, MsgKind::kHsVote);
    w.PutI64(m->v);
    w.PutU8(static_cast<uint8_t>(m->phase));
    w.PutI64(m->n);
    w.PutDigest(m->block_digest);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsPhaseMsg*>(&msg)) {
    PutKind(w, MsgKind::kHsPhase);
    w.PutI64(m->v);
    w.PutU8(static_cast<uint8_t>(m->phase));
    w.PutI64(m->n);
    w.PutDigest(m->block_digest);
    PutQc(w, m->justify);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const HsNewViewMsg*>(&msg)) {
    PutKind(w, MsgKind::kHsNewView);
    w.PutI64(m->v);
    w.PutI64(m->latest_n);
    PutSig(w, m->sig);
    return true;
  }
  if (const auto* m = dynamic_cast<const SbPrePrepareMsg*>(&msg)) {
    PutKind(w, MsgKind::kSbPrePrepare);
    w.PutI64(m->v);
    PutTxBlock(w, m->block);
    PutSig(w, m->sig);
    w.PutI64(m->crypto_weight);
    return true;
  }
  if (const auto* m = dynamic_cast<const SbShareMsg*>(&msg)) {
    PutKind(w, MsgKind::kSbShare);
    w.PutU8(static_cast<uint8_t>(m->stage));
    w.PutI64(m->v);
    w.PutI64(m->n);
    PutSig(w, m->partial);
    return true;
  }
  if (const auto* m = dynamic_cast<const SbProofMsg*>(&msg)) {
    PutKind(w, MsgKind::kSbProof);
    w.PutU8(static_cast<uint8_t>(m->stage));
    w.PutI64(m->v);
    w.PutI64(m->n);
    w.PutDigest(m->block_digest);
    PutQc(w, m->proof);
    PutSig(w, m->sig);
    return true;
  }
  // No wire form (e.g. client::SubmitRequestMsg, which carries a closure).
  return false;
}

// ----------------------------------------------------------------- decode

/// Reads a bounded enum byte; fails the reader on out-of-range values.
uint8_t GetEnum(Reader& r, uint8_t max_value) {
  const uint8_t v = r.U8();
  if (v > max_value) r.Fail();
  return v;
}

runtime::MessagePtr DecodeBody(MsgKind kind, Reader& r) {
  switch (kind) {
    case MsgKind::kOrd: {
      auto m = std::make_shared<core::OrdMsg>();
      m->v = r.I64();
      m->n = r.I64();
      m->prev_hash = r.Digest();
      m->txs = GetTxVec(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kOrdReply: {
      auto m = std::make_shared<core::OrdReplyMsg>();
      m->v = r.I64();
      m->n = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kCmt: {
      auto m = std::make_shared<core::CmtMsg>();
      m->v = r.I64();
      m->n = r.I64();
      m->block_digest = r.Digest();
      m->ordering_qc = GetQc(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kCmtReply: {
      auto m = std::make_shared<core::CmtReplyMsg>();
      m->v = r.I64();
      m->n = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kTxBlock: {
      auto m = std::make_shared<core::TxBlockMsg>();
      m->block = GetTxBlock(r);
      return m;
    }
    case MsgKind::kComptRelay: {
      auto m = std::make_shared<core::ComptRelayMsg>();
      m->tx = GetTx(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kConfVc: {
      auto m = std::make_shared<core::ConfVcMsg>();
      m->v = r.I64();
      m->reason = static_cast<core::VcReason>(
          GetEnum(r, static_cast<uint8_t>(core::VcReason::kPolicy)));
      m->tx = GetTx(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kReVc: {
      auto m = std::make_shared<core::ReVcMsg>();
      m->v = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kCamp: {
      auto m = std::make_shared<core::CampMsg>();
      m->conf_qc = GetQc(r);
      m->v = r.I64();
      m->v_new = r.I64();
      m->rp = r.I64();
      m->ci = r.I64();
      m->nonce = r.U64();
      m->hash_result = r.Digest();
      const int64_t bits = r.I64();
      if (bits < 0 || bits > 256) r.Fail();
      m->claimed_difficulty_bits = static_cast<int>(bits);
      m->latest_tx_block = GetTxBlock(r);
      m->latest_n = r.I64();
      m->latest_vc_view = r.I64();
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kVoteCp: {
      auto m = std::make_shared<core::VoteCpMsg>();
      m->v_new = r.I64();
      m->candidate = r.U32();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kVcBlock: {
      auto m = std::make_shared<core::VcBlockMsg>();
      m->block = GetVcBlock(r);
      return m;
    }
    case MsgKind::kVcYes: {
      auto m = std::make_shared<core::VcYesMsg>();
      m->v = r.I64();
      m->latest_n = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kRef: {
      auto m = std::make_shared<core::RefMsg>();
      m->v = r.I64();
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kRefReply: {
      auto m = std::make_shared<core::RefReplyMsg>();
      m->target = r.U32();
      m->v = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kRdone: {
      auto m = std::make_shared<core::RdoneMsg>();
      m->target = r.U32();
      m->v = r.I64();
      m->rs_qc = GetQc(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kSyncReq: {
      auto m = std::make_shared<core::SyncReqMsg>();
      m->kind = static_cast<core::SyncReqMsg::Kind>(GetEnum(r, 1));
      m->after = r.I64();
      m->up_to = r.I64();
      return m;
    }
    case MsgKind::kSyncResp: {
      auto m = std::make_shared<core::SyncRespMsg>();
      // One tx block = at least 80 fixed bytes.
      const uint64_t tx_count = r.Count(kMaxWireBlocks, 80);
      for (uint64_t i = 0; i < tx_count && r.ok(); ++i) {
        m->tx_blocks.push_back(GetTxBlock(r));
      }
      const uint64_t vc_count = r.Count(kMaxWireBlocks, 60);
      for (uint64_t i = 0; i < vc_count && r.ok(); ++i) {
        m->vc_blocks.push_back(GetVcBlock(r));
      }
      return m;
    }
    case MsgKind::kHeartbeat: {
      auto m = std::make_shared<core::HeartbeatMsg>();
      m->v = r.I64();
      m->latest_n = r.I64();
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kNoise: {
      auto m = std::make_shared<core::NoiseMsg>();
      const uint32_t bytes = r.U32();
      if (bytes > kMaxWireNoise) r.Fail();
      m->bytes = bytes;
      return m;
    }
    case MsgKind::kClientBatch: {
      auto m = std::make_shared<types::ClientBatch>();
      m->txs = GetTxVec(r);
      return m;
    }
    case MsgKind::kClientReply: {
      auto m = std::make_shared<types::ClientReply>();
      m->replica = r.U32();
      m->v = r.I64();
      m->n = r.I64();
      m->pool = r.U32();
      // One entry = at least 22 fixed bytes.
      const uint64_t count = r.Count(kMaxWireEntries, 22);
      m->entries.reserve(count);
      for (uint64_t i = 0; i < count && r.ok(); ++i) {
        types::ReplyEntry e;
        e.client_seq = r.U64();
        e.status = r.U8();
        e.duplicate = GetEnum(r, 1) != 0;
        e.result_digest = r.U64();
        e.result = r.Bytes(kMaxWireResult);
        m->entries.push_back(std::move(e));
      }
      return m;
    }
    case MsgKind::kClientComplaint: {
      auto m = std::make_shared<types::ClientComplaint>();
      m->tx = GetTx(r);
      return m;
    }
    case MsgKind::kHsProposal: {
      auto m = std::make_shared<HsProposalMsg>();
      m->v = r.I64();
      m->block = GetTxBlock(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kHsVote: {
      auto m = std::make_shared<HsVoteMsg>();
      m->v = r.I64();
      m->phase = static_cast<HsPhase>(
          GetEnum(r, static_cast<uint8_t>(HsPhase::kDecide)));
      m->n = r.I64();
      m->block_digest = r.Digest();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kHsPhase: {
      auto m = std::make_shared<HsPhaseMsg>();
      m->v = r.I64();
      m->phase = static_cast<HsPhase>(
          GetEnum(r, static_cast<uint8_t>(HsPhase::kDecide)));
      m->n = r.I64();
      m->block_digest = r.Digest();
      m->justify = GetQc(r);
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kHsNewView: {
      auto m = std::make_shared<HsNewViewMsg>();
      m->v = r.I64();
      m->latest_n = r.I64();
      m->sig = GetSig(r);
      return m;
    }
    case MsgKind::kSbPrePrepare: {
      auto m = std::make_shared<SbPrePrepareMsg>();
      m->v = r.I64();
      m->block = GetTxBlock(r);
      m->sig = GetSig(r);
      const int64_t weight = r.I64();
      if (weight < 0 || weight > (1 << 16)) r.Fail();
      m->crypto_weight = static_cast<int>(weight);
      return m;
    }
    case MsgKind::kSbShare: {
      auto m = std::make_shared<SbShareMsg>();
      m->stage = static_cast<SbShareMsg::Stage>(GetEnum(r, 1));
      m->v = r.I64();
      m->n = r.I64();
      m->partial = GetSig(r);
      return m;
    }
    case MsgKind::kSbProof: {
      auto m = std::make_shared<SbProofMsg>();
      m->stage = static_cast<SbProofMsg::Stage>(GetEnum(r, 1));
      m->v = r.I64();
      m->n = r.I64();
      m->block_digest = r.Digest();
      m->proof = GetQc(r);
      m->sig = GetSig(r);
      return m;
    }
  }
  return nullptr;
}

}  // namespace

bool EncodeMessage(const runtime::NetMessage& msg, std::vector<uint8_t>* out) {
  Writer w;
  if (!EncodeBody(msg, w)) return false;
  const std::vector<uint8_t>& body = w.data();
  out->insert(out->end(), body.begin(), body.end());
  return true;
}

runtime::MessagePtr DecodeMessage(const uint8_t* data, size_t len) {
  if (data == nullptr || len == 0) return nullptr;
  Reader r(data + 1, len - 1);
  runtime::MessagePtr msg = DecodeBody(static_cast<MsgKind>(data[0]), r);
  if (msg == nullptr || !r.ok() || r.remaining() != 0) return nullptr;
  return msg;
}

}  // namespace net
}  // namespace prestige
