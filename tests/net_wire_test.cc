// Wire codec + datagram framing hardening tests (src/net/).
//
// Two layers under test, both of which treat their input as hostile:
//   * net::EncodeMessage / net::DecodeMessage — byte-exact transport
//     serialization for every cross-process message type; any malformed
//     input must yield nullptr, never UB (the ASan/UBSan CI matrix runs
//     this suite, which is what makes the adversarial corpus meaningful);
//   * net::FrameWriter / net::FrameAssembler — datagram framing with
//     fragmentation, per-(src,dst) sequence tracking, and counted drops.
//
// SampleMessages() holds one message of each of the 29 wire kinds (plus an
// over-cap NoiseMsg), so every codec test below covers every kind. The
// roundtrip strategy avoids per-field comparisons: decode(encode(m)) must
// re-encode to the identical byte string, which proves full fidelity for
// every field the codec carries. GoldenBytesAndVerdicts pins the wire
// format itself: per sample, the SHA-256 of its encoding and of the
// decoder's accept/reject verdicts over every strict prefix and every
// single-byte corruption (with the re-encoding of whatever was accepted).
// A change to any byte, field order, width or hostile-input bound fails it.

#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hotstuff/hotstuff_replica.h"
#include "baselines/sbft/sbft_replica.h"
#include "core/messages.h"
#include "crypto/sha256.h"
#include "net/address.h"
#include "net/frame.h"
#include "net/wire.h"
#include "types/client_messages.h"

namespace prestige {
namespace net {
namespace {

types::Transaction SampleTx(uint32_t pool, uint64_t seq) {
  types::Transaction tx;
  tx.pool = pool;
  tx.client_seq = seq;
  tx.group = 3;
  tx.sent_at = 123456789;
  tx.payload_size = 64;
  tx.fingerprint = 0xfeedface00ull + seq;
  tx.command = {0x01, 0x02, 0x03, static_cast<uint8_t>(seq)};
  return tx;
}

crypto::Signature SampleSig(uint32_t signer) {
  crypto::Signature sig;
  sig.signer = signer;
  for (size_t i = 0; i < sig.mac.size(); ++i) {
    sig.mac[i] = static_cast<uint8_t>(signer + i);
  }
  return sig;
}

crypto::QuorumCert SampleQc() {
  crypto::QuorumCert qc;
  for (size_t i = 0; i < qc.digest.size(); ++i) {
    qc.digest[i] = static_cast<uint8_t>(0xa0 + i);
  }
  qc.threshold = 3;
  qc.partials = {SampleSig(0), SampleSig(1), SampleSig(2)};
  return qc;
}

ledger::TxBlock SampleBlock(int64_t n) {
  ledger::TxBlock b;
  b.v = 7;
  b.set_n(n);
  crypto::Sha256Digest prev{};
  prev[0] = static_cast<uint8_t>(n);
  b.set_prev_hash(prev);
  b.set_txs({SampleTx(0, 1), SampleTx(1, 2)});
  b.status = {0xde, 0xad};
  b.ordering_qc = SampleQc();
  b.commit_qc = SampleQc();
  return b;
}

ledger::VcBlock SampleVcBlock() {
  ledger::VcBlock b;
  b.set_v(9);
  b.set_leader(2);
  b.set_confirmed_view(8);
  crypto::Sha256Digest prev{};
  prev[1] = 0x42;
  b.set_prev_hash(prev);
  b.SetPenalty(0, 5);
  b.SetPenalty(3, -2);
  b.SetCompensation(1, 7);
  b.conf_qc = SampleQc();
  b.vc_qc = SampleQc();
  return b;
}

/// One instance of every one of the 29 wire kinds, plus an over-cap
/// NoiseMsg, exercising every component (tx, tx vector, block, vc block,
/// QC, sig, reply entries, enums, range-checked integers).
std::vector<runtime::MessagePtr> SampleMessages() {
  std::vector<runtime::MessagePtr> out;

  auto ord = std::make_shared<core::OrdMsg>();
  ord->v = 3;
  ord->n = 17;
  ord->prev_hash = crypto::Sha256Digest{};
  ord->txs = {SampleTx(0, 1), SampleTx(2, 9)};
  ord->sig = SampleSig(1);
  out.push_back(ord);

  auto cmt = std::make_shared<core::CmtMsg>();
  cmt->v = 3;
  cmt->n = 17;
  cmt->block_digest = SampleQc().digest;
  cmt->ordering_qc = SampleQc();
  cmt->sig = SampleSig(0);
  out.push_back(cmt);

  auto camp = std::make_shared<core::CampMsg>();
  camp->conf_qc = SampleQc();
  camp->v = 4;
  camp->v_new = 6;
  camp->rp = -12;
  camp->ci = 2;
  camp->nonce = 0x1234567890abcdefull;
  camp->hash_result = SampleQc().digest;
  camp->claimed_difficulty_bits = 18;
  camp->latest_tx_block = SampleBlock(5);
  camp->latest_n = 5;
  camp->latest_vc_view = 3;
  camp->sig = SampleSig(2);
  out.push_back(camp);

  auto conf = std::make_shared<core::ConfVcMsg>();
  conf->v = 11;
  conf->reason = core::VcReason::kPolicy;
  conf->tx = SampleTx(1, 4);
  conf->sig = SampleSig(3);
  out.push_back(conf);

  auto vcb = std::make_shared<core::VcBlockMsg>();
  vcb->block = SampleVcBlock();
  out.push_back(vcb);

  auto sync_req = std::make_shared<core::SyncReqMsg>();
  sync_req->kind = core::SyncReqMsg::Kind::kVcBlocks;
  sync_req->after = 3;
  sync_req->up_to = 40;
  out.push_back(sync_req);

  auto sync = std::make_shared<core::SyncRespMsg>();
  sync->tx_blocks = {SampleBlock(1), SampleBlock(2)};
  sync->vc_blocks = {SampleVcBlock()};
  out.push_back(sync);

  auto noise = std::make_shared<core::NoiseMsg>();
  noise->bytes = 512;
  out.push_back(noise);

  auto batch = std::make_shared<types::ClientBatch>();
  batch->txs = {SampleTx(0, 1), SampleTx(0, 2), SampleTx(0, 3)};
  out.push_back(batch);

  auto reply = std::make_shared<types::ClientReply>();
  reply->replica = 2;
  reply->v = 3;
  reply->n = 17;
  reply->pool = 4;
  types::ReplyEntry e1;
  e1.client_seq = 41;
  e1.status = 1;
  e1.duplicate = true;
  e1.result_digest = 0xabcdull;
  e1.result = {0x01};
  types::ReplyEntry e2;
  e2.client_seq = 42;
  reply->entries = {e1, e2};
  out.push_back(reply);

  auto complaint = std::make_shared<types::ClientComplaint>();
  complaint->tx = SampleTx(2, 8);
  out.push_back(complaint);

  auto hs = std::make_shared<baselines::hotstuff::HsPhaseMsg>();
  hs->v = 2;
  hs->phase = baselines::hotstuff::HsPhase::kCommit;
  hs->n = 6;
  hs->block_digest = SampleQc().digest;
  hs->justify = SampleQc();
  hs->sig = SampleSig(1);
  out.push_back(hs);

  auto sb = std::make_shared<baselines::sbft::SbPrePrepareMsg>();
  sb->v = 1;
  sb->block = SampleBlock(3);
  sb->sig = SampleSig(0);
  sb->crypto_weight = 8;
  out.push_back(sb);

  auto ord_reply = std::make_shared<core::OrdReplyMsg>();
  ord_reply->v = 3;
  ord_reply->n = 17;
  ord_reply->partial = SampleSig(2);
  out.push_back(ord_reply);

  auto cmt_reply = std::make_shared<core::CmtReplyMsg>();
  cmt_reply->v = 3;
  cmt_reply->n = 18;
  cmt_reply->partial = SampleSig(3);
  out.push_back(cmt_reply);

  auto tx_block = std::make_shared<core::TxBlockMsg>();
  tx_block->block = SampleBlock(4);
  out.push_back(tx_block);

  auto relay = std::make_shared<core::ComptRelayMsg>();
  relay->tx = SampleTx(3, 5);
  relay->sig = SampleSig(1);
  out.push_back(relay);

  auto revc = std::make_shared<core::ReVcMsg>();
  revc->v = 12;
  revc->partial = SampleSig(0);
  out.push_back(revc);

  auto vote = std::make_shared<core::VoteCpMsg>();
  vote->v_new = 6;
  vote->candidate = 2;
  vote->partial = SampleSig(1);
  out.push_back(vote);

  auto vc_yes = std::make_shared<core::VcYesMsg>();
  vc_yes->v = 6;
  vc_yes->latest_n = 21;
  vc_yes->partial = SampleSig(3);
  out.push_back(vc_yes);

  auto ref = std::make_shared<core::RefMsg>();
  ref->v = 14;
  ref->sig = SampleSig(2);
  out.push_back(ref);

  auto ref_reply = std::make_shared<core::RefReplyMsg>();
  ref_reply->target = 1;
  ref_reply->v = 14;
  ref_reply->partial = SampleSig(0);
  out.push_back(ref_reply);

  auto rdone = std::make_shared<core::RdoneMsg>();
  rdone->target = 1;
  rdone->v = 15;
  rdone->rs_qc = SampleQc();
  rdone->sig = SampleSig(1);
  out.push_back(rdone);

  auto heartbeat = std::make_shared<core::HeartbeatMsg>();
  heartbeat->v = 5;
  heartbeat->latest_n = 30;
  heartbeat->sig = SampleSig(0);
  out.push_back(heartbeat);

  auto hs_proposal = std::make_shared<baselines::hotstuff::HsProposalMsg>();
  hs_proposal->v = 2;
  hs_proposal->block = SampleBlock(6);
  hs_proposal->sig = SampleSig(2);
  out.push_back(hs_proposal);

  auto hs_vote = std::make_shared<baselines::hotstuff::HsVoteMsg>();
  hs_vote->v = 2;
  hs_vote->phase = baselines::hotstuff::HsPhase::kDecide;
  hs_vote->n = 6;
  hs_vote->block_digest = SampleQc().digest;
  hs_vote->partial = SampleSig(3);
  out.push_back(hs_vote);

  auto hs_new_view = std::make_shared<baselines::hotstuff::HsNewViewMsg>();
  hs_new_view->v = 3;
  hs_new_view->latest_n = 6;
  hs_new_view->sig = SampleSig(1);
  out.push_back(hs_new_view);

  auto sb_share = std::make_shared<baselines::sbft::SbShareMsg>();
  sb_share->stage = baselines::sbft::SbShareMsg::Stage::kExecute;
  sb_share->v = 1;
  sb_share->n = 3;
  sb_share->partial = SampleSig(2);
  out.push_back(sb_share);

  auto sb_proof = std::make_shared<baselines::sbft::SbProofMsg>();
  sb_proof->stage = baselines::sbft::SbProofMsg::Stage::kExecute;
  sb_proof->v = 1;
  sb_proof->n = 3;
  sb_proof->block_digest = SampleQc().digest;
  sb_proof->proof = SampleQc();
  sb_proof->sig = SampleSig(0);
  out.push_back(sb_proof);

  // Over its cap: the encoder clamps the modelled size to kMaxWireNoise.
  auto big_noise = std::make_shared<core::NoiseMsg>();
  big_noise->bytes = kMaxWireNoise + 1000;
  out.push_back(big_noise);

  return out;
}

std::vector<uint8_t> Encode(const runtime::NetMessage& msg) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeMessage(msg, &bytes));
  return bytes;
}

// ---------------------------------------------------------------- roundtrip

TEST(WireCodecTest, DecodeThenReencodeIsByteIdentical) {
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    const std::vector<uint8_t> bytes = Encode(*msg);
    ASSERT_FALSE(bytes.empty());
    const runtime::MessagePtr decoded =
        DecodeMessage(bytes.data(), bytes.size());
    ASSERT_NE(decoded, nullptr);
    EXPECT_STREQ(decoded->Name(), msg->Name());
    EXPECT_EQ(Encode(*decoded), bytes);
  }
}

// ------------------------------------------------------------------ golden

std::string Sha256Hex(const std::vector<uint8_t>& bytes) {
  return crypto::DigestToHex(crypto::Sha256::Hash(bytes));
}

/// The decoder's full behaviour around one encoding: one verdict byte
/// (1 = decoded, 0 = rejected) for every strict prefix and for every
/// single-byte corruption under masks 0x01/0x80/0xff, each accepted decode
/// followed by its length-prefixed re-encoding.
std::vector<uint8_t> SweepTranscript(std::vector<uint8_t> bytes) {
  Writer out;
  const auto record = [&out](const uint8_t* data, size_t len) {
    const runtime::MessagePtr decoded = DecodeMessage(data, len);
    out.PutU8(decoded != nullptr ? 1 : 0);
    if (decoded == nullptr) return;
    std::vector<uint8_t> re;
    EXPECT_TRUE(EncodeMessage(*decoded, &re));
    out.PutBytes(re);
  };
  for (size_t len = 0; len < bytes.size(); ++len) record(bytes.data(), len);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      bytes[i] ^= mask;
      record(bytes.data(), bytes.size());
      bytes[i] ^= mask;
    }
  }
  return out.Take();
}

struct GoldenSample {
  const char* name;
  const char* encoding_sha256;  ///< Of the encoded bytes.
  const char* sweep_sha256;     ///< Of SweepTranscript(encoding).
};

// Captured from the hand-written per-kind codec that preceded the schema
// tables; any change here is a wire-format change.
const GoldenSample kGolden[] = {
    {"Ord",
     "a32398d08d91f4fd25a3c3a94a7dd72337a400d2e1ce208c2f3f48b8964cd163",
     "031f66483d08019d217a18120198897ec6a18ed0a977d176664ca6231bda6272"},
    {"Cmt",
     "be876946993736c9ef1b6be575ff26fd56b0637032fb42b829280c0697c6b711",
     "0c1603c30c23008c70c453f0e322941532d302be82264200a05a1bd9630c3aa0"},
    {"Camp",
     "b23cc905274df76b881b450bfa6aa0e9ba14efab4c1370017952ddce95b84b34",
     "9f26f5b044916a255ee2cc977dca1886775e51e8595b17c6e7293817fa6b30e1"},
    {"ConfVC",
     "919dc94c840d2a45a6e274f616b637a4e97684039e20604b0b1180e268be3651",
     "3de257ad39339ed2132362e7824c61d2684bb81a93852d618911ae688a14cacc"},
    {"VcBlockMsg",
     "87f11c252f7de46765f8887c572a3847c3df87b0351f4c33685971f62118da08",
     "04d03c1c61ae39cebec0c77ca5211935252b696f6b81a4d8aa26fde636841b1d"},
    {"SyncReq",
     "db382288ffc010628da087e5579342d4f986122e2b111dce96c2e4409f90973a",
     "086b963eba8ba58b2d84e46764d1be05ba19836fc4e5d6149c357a4ac106fa49"},
    {"SyncResp",
     "64e55440cb0c0f48084c0e0b645e8098eea0c1ef53f7f8a495bf2762f9bca102",
     "452f822b289551390520982bb3a20a3c16bffc3eb4b78ef599003e70cf77ec43"},
    {"Noise",
     "8868b005fde06eb73ea1db5de338364fcad1feeaf1cef934439a662798a6a0fd",
     "a1b929bb6fab90cf5ce2c51bde3a866e8949565213ae76be79f7bd483ae446de"},
    {"ClientBatch",
     "13ba6ed10217c093230e21b4121e027482976ba5736b1e82d23e818f377220ea",
     "4f3a4b4dfc67f2e998106728e2db2ec8ba241da2a14d4fbbac6ee37f27eb8eaa"},
    {"ClientReply",
     "a6fe141406609f6f5877e3a9dd93a53a314633bdf1fa9a5ce2da1f37bdcae2a7",
     "911daaa844dba81509f5d72af9c66452da1f8492982dc23b116b033f1317587e"},
    {"ClientComplaint",
     "80218a28706d01f3a37abcd2987c07cc1a33bf936453b7fe794951da7526e87d",
     "b2efde3469ca060a20806481ec7e03b8fc9caf8491e7b98b398675a23d304b11"},
    {"HsPhase",
     "9a379667eb4d04ebeccdd2d8cb1d9010dbfe31dd1132ea53b283df0dc418b8cc",
     "f80f264fcb17b8d171ad4bab3854965bc433502cfe84354e4c4cb394841678e7"},
    {"SbPrePrepare",
     "64a5e4d411c9563fb92c50eefcbf9ed4f406d7c51c985bbcb6063286fbb24d04",
     "314ff2303fbf4ffe5bb005e1bca1cb2fd0ba86c5568d50f810fbbe7d44058727"},
    {"OrdReply",
     "48e65817957804761a40d612c889f6c4b0b08d3fbbe87601cf6073c9b0288529",
     "23816c20ade4cd32b7c596bff07094e4736c36008b6f56aebf5ea4a20b60fc3c"},
    {"CmtReply",
     "9a47a6b6bf23b308d5f3868017a46df87405fca00d9519f670dbe65188de3fdb",
     "86a2d5b53abfb77dcf5eacbe4b6b0af23cace6dbbecc48e3223d2b8505721e85"},
    {"TxBlock",
     "887e620a1cd709c97a9ab9ef9a11758c3492b7e776969fac704e1bad17303982",
     "4a7222edc1481247abebc1e1119737901e67f3ef2caa06227a2f48d98b300677"},
    {"ComptRelay",
     "84ac5466d78a4c1af05e643705ccfc7c80b4a67a74914f61b9c11bf8ab9126d5",
     "6dd94c5d0747f00bb1f89175ee230625e933f09f72ec474c62abae0d086fec9b"},
    {"ReVC",
     "5266da99286cfef343371ba7d307b529dfa6361e2f428307e011510c6f49d70f",
     "48b090326c87606f36518c52b792fbdccd8a672d77654dd2f6de2f38ad9aa1c7"},
    {"VoteCP",
     "5c58d0d3f64bfe339bca72913cef3809db898a82d3caa81a6ab5a5fbd681b5d8",
     "bd4a8a09d60dcde542ca1dc1ef0a5d1fbac389449f6df18dca3bcf5bedef0d74"},
    {"VcYes",
     "a99aacdd5a954107afc52d84f2b2806785f9a9ca2ff96ac3ae94086727f57e1b",
     "0c10e246d08f0b2d6663ce9fd68e61f53245c42ebc15713e87db416eaed9e616"},
    {"Ref",
     "a17c4a4c1d3e341b5ceac2d34e8308f20d794fb31a27b91fb6833aee8c00ee96",
     "e6f0a89717a14b2743644d115bbc6275433ac2eed2170fcc0c4c72464ef83174"},
    {"RefReply",
     "b87e205065968985ed0d322a2e351270417968a1232cc08265ccfb6e38a15edd",
     "e6feec32ba8581fc74d54eccc241b011897cb71f46a508aa886c21eac7059f1b"},
    {"Rdone",
     "6448596fc1f8e5953652ea5f70cce83fb76a7fc06119049c80b9757c549b526c",
     "258a1b250c9233244f8b92050fa80e3e1fc7d9ab052593ba98af091ee5564175"},
    {"Heartbeat",
     "9cda54dc9caad6ee7e621faa6c876bf4fdfad6fa510dd9c0f4c05cd6e62e89d3",
     "9453ed582efdaf43f5db88b78aaa1a056b336ca740b32d5a0331bd01a1a8da09"},
    {"HsProposal",
     "31c31514a1f541fa6b1a0cb60e4043800cfd8ebb51eb162c65a89aa5edbac4e4",
     "3b9e4bcf33a3988416fd7bfdfe065f9294bfa377918177eb532788b14ba9bf21"},
    {"HsVote",
     "fbe8a367f78f7b4b9000efb7fe253f0bbea5efdda13f941b94029c30dbc6e76c",
     "75d6646486633f4aeb5c0adca944406c96cc3d923c8957a5278144defdd61a50"},
    {"HsNewView",
     "e00dfce806d827690caacdb97b20ce4cc4268ccff8ffa491146218ae79091c95",
     "0fb29f0029f58079e57b5060370c0fb536e742642a993932d667934c48a348d9"},
    {"SbShare",
     "274dc83d589dd200e442ff6a48ea4511f2ad30b85fd9abe5afd9989a6745b592",
     "a004d375742df33d50fd5205bdd3ab97f675d76da8a6b043f4f534f0c8ec4953"},
    {"SbProof",
     "9aecc06ab61126ea23b794268ffc4ac9a90491ca26b76b554e874c500007f846",
     "3943f4fe2daf476579e8f91a01d4d0a1e8c29328069d6ca54d4b0debec86ce83"},
    {"Noise",
     "d14f73e1a8af483d08005d1376b1aee0612c2f48670b995acf758cb5a75fd168",
     "de47c9b27eb8d300dbb5f2c353e632c393262cf06340c4fa7f1b40c4cbd36f90"},
};

TEST(WireCodecTest, GoldenBytesAndVerdicts) {
  const std::vector<runtime::MessagePtr> samples = SampleMessages();
  ASSERT_EQ(samples.size(), std::size(kGolden));
  for (size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(samples[i]->Name());
    EXPECT_STREQ(samples[i]->Name(), kGolden[i].name);
    const std::vector<uint8_t> bytes = Encode(*samples[i]);
    EXPECT_EQ(Sha256Hex(bytes), kGolden[i].encoding_sha256);
    EXPECT_EQ(Sha256Hex(SweepTranscript(bytes)), kGolden[i].sweep_sha256);
  }
}

// ------------------------------------------------------------- adversarial

TEST(WireCodecTest, EveryStrictPrefixIsRejected) {
  // The layout is length-prefixed, not self-terminating: a decode always
  // consumes the same byte count as the full encoding, so any strict
  // prefix must hit a bounds check and yield nullptr.
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    const std::vector<uint8_t> bytes = Encode(*msg);
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_EQ(DecodeMessage(bytes.data(), len), nullptr)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST(WireCodecTest, TrailingBytesAreRejected) {
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    SCOPED_TRACE(msg->Name());
    std::vector<uint8_t> bytes = Encode(*msg);
    bytes.push_back(0x00);
    EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);
  }
}

TEST(WireCodecTest, UnknownKindsAreRejected) {
  // Every byte value that is not one of the 29 registered kinds (read off
  // the samples, which cover each kind once), with a plausible body behind
  // it.
  std::set<uint8_t> registered;
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    registered.insert(Encode(*msg)[0]);
  }
  ASSERT_EQ(registered.size(), 29u);
  for (int kind = 0; kind < 256; ++kind) {
    if (registered.count(static_cast<uint8_t>(kind)) != 0) continue;
    std::vector<uint8_t> bytes(64, 0);
    bytes[0] = static_cast<uint8_t>(kind);
    EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr)
        << "kind " << kind;
  }
  EXPECT_EQ(DecodeMessage(nullptr, 0), nullptr);
  const uint8_t one = 7;
  EXPECT_EQ(DecodeMessage(&one, 0), nullptr);
}

TEST(WireCodecTest, HostileCountsAreRejectedWithoutAllocation) {
  // A ClientBatch claiming 2^32-1 transactions in a 9-byte body: the count
  // validator must reject it before any reserve/loop.
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(MsgKind::kClientBatch),
                                0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00,
                                0x00};
  EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);

  // A CmtMsg whose QC claims 2^20 partial signatures.
  auto cmt = std::make_shared<core::CmtMsg>();
  cmt->ordering_qc = SampleQc();
  cmt->sig = SampleSig(0);
  std::vector<uint8_t> enc = Encode(*cmt);
  // QC partial count sits after kind(1) + v(8) + n(8) + digest(32) +
  // qc.digest(32) + qc.threshold(4).
  const size_t count_at = 1 + 8 + 8 + 32 + 32 + 4;
  enc[count_at + 0] = 0x00;
  enc[count_at + 1] = 0x00;
  enc[count_at + 2] = 0x10;
  enc[count_at + 3] = 0x00;
  EXPECT_EQ(DecodeMessage(enc.data(), enc.size()), nullptr);
}

TEST(WireCodecTest, OutOfRangeEnumsAreRejected) {
  // SyncReq kind byte only admits 0..1.
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(MsgKind::kSyncReq), 2};
  for (int i = 0; i < 16; ++i) bytes.push_back(0);
  EXPECT_EQ(DecodeMessage(bytes.data(), bytes.size()), nullptr);
  bytes[1] = 1;
  EXPECT_NE(DecodeMessage(bytes.data(), bytes.size()), nullptr);

  // NoiseMsg size over its cap.
  std::vector<uint8_t> noise = {static_cast<uint8_t>(MsgKind::kNoise),
                                0x01, 0x00, 0x10, 0x00};  // 1<<20 + 1.
  EXPECT_EQ(DecodeMessage(noise.data(), noise.size()), nullptr);
}

TEST(WireCodecTest, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of every sample encoding through every of 3 masks.
  // A flip may still decode (the frame checksum guards integrity, not this
  // layer); the wire-level guarantee is no crash / no UB / no partial
  // object, which ASan/UBSan enforce when CI runs this suite.
  for (const runtime::MessagePtr& msg : SampleMessages()) {
    std::vector<uint8_t> bytes = Encode(*msg);
    for (size_t i = 0; i < bytes.size(); ++i) {
      const uint8_t masks[] = {0x01, 0x80, 0xff};
      for (const uint8_t mask : masks) {
        bytes[i] ^= mask;
        const runtime::MessagePtr decoded =
            DecodeMessage(bytes.data(), bytes.size());
        if (decoded != nullptr) {
          // Whatever decoded must itself be encodable (fully initialised).
          std::vector<uint8_t> re;
          EXPECT_TRUE(EncodeMessage(*decoded, &re));
        }
        bytes[i] ^= mask;
      }
    }
  }
}

// ----------------------------------------------------------------- framing

std::vector<uint8_t> Payload(size_t n) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(i * 31 + 7);
  return p;
}

TEST(FrameTest, SingleDatagramRoundtrip) {
  FrameWriter writer(/*src=*/1);
  FrameAssembler assembler(/*local_id=*/2);
  const std::vector<uint8_t> payload = Payload(100);
  const auto datagrams = writer.Split(2, payload);
  ASSERT_EQ(datagrams.size(), 1u);
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(assembler.counters().messages_assembled, 1u);
  EXPECT_EQ(assembler.counters().seq_gaps, 0u);
}

TEST(FrameTest, FragmentedMessageReassembles) {
  FrameWriter writer(3);
  FrameAssembler assembler(4);
  const std::vector<uint8_t> payload = Payload(2 * kMaxFragPayload + 1234);
  const auto datagrams = writer.Split(4, payload);
  ASSERT_EQ(datagrams.size(), 3u);
  std::vector<FrameAssembler::Complete> out;
  // Deliver out of order: framing reassembles by frag_index, not arrival.
  assembler.Accept(datagrams[2].data(), datagrams[2].size(), &out);
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.pending_partials(), 1u);
  assembler.Accept(datagrams[1].data(), datagrams[1].size(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(assembler.pending_partials(), 0u);
}

TEST(FrameTest, ChecksumCorruptionIsCountedDrop) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  auto datagrams = writer.Split(2, Payload(64));
  ASSERT_EQ(datagrams.size(), 1u);
  datagrams[0].back() ^= 0xff;  // Corrupt the final payload byte.
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().checksum_drops, 1u);
}

TEST(FrameTest, ShortAndGarbageDatagramsAreHeaderDrops) {
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  const std::vector<uint8_t> garbage(kFrameHeaderBytes + 8, 0x5a);
  assembler.Accept(garbage.data(), garbage.size(), &out);  // Bad magic.
  assembler.Accept(garbage.data(), 5, &out);               // Too short.
  assembler.Accept(garbage.data(), 0, &out);               // Empty.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().header_drops, 3u);
}

TEST(FrameTest, WrongDestinationIsCountedDrop) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  const auto datagrams = writer.Split(/*dst=*/9, Payload(32));
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(datagrams[0].data(), datagrams[0].size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().wrong_dst_drops, 1u);
}

TEST(FrameTest, PayloadLengthLiesAreCountedDrops) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  auto datagrams = writer.Split(2, Payload(64));
  ASSERT_EQ(datagrams.size(), 1u);
  // payload_len sits at offset 30 in the header (see net/frame.cc layout);
  // claim more bytes than the datagram carries.
  std::vector<uint8_t> lying = datagrams[0];
  lying[30] = 0xff;
  lying[31] = 0xff;
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(lying.data(), lying.size(), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.counters().length_drops, 1u);
}

TEST(FrameTest, DuplicateAndGapSequencesAreObserved) {
  FrameWriter writer(1);
  FrameAssembler assembler(2);
  const auto d1 = writer.Split(2, Payload(16));
  const auto d2 = writer.Split(2, Payload(16));
  const auto d3 = writer.Split(2, Payload(16));
  std::vector<FrameAssembler::Complete> out;
  assembler.Accept(d1[0].data(), d1[0].size(), &out);
  // Skip d2 entirely: seq gap.
  assembler.Accept(d3[0].data(), d3[0].size(), &out);
  EXPECT_EQ(assembler.counters().seq_gaps, 1u);
  // Replay d1: duplicate / reordered.
  assembler.Accept(d1[0].data(), d1[0].size(), &out);
  EXPECT_EQ(assembler.counters().seq_out_of_order, 1u);
}

TEST(FrameTest, ReassemblyTableIsBounded) {
  FrameAssembler assembler(2);
  std::vector<FrameAssembler::Complete> out;
  // 4 * kMaxReassembly distinct two-fragment messages, never completed:
  // the partial table must stay at its cap, evicting oldest-first.
  for (uint32_t i = 0; i < 4 * kMaxReassembly; ++i) {
    FrameWriter writer(/*src=*/100 + i);
    const auto frags = writer.Split(2, Payload(kMaxFragPayload + 10));
    ASSERT_EQ(frags.size(), 2u);
    assembler.Accept(frags[0].data(), frags[0].size(), &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_LE(assembler.pending_partials(), kMaxReassembly);
  EXPECT_GE(assembler.counters().frag_drops, 3 * kMaxReassembly);
}

TEST(FrameTest, CorruptedDatagramFuzzNeverCrashes) {
  // Byte-flip sweep over a fragmented message's datagrams: every variant
  // must be either assembled or counted as a drop — never a crash, an
  // out-of-range read (ASan), or unbounded memory.
  FrameWriter writer(1);
  const auto datagrams = writer.Split(2, Payload(kMaxFragPayload + 99));
  for (const auto& datagram : datagrams) {
    for (size_t i = 0; i < std::min<size_t>(datagram.size(), 256); ++i) {
      FrameAssembler assembler(2);
      std::vector<uint8_t> mutant = datagram;
      mutant[i] ^= 0xff;
      std::vector<FrameAssembler::Complete> out;
      assembler.Accept(mutant.data(), mutant.size(), &out);
    }
  }
}

// ------------------------------------------------------------ cluster config

TEST(AddressTest, ClusterConfigRoundtrips) {
  ClusterConfig config;
  config.seed = 42;
  config.protocol = "hotstuff";
  config.n = 4;
  config.batch = 700;
  config.pools = 2;
  config.clients_per_pool = 150;
  config.payload = 48;
  config.duration_us = 2500000;
  for (uint32_t i = 0; i < 6; ++i) {
    PeerEntry peer;
    peer.id = i;
    peer.kind = i < 4 ? PeerEntry::Kind::kReplica : PeerEntry::Kind::kPool;
    peer.data = {0x7f000001, static_cast<uint16_t>(9000 + i)};
    peer.control = {0x7f000001, static_cast<uint16_t>(9100 + i)};
    config.peers.push_back(peer);
  }
  ClusterConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseClusterConfig(FormatClusterConfig(config), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.protocol, config.protocol);
  EXPECT_EQ(parsed.n, config.n);
  EXPECT_EQ(parsed.peers.size(), config.peers.size());
  EXPECT_EQ(parsed.ReplicaIds().size(), 4u);
  EXPECT_EQ(parsed.PoolIds().size(), 2u);
  ASSERT_NE(parsed.Find(5), nullptr);
  EXPECT_EQ(parsed.Find(5)->kind, PeerEntry::Kind::kPool);
  EXPECT_EQ(parsed.Find(5)->data.ToString(), "127.0.0.1:9005");
  EXPECT_EQ(parsed.Find(99), nullptr);
}

TEST(AddressTest, MalformedConfigsAreRejected) {
  ClusterConfig parsed;
  std::string error;
  EXPECT_FALSE(ParseClusterConfig("", &parsed, &error));
  EXPECT_FALSE(ParseClusterConfig("garbage here\n", &parsed, &error));
  EXPECT_FALSE(ParseClusterConfig(
      "node 0 replica not-an-addr 127.0.0.1:1\n", &parsed, &error));
  // Duplicate node ids.
  EXPECT_FALSE(ParseClusterConfig(
      "node 0 replica 127.0.0.1:9000 127.0.0.1:9100\n"
      "node 0 replica 127.0.0.1:9001 127.0.0.1:9101\n",
      &parsed, &error));
}

TEST(AddressTest, SockAddrParsing) {
  SockAddr addr;
  EXPECT_TRUE(ParseSockAddr("127.0.0.1:8080", &addr));
  EXPECT_EQ(addr.ip, 0x7f000001u);
  EXPECT_EQ(addr.port, 8080);
  EXPECT_EQ(addr.ToString(), "127.0.0.1:8080");
  EXPECT_FALSE(ParseSockAddr("127.0.0.1", &addr));
  EXPECT_FALSE(ParseSockAddr("300.0.0.1:80", &addr));
  EXPECT_FALSE(ParseSockAddr("1.2.3.4:99999", &addr));
  EXPECT_FALSE(ParseSockAddr("1.2.3.4:80x", &addr));
}

}  // namespace
}  // namespace net
}  // namespace prestige
