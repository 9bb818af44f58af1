// PrestigeReplica: construction, message dispatch, SyncUp and refresh.
// Replication logic lives in replication.cc; the active view-change
// protocol in view_change.cc; the plumbing shared with the baselines in
// replica_shell.cc.

#include "core/replica.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace prestige {
namespace core {

const char* RoleName(Role role) {
  switch (role) {
    case Role::kFollower:
      return "follower";
    case Role::kRedeemer:
      return "redeemer";
    case Role::kCandidate:
      return "candidate";
    case Role::kLeader:
      return "leader";
  }
  return "?";
}

PrestigeReplica::PrestigeReplica(PrestigeConfig config,
                                 types::ReplicaId replica_id,
                                 const crypto::KeyStore* keys,
                                 types::FaultSpec fault)
    : ReplicaShell(replica_id, keys, fault, config.batch_size),
      config_(config),
      engine_(config.reputation),
      modeled_solver_(config.pow) {}

PrestigeReplica::~PrestigeReplica() = default;

// ------------------------------------------------------------ reputation

types::Penalty PrestigeReplica::EffectiveRp(types::ReplicaId id) const {
  auto it = refresh_overlay_.find(id);
  if (it != refresh_overlay_.end()) return it->second.first;
  const ledger::VcBlock* current = store_.LatestVcBlock();
  return current != nullptr ? current->PenaltyOf(id)
                            : engine_.initial_rp();
}

types::CompensationIndex PrestigeReplica::EffectiveCi(
    types::ReplicaId id) const {
  auto it = refresh_overlay_.find(id);
  if (it != refresh_overlay_.end()) return it->second.second;
  const ledger::VcBlock* current = store_.LatestVcBlock();
  return current != nullptr ? current->CompensationOf(id)
                            : engine_.initial_ci();
}

// ---------------------------------------------------------------- start

void PrestigeReplica::OnStart() {
  // Timeout stream: F1 attackers mimic a victim's stream so their timeouts
  // fire in lock-step with the victim's (modulo network jitter).
  const uint64_t timeout_identity =
      fault_.has_mimic_target ? fault_.mimic_target : id_;
  timeout_rng_.Seed(config_.timeout_seed_base ^
                    (timeout_identity * 0x9e3779b97f4a7c15ULL));

  // F4 attackers probe for campaign opportunities continuously.
  if (fault_.type == types::FaultType::kRepeatedVc) {
    SetTimer(util::Millis(100), Tag(kAttackProbe));
  }

  // Install the genesis vcBlock for view 1 with leader S0 and initial
  // reputation values (paper §3 Init / Appendix C).
  ledger::VcBlock genesis;
  genesis.set_v(1);
  genesis.set_leader(0);
  genesis.set_confirmed_view(0);
  for (types::ReplicaId r = 0; r < config_.n; ++r) {
    genesis.SetPenalty(r, engine_.initial_rp());
    genesis.SetCompensation(r, engine_.initial_ci());
  }
  util::Status st = store_.AppendVcBlock(genesis);
  assert(st.ok());
  (void)st;

  view_ = 1;
  leader_ = 0;
  voted_view_ = 1;
  view_entered_at_ = Now();

  if (id_ == 0) {
    role_ = Role::kLeader;
    replication_enabled_ = true;
    ++metrics_.views_led;
    metrics_.last_led_at = Now();
    StartLeading();
  } else {
    role_ = Role::kFollower;
    ArmProgressTimer();
  }
  if (config_.rotation_period > 0) {
    // Small jitter staggers policy-driven campaigns across servers.
    const util::DurationMicros jitter =
        rng()->NextInRange(0, util::Millis(300));
    rotation_timer_ =
        SetTimer(config_.rotation_period + jitter, Tag(kRotationDue));
  }
  if (fault_.type == types::FaultType::kCrash) {
    // Crash faults are modeled at the network layer by the harness; the
    // replica itself needs no behaviour change here.
  }
  if (EquivocateActive(Leading()) ||
      fault_.type == types::FaultType::kEquivocate) {
    SetTimer(util::Millis(50), Tag(kNoiseTimer));
  }
}

// ------------------------------------------------------------- dispatch

void PrestigeReplica::OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) {
  if (CrashedNow()) {
    return;  // Crashed replicas process nothing.
  }

  if (auto* m = dynamic_cast<const types::ClientBatch*>(msg.get())) {
    OnClientBatch(msg, *m);
    return;
  }
  if (auto* m = dynamic_cast<const types::ClientComplaint*>(msg.get())) {
    OnClientComplaint(msg, *m);
    return;
  }
  if (auto* m = dynamic_cast<const OrdMsg*>(msg.get())) {
    OnOrd(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const OrdReplyMsg*>(msg.get())) {
    OnOrdReply(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const CmtMsg*>(msg.get())) {
    OnCmt(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const CmtReplyMsg*>(msg.get())) {
    OnCmtReply(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const TxBlockMsg*>(msg.get())) {
    OnTxBlockMsg(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const HeartbeatMsg*>(msg.get())) {
    OnHeartbeat(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const ComptRelayMsg*>(msg.get())) {
    OnComptRelay(msg, *m);
    return;
  }
  if (auto* m = dynamic_cast<const ConfVcMsg*>(msg.get())) {
    OnConfVc(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const ReVcMsg*>(msg.get())) {
    OnReVc(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const CampMsg*>(msg.get())) {
    OnCamp(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const VoteCpMsg*>(msg.get())) {
    OnVoteCp(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const VcBlockMsg*>(msg.get())) {
    OnVcBlockMsg(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const VcYesMsg*>(msg.get())) {
    OnVcYes(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const RefMsg*>(msg.get())) {
    OnRef(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const RefReplyMsg*>(msg.get())) {
    OnRefReply(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const RdoneMsg*>(msg.get())) {
    OnRdone(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const SyncReqMsg*>(msg.get())) {
    OnSyncReq(from, *m);
    return;
  }
  if (auto* m = dynamic_cast<const SyncRespMsg*>(msg.get())) {
    OnSyncResp(from, *m);
    return;
  }
  if (dynamic_cast<const NoiseMsg*>(msg.get()) != nullptr) {
    // Attack traffic: consumes bandwidth/CPU (already charged), no action.
    return;
  }
  ++metrics_.invalid_messages;
}

void PrestigeReplica::OnTimer(uint64_t tag) {
  if (CrashedNow()) {
    return;
  }
  switch (TagKind<TimerKind>(tag)) {
    case kProgressTimeout: {
      progress_timer_ = 0;
      if (role_ == Role::kLeader) break;
      progress_stale_ = true;
      // Leader appears dead: start the inspection (reason kTimeout).
      StartInspection(VcReason::kTimeout, nullptr);
      ArmProgressTimer();  // Keep ticking; a later VC may still be needed.
      break;
    }
    case kBatchTimer:
      batch_timer_ = 0;
      // Record the expired deadline before proposing: if the pipeline is
      // full right now, the pending partial must still go out as soon as a
      // slot frees (MaybePropose clears the flag once it does).
      partial_due_ = true;
      MaybePropose(/*allow_partial=*/true);
      break;
    case kElectionTimeout: {
      election_timer_ = 0;
      if (role_ != Role::kCandidate) break;
      // Split vote (§4.2.3): back to redeemer with an incremented view.
      // The retry is staggered randomly so competing candidates do not
      // collide again in lock-step (the role of randomized timers, §4.2.1),
      // and bounded: repeated splits mean other candidates are active, so
      // yield and let the progress timer restart detection cheaply instead
      // of paying ever-growing view-skip penalties (Eq. 1).
      ++metrics_.election_timeouts;
      if (++consecutive_election_timeouts_ >= 2) {
        ReturnToFollower();
        break;
      }
      const util::DurationMicros backoff =
          rng()->NextInRange(1, config_.election_timeout);
      election_timer_ = SetTimer(backoff, Tag(kElectionRetry));
      break;
    }
    case kElectionRetry: {
      election_timer_ = 0;
      if (role_ != Role::kCandidate) break;
      BecomeRedeemer(campaign_conf_qc_, confirmed_view_, campaign_view_ + 1);
      break;
    }
    case kPowDone:
      pow_timer_ = 0;
      OnPowSolved();
      break;
    case kRotationDue:
      rotation_timer_ = 0;
      OnRotationDue();
      break;
    case kHeartbeat:
      heartbeat_timer_ = 0;
      if (role_ == Role::kLeader && replication_enabled_) {
        auto hb = std::make_shared<HeartbeatMsg>();
        hb->v = view_;
        hb->latest_n = store_.LatestTxSeq();
        hb->sig = SignMaybeCorrupt(Leading(),
                                   HeartbeatDigest(hb->v, hb->latest_n));
        GuardedSend(Leading(), PeerActors(), hb);
        RetransmitStalledInstances();
        heartbeat_timer_ =
            SetTimer(config_.timeout_min / 3, Tag(kHeartbeat));
      }
      break;
    case kComplaintWait:
      HandleComplaintTimer(TagPayload(tag));
      break;
    case kInspectionTimeout:
      inspection_timer_ = 0;
      // f+1 ReVCs did not arrive: the client (or our suspicion) was wrong.
      inspecting_ = false;
      break;
    case kNoiseTimer:
      if (EquivocateActive(Leading())) {
        auto noise = std::make_shared<NoiseMsg>();
        noise->bytes = 2048;
        Send(PeerActors(), noise);
      }
      if (fault_.type == types::FaultType::kEquivocate ||
          fault_.type == types::FaultType::kRepeatedVc) {
        SetTimer(util::Millis(50), Tag(kNoiseTimer));
      }
      break;
    case kAttackProbe:
      // F4: probe for campaign opportunities. The attacker uses the reason
      // correct servers will endorse — the timing policy when enabled (any
      // server may confirm a due rotation), otherwise leader timeouts.
      if (fault_.type == types::FaultType::kRepeatedVc &&
          Now() >= fault_.start_at) {
        if (role_ == Role::kFollower && config_.rotation_period > 0 &&
            Now() - view_entered_at_ >= config_.rotation_period * 9 / 10) {
          StartInspection(VcReason::kPolicy, nullptr);
        } else if (role_ == Role::kFollower && progress_stale_) {
          StartInspection(VcReason::kTimeout, nullptr);
        } else if (role_ == Role::kLeader && replication_enabled_ &&
                   Now() - view_entered_at_ >= config_.timeout_min) {
          // The attacker contests its own deposition so no honest leader
          // replicates between its elections. It races on purpose: an
          // unendorsed solicitation is abandoned and re-sent every probe
          // tick, and it cites a client complaint it received itself the
          // moment one exists — honest servers sit out complaint_wait
          // before escalating the same evidence, so the attacker's ConfVc
          // reaches the followers first. Without complaint evidence (e.g.
          // a fully quiet reign starves the clients' complaint path too)
          // it falls back to the timeout reason, endorsable once the
          // missing heartbeats leave the followers progress-stale.
          if (inspecting_ && inspection_timer_ != 0) {
            CancelTimer(inspection_timer_);
            inspection_timer_ = 0;
            inspecting_ = false;
          }
          const types::Transaction* evidence = nullptr;
          uint64_t evidence_key = 0;
          for (const auto& [key, state] : complaints_) {
            if (Decided(state.tx)) continue;
            if (evidence == nullptr || key < evidence_key) {
              evidence = &state.tx;
              evidence_key = key;
            }
          }
          if (evidence == nullptr && has_attack_complaint_) {
            if (!Decided(attack_complaint_tx_)) {
              evidence = &attack_complaint_tx_;
            } else {
              has_attack_complaint_ = false;
            }
          }
          if (evidence != nullptr) {
            StartInspection(VcReason::kClientComplaint, evidence);
          } else {
            StartInspection(VcReason::kTimeout, nullptr);
          }
        }
      }
      if (fault_.type == types::FaultType::kRepeatedVc) {
        SetTimer(util::Millis(20), Tag(kAttackProbe));
      }
      break;
  }
}

// ------------------------------------------------------------------ sync

void PrestigeReplica::RequestSync(runtime::NodeId from, SyncReqMsg::Kind kind,
                                  int64_t after, int64_t up_to) {
  util::TimeMicros& backoff_until = kind == SyncReqMsg::Kind::kTxBlocks
                                        ? tx_sync_backoff_until_
                                        : vc_sync_backoff_until_;
  if (Now() < backoff_until) return;
  backoff_until = Now() + config_.complaint_wait;
  ++metrics_.sync_ups;
  auto req = std::make_shared<SyncReqMsg>();
  req->kind = kind;
  req->after = after;
  req->up_to = up_to;
  GuardedSend(Leading(), from, req);
}

void PrestigeReplica::OnSyncReq(runtime::NodeId from, const SyncReqMsg& msg) {
  auto resp = std::make_shared<SyncRespMsg>();
  if (msg.kind == SyncReqMsg::Kind::kTxBlocks) {
    resp->tx_blocks = store_.TxBlocksAfter(msg.after, msg.up_to);
  } else {
    resp->vc_blocks = store_.VcBlocksAfter(msg.after, msg.up_to);
  }
  if (resp->tx_blocks.empty() && resp->vc_blocks.empty()) return;
  GuardedSend(Leading(), from, resp);
}

void PrestigeReplica::OnSyncResp(runtime::NodeId from, const SyncRespMsg& msg) {
  (void)from;
  if (!msg.vc_blocks.empty()) vc_sync_backoff_until_ = 0;
  if (!msg.tx_blocks.empty()) tx_sync_backoff_until_ = 0;
  for (const ledger::VcBlock& block : msg.vc_blocks) {
    if (block.v() <= store_.CurrentView()) continue;
    if (!ValidateAndAppendVcBlock(block).ok()) {
      ++metrics_.invalid_messages;
      return;
    }
    // Adopt the view: a synced vcBlock moves us forward as a follower.
    if (block.v() > view_) {
      InstallVcBlock(block, /*as_leader=*/false);
    }
  }
  for (const ledger::TxBlock& block : msg.tx_blocks) {
    if (block.n() <= store_.LatestTxSeq()) continue;
    if (!ValidateAndAppendTxBlock(block).ok()) {
      ++metrics_.invalid_messages;
      return;
    }
    commit_bound_.erase(block.n());
    pending_blocks_.erase(block.n());
  }
  // A newly elected leader catching up to the cluster tip (C3 slack) may
  // now begin proposing.
  if (awaiting_catchup_ && role_ == Role::kLeader) {
    if (store_.LatestTxSeq() >= catchup_target_) {
      awaiting_catchup_ = false;
      StartLeading();
    } else if (!msg.tx_blocks.empty()) {
      RequestSync(catchup_source_, SyncReqMsg::Kind::kTxBlocks,
                  store_.LatestTxSeq(), catchup_target_);
    }
  }
  ReplayStashedCampaigns();
}

util::Status PrestigeReplica::ValidateAndAppendTxBlock(
    const ledger::TxBlock& block) {
  const crypto::Sha256Digest digest = block.Digest();
  PRESTIGE_RETURN_IF_ERROR(crypto::VerifyQuorumCert(
      *keys_, block.commit_qc,
      ledger::CommitDigest(block.v, block.n(), digest), config_.quorum()));
  ledger::TxBlock copy = block;
  util::Status st = store_.AppendTxBlock(std::move(copy));
  if (st.ok()) {
    // One delivery path for every commit route (leader, follower, sync):
    // exactly-once execution + per-pool replies carrying the results.
    DeliverBlock(block, QuietActive(Leading()));
    if (!complaints_.empty()) {
      for (const types::Transaction& tx : block.txs()) {
        auto it = complaints_.find(TxKey(tx));
        if (it != complaints_.end()) {
          ResolveComplaint(it);
        }
      }
    }
  }
  return st;
}

util::Status PrestigeReplica::ValidateAndAppendVcBlock(
    const ledger::VcBlock& block) {
  if (block.confirmed_view() > 0 || !block.conf_qc.empty()) {
    PRESTIGE_RETURN_IF_ERROR(crypto::VerifyQuorumCert(
        *keys_, block.conf_qc, ledger::ConfDigest(block.confirmed_view()),
        config_.confirm()));
  }
  PRESTIGE_RETURN_IF_ERROR(crypto::VerifyQuorumCert(
      *keys_, block.vc_qc, ledger::VoteDigest(block.v(), block.leader()),
      config_.quorum()));
  ledger::VcBlock copy = block;
  return store_.AppendVcBlock(std::move(copy));
}

void PrestigeReplica::ReplayStashedCampaigns() {
  if (stashed_camps_.empty() && stashed_vc_blocks_.empty()) return;
  auto camps = std::move(stashed_camps_);
  stashed_camps_.clear();
  for (auto& [from, camp] : camps) {
    OnCamp(from, camp);
  }
  auto blocks = std::move(stashed_vc_blocks_);
  stashed_vc_blocks_.clear();
  for (auto& [from, block] : blocks) {
    VcBlockMsg msg;
    msg.block = block;
    OnVcBlockMsg(from, msg);
  }
}

// --------------------------------------------------------------- refresh

void PrestigeReplica::MaybeRequestRefresh() {
  if (!config_.enable_refresh || refresh_pending_) return;
  if (EffectiveRp(id_) <= engine_.refresh_threshold()) return;
  refresh_pending_ = true;
  refresh_builder_ = crypto::QuorumCertBuilder(
      ledger::RefreshDigest(id_, view_), config_.quorum());
  refresh_builder_.Add(signer_.Sign(ledger::RefreshDigest(id_, view_)),
                       ledger::RefreshDigest(id_, view_));
  auto ref = std::make_shared<RefMsg>();
  ref->v = view_;
  ref->sig = SignMaybeCorrupt(Leading(), ledger::ConfDigest(view_));
  GuardedSend(Leading(), PeerActors(), ref);
}

void PrestigeReplica::OnRef(runtime::NodeId from, const RefMsg& msg) {
  // Support a refresh only for servers whose recorded penalty exceeds pi
  // (§4.2.5): this is the verifiable condition every correct server checks.
  types::ReplicaId requester = config_.n;
  for (types::ReplicaId r = 0; r < config_.n; ++r) {
    if (replicas_[r] == from) {
      requester = r;
      break;
    }
  }
  if (requester >= config_.n) return;
  if (EffectiveRp(requester) <= engine_.refresh_threshold()) return;
  auto reply = std::make_shared<RefReplyMsg>();
  reply->target = requester;
  reply->v = msg.v;
  reply->partial = SignMaybeCorrupt(
      Leading(), ledger::RefreshDigest(requester, msg.v));
  GuardedSend(Leading(), from, reply);
}

void PrestigeReplica::OnRefReply(runtime::NodeId from, const RefReplyMsg& msg) {
  (void)from;
  if (!refresh_pending_ || msg.target != id_) return;
  const crypto::Sha256Digest digest = ledger::RefreshDigest(id_, msg.v);
  if (digest != refresh_builder_.digest()) return;
  if (!keys_->Verify(msg.partial, digest)) {
    ++metrics_.invalid_messages;
    return;
  }
  refresh_builder_.Add(msg.partial, digest);
  if (!refresh_builder_.Complete()) return;

  // rs_QC complete: reset own rp/ci and broadcast Rdone.
  refresh_pending_ = false;
  ++metrics_.refreshes;
  refresh_overlay_[id_] = {engine_.initial_rp(), engine_.initial_ci()};
  auto done = std::make_shared<RdoneMsg>();
  done->target = id_;
  done->v = view_;
  done->rs_qc = refresh_builder_.Build();
  done->sig = SignMaybeCorrupt(Leading(), ledger::RefreshDigest(id_, view_));
  GuardedSend(Leading(), PeerActors(), done);
}

void PrestigeReplica::OnRdone(runtime::NodeId from, const RdoneMsg& msg) {
  (void)from;
  // The rs_QC proves 2f+1 servers endorsed the refresh at msg.v.
  if (!crypto::VerifyQuorumCert(*keys_, msg.rs_qc,
                                ledger::RefreshDigest(msg.target, msg.v),
                                config_.quorum())
           .ok()) {
    ++metrics_.invalid_messages;
    return;
  }
  refresh_overlay_[msg.target] = {engine_.initial_rp(), engine_.initial_ci()};
}

}  // namespace core
}  // namespace prestige
