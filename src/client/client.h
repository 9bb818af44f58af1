// client::Client — the embeddable BFT client library.
//
// One Client is one client session (a `pool` in the transaction id space)
// that can keep any number of commands in flight. It is layered only on
// runtime::Env, so the same implementation drives PrestigeBFT, HotStuff,
// and SBFT on both the deterministic simulator (runtime::SimEnv) and the
// real-time threaded backend (runtime::ThreadedRuntime).
//
// Protocol per request (§4.3 / §4.2.1 of the paper, with results):
//   * Submit assigns the next client_seq and broadcasts the command to all
//     replicas (batched within `aggregation_window`);
//   * replies (types::ClientReply) carry each replica's execution result;
//     the request completes when f+1 distinct replicas report the SAME
//     result digest — divergent digests are counted as result mismatches
//     and never complete a request;
//   * an unanswered request is retransmitted after `retransmit_after`, and
//     escalated with a ClientComplaint broadcast after `request_timeout`
//     (repeating every timeout) — the complaint feeds the replicas'
//     failure-detection path and, for already-committed requests, re-serves
//     the cached reply from their session tables.
//
// Threading: Submit()/Flush() are loop-context calls — legal only from
// this node's own callbacks (OnStart / completion callbacks / timers).
// SubmitAsync() and the blocking Call() are thread-safe: they marshal the
// command onto the owning event loop through a loopback self-send, which
// is how an embedder on ThreadedRuntime drives the cluster from ordinary
// threads. (On the simulator there is no foreign thread, so sim code uses
// Submit directly.)

#ifndef PRESTIGE_CLIENT_CLIENT_H_
#define PRESTIGE_CLIENT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "runtime/env.h"
#include "types/adversary.h"
#include "types/client_messages.h"
#include "types/ids.h"
#include "types/transaction.h"
#include "util/bitset.h"
#include "util/stats.h"

namespace prestige {
namespace client {

/// Client session parameters.
struct ClientConfig {
  types::ClientPoolId client_id = 0;  ///< Session id (transaction `pool`).
  /// Consensus group this session is bound to. A sharded embedder runs one
  /// Client per group (SetReplicas with that group's replica set); every
  /// transaction it submits is stamped with this id. 0 when unsharded.
  types::GroupId group = 0;
  uint32_t f = 1;                     ///< Reply quorum is f+1 matching.
  uint32_t payload_size = 32;         ///< Modelled bytes per command.
  /// Rebroadcast an unanswered proposal after this long.
  util::DurationMicros retransmit_after = util::Millis(500);
  /// Escalate to a ClientComplaint after this long (then every timeout).
  util::DurationMicros request_timeout = util::Seconds(1);
  /// Commands submitted within one window ride one ClientBatch.
  util::DurationMicros aggregation_window = util::Millis(1);
  /// Period of the retransmit / complaint scan.
  util::DurationMicros retry_scan_period = util::Millis(200);
};

/// Outcome of one submitted command.
struct SubmitResult {
  app::ExecStatus status = app::ExecStatus::kOk;
  std::vector<uint8_t> result;     ///< Opaque result (f+1-matched).
  types::SeqNum height = 0;        ///< Block height it committed at.
  util::DurationMicros latency = 0;
  bool timed_out = false;          ///< Only set by the blocking Call().
};

using SubmitCallback = std::function<void(const SubmitResult&)>;

/// Client-observed counters.
struct ClientStats {
  int64_t completed = 0;          ///< Requests with an f+1 reply quorum.
  int64_t replies_received = 0;   ///< Reply entries matched to a request.
  int64_t duplicate_replies = 0;  ///< Same replica re-acking same digest.
  int64_t result_mismatches = 0;  ///< Conflicting result digests seen.
  int64_t retransmissions = 0;
  int64_t complaints_sent = 0;
  int64_t expired = 0;            ///< Requests abandoned at their deadline.
};

/// Internal marshal message for SubmitAsync/Call: carries the command (and
/// its completion) from a foreign thread onto the owning event loop via a
/// loopback self-send. Never leaves the local node.
// lint:allow(wire-kinds: carries a closure; in-process marshalling only)
struct SubmitRequestMsg : public runtime::NetMessage {
  std::vector<uint8_t> command;
  SubmitCallback done;
  util::DurationMicros expire_after = 0;

  size_t WireSize() const override { return command.size() + 72; }
  const char* Name() const override { return "ClientSubmit"; }
};

/// The client session node.
class Client : public runtime::Node {
 public:
  explicit Client(ClientConfig config);
  ~Client() override = default;

  /// Node ids of all replicas (proposals and complaints are broadcast).
  void SetReplicas(std::vector<runtime::NodeId> replicas);

  /// Installs an active-adversary policy (harness wiring only; nullptr =
  /// honest, the default). A spam-scripted client broadcasts bogus
  /// complaints about never-submitted transactions on every retry scan.
  void SetAdversary(const types::AdversaryPolicy* adversary) {
    adversary_ = adversary;
  }

  /// Submits one command from loop context (this node's own callbacks).
  /// Returns the assigned client_seq. `done` fires on completion — or,
  /// when `expire_after` > 0 and the deadline passes first, with
  /// `timed_out` set, after which the request is abandoned (no further
  /// retransmission or complaints). 0 = retry until completion.
  uint64_t Submit(std::vector<uint8_t> command, SubmitCallback done,
                  util::DurationMicros expire_after = 0);

  /// Thread-safe submit: marshals onto the owning event loop. For
  /// embedders on the threaded backend.
  void SubmitAsync(std::vector<uint8_t> command, SubmitCallback done,
                   util::DurationMicros expire_after = 0);

  /// Blocking convenience for the threaded backend: submits and waits for
  /// the f+1-matched result (or `wait_limit`, returning timed_out). Must
  /// NOT be called from this node's own event loop.
  SubmitResult Call(std::vector<uint8_t> command,
                    util::DurationMicros wait_limit = util::Seconds(30));

  /// Sends the aggregation buffer now instead of waiting for the window.
  void Flush();

  // runtime::Node interface.
  void OnStart() override;
  void OnMessage(runtime::NodeId from, const runtime::MessagePtr& msg) override;
  void OnTimer(uint64_t tag) override;

  const ClientConfig& config() const { return config_; }
  const ClientStats& stats() const { return stats_; }
  /// Completed-request latencies in milliseconds.
  util::Histogram& latencies() { return latencies_; }
  size_t outstanding() const { return pending_.size(); }

 private:
  enum TimerTag : uint64_t { kFlush = 1, kRetryScan = 2 };
  // Shared 48-bit tag packing (util/timer_tag.h).
  static uint64_t Tag(TimerTag kind) { return util::PackTimerTag(kind, 0); }
  static TimerTag TagKind(uint64_t tag) {
    return util::TimerTagKind<TimerTag>(tag);
  }

  /// Reply votes for one result digest.
  struct DigestVotes {
    util::SmallBitset replicas;       ///< Who reported this digest.
    types::ReplyEntry first;          ///< Representative entry (result bytes).
    types::SeqNum height = 0;
  };

  struct Pending {
    types::Transaction tx;
    SubmitCallback done;
    util::TimeMicros last_send = 0;
    util::TimeMicros last_complaint = 0;
    util::TimeMicros expire_at = 0;  ///< 0 = retry until completion.
    std::unordered_map<uint64_t, DigestVotes> votes;  ///< By result digest.
  };

  void OnReply(runtime::NodeId from, const types::ClientReply& reply);
  void ScanRetries();

  ClientConfig config_;
  /// Active-adversary interposer (nullptr = honest; harness-owned).
  const types::AdversaryPolicy* adversary_ = nullptr;
  /// Content counter for spam complaints (distinct bogus transactions).
  uint64_t spam_seq_ = 0;
  std::vector<runtime::NodeId> replicas_;
  /// Transport node id -> replica index; votes are keyed by the
  /// authenticated sender, never by a claimed id inside the message.
  std::unordered_map<runtime::NodeId, size_t> replica_index_;
  uint64_t next_seq_ = 1;
  std::unordered_map<uint64_t, Pending> pending_;  ///< By client_seq.
  std::vector<types::Transaction> pending_send_;
  bool flush_armed_ = false;
  util::Histogram latencies_;
  ClientStats stats_;
};

}  // namespace client
}  // namespace prestige

#endif  // PRESTIGE_CLIENT_CLIENT_H_
