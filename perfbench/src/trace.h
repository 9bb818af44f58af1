// Traced-run interposers. Everything here sits outside the program: it
// wraps the public runtime::Node / runtime::Env / app::Service interfaces
// and records what crosses them.
//
//   * TracedNode registers with a runtime in place of a replica or the
//     client and forwards OnStart / OnMessage / PreVerify / OnTimer to it,
//     timing each callback (busy time, per-message-type handler time) and
//     crediting SHA-256 work to the node through a crypto::CryptoMeter.
//   * TracedEnv is the Env the wrapped node is bound to. It forwards every
//     call to the runtime's Env and counts what the node sends: messages,
//     WireSize() bytes, and the message boundaries the stage spans are cut
//     at (client batch sent, Ord proposed, Cmt sent, Camp sent).
//   * TracedService wraps the replica's app::Service (installed through
//     SetService) and times Execute calls and each block's execution.
//
// Each NodeTrace is written only by its node's loop thread; read traces
// after the runtime has stopped. The one shared structure is the
// send-stamp table behind queue-wait measurement, guarded by a mutex.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "core/messages.h"
#include "crypto/sha256.h"
#include "runtime/env.h"
#include "types/client_messages.h"
#include "util.h"

namespace perfbench {

using namespace prestige;

struct OrdEvent {
  int64_t n = 0;
  int64_t at_us = 0;
  std::vector<uint64_t> seqs;  ///< client_seq of every proposed tx.
};

struct ExecSpan {
  int64_t n = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

struct HandlerCost {
  int64_t calls = 0;
  int64_t ns = 0;
};

/// What one node did during a traced run.
struct NodeTrace {
  int64_t busy_ns = 0;
  std::unordered_map<const char*, HandlerCost> handlers;  ///< By Name().
  int64_t msgs_sent = 0;
  int64_t bytes_sent = 0;
  std::vector<double> queue_wait_us;
  crypto::CryptoMeter meter;

  // Replica-side message boundaries (runtime micros).
  std::vector<OrdEvent> ords;
  std::unordered_map<int64_t, int64_t> cmt_sent_us;  ///< n -> first Cmt.
  int64_t first_camp_us = -1;
  std::vector<ExecSpan> exec_spans;
  std::vector<double> execute_us;  ///< Per Service::Execute call.

  // Client-side boundaries.
  std::unordered_map<uint64_t, int64_t> tx_sent_us;   ///< First batch send.
  std::unordered_map<uint64_t, uint32_t> reply_from;  ///< Replica bitmask.
  std::unordered_map<uint64_t, int64_t> tx_matched_us;

  /// Every 16th message sent, kept for the codec calibration.
  std::vector<runtime::MessagePtr> sampled;
  int64_t send_count = 0;
};

/// Shared state of one traced deployment.
class Tracer {
 public:
  /// `queue_wait` enables Send -> handler-entry stamps; only meaningful
  /// when the receiver gets the sender's own message object (threaded).
  Tracer(bool queue_wait, uint32_t reply_quorum)
      : queue_wait_(queue_wait), reply_quorum_(reply_quorum) {}

  NodeTrace* NewNode() {
    nodes_.push_back(std::make_unique<NodeTrace>());
    return nodes_.back().get();
  }
  uint32_t reply_quorum() const { return reply_quorum_; }

  void StampSend(const void* msg) {
    if (!queue_wait_) return;
    std::lock_guard<std::mutex> lock(mu_);
    sent_ns_[msg] = MonoNs();
  }
  /// Queue wait in microseconds, or -1 when the message was not stamped.
  double QueueWaitUs(const void* msg) {
    if (!queue_wait_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sent_ns_.find(msg);
    if (it == sent_ns_.end()) return -1;
    return static_cast<double>(MonoNs() - it->second) / 1000.0;
  }

 private:
  const bool queue_wait_;
  const uint32_t reply_quorum_;
  std::vector<std::unique_ptr<NodeTrace>> nodes_;
  std::mutex mu_;
  /// Message object -> last send time. A freed object's address can only
  /// be reused once every receiver has released it, so overwriting on
  /// re-send never mis-times a delivery still in flight.
  std::unordered_map<const void*, int64_t> sent_ns_;
};

class TracedEnv final : public runtime::Env {
 public:
  TracedEnv(runtime::Node* outer, NodeTrace* trace, Tracer* tracer)
      : outer_(outer), trace_(trace), tracer_(tracer) {}

  runtime::NodeId id() const override { return outer_->env()->id(); }
  void Send(runtime::NodeId to, runtime::MessagePtr msg) override {
    Record(msg, 1);
    outer_->env()->Send(to, std::move(msg));
  }
  void Send(const std::vector<runtime::NodeId>& targets,
            runtime::MessagePtr msg) override {
    Record(msg, static_cast<int64_t>(targets.size()));
    outer_->env()->Send(targets, std::move(msg));
  }
  runtime::TimerId SetTimer(util::DurationMicros delay,
                            uint64_t tag) override {
    return outer_->env()->SetTimer(delay, tag);
  }
  void CancelTimer(runtime::TimerId timer) override {
    outer_->env()->CancelTimer(timer);
  }
  void CancelAllTimers() override { outer_->env()->CancelAllTimers(); }
  util::TimeMicros Now() const override { return outer_->env()->Now(); }
  util::Rng* rng() override { return outer_->env()->rng(); }

 private:
  void Record(const runtime::MessagePtr& msg, int64_t copies) {
    trace_->msgs_sent += copies;
    trace_->bytes_sent += static_cast<int64_t>(msg->WireSize()) * copies;
    if (trace_->send_count++ % 16 == 0 && trace_->sampled.size() < 4096) {
      trace_->sampled.push_back(msg);
    }
    tracer_->StampSend(msg.get());
    const runtime::NetMessage* m = msg.get();
    const int64_t now = Now();
    if (auto* batch = dynamic_cast<const types::ClientBatch*>(m)) {
      for (const types::Transaction& tx : batch->txs) {
        trace_->tx_sent_us.emplace(tx.client_seq, now);
      }
    } else if (auto* ord = dynamic_cast<const core::OrdMsg*>(m)) {
      OrdEvent event;
      event.n = ord->n;
      event.at_us = now;
      event.seqs.reserve(ord->txs.size());
      for (const types::Transaction& tx : ord->txs) {
        event.seqs.push_back(tx.client_seq);
      }
      trace_->ords.push_back(std::move(event));
    } else if (auto* cmt = dynamic_cast<const core::CmtMsg*>(m)) {
      trace_->cmt_sent_us.emplace(cmt->n, now);
    } else if (dynamic_cast<const core::CampMsg*>(m) != nullptr) {
      if (trace_->first_camp_us < 0) trace_->first_camp_us = now;
    }
  }

  runtime::Node* outer_;
  NodeTrace* trace_;
  Tracer* tracer_;
};

/// Registered with the runtime in place of `inner`, which it owns the
/// Env binding of.
class TracedNode final : public runtime::Node {
 public:
  TracedNode(runtime::Node* inner, Tracer* tracer, bool is_client)
      : inner_(inner),
        tracer_(tracer),
        trace_(tracer->NewNode()),
        env_(this, trace_, tracer),
        is_client_(is_client) {
    inner_->BindEnv(&env_);
  }

  NodeTrace* trace() const { return trace_; }

  void OnStart() override {
    Scope scope(this, "OnStart");
    inner_->OnStart();
  }

  void OnMessage(runtime::NodeId from,
                 const runtime::MessagePtr& msg) override {
    const double wait = tracer_->QueueWaitUs(msg.get());
    if (wait >= 0) trace_->queue_wait_us.push_back(wait);
    if (is_client_) CountReplies(*msg);
    Scope scope(this, msg->Name());
    inner_->OnMessage(from, msg);
  }

  VerdictFn PreVerify(runtime::NodeId from,
                      const runtime::MessagePtr& msg) override {
    return inner_->PreVerify(from, msg);
  }

  void OnTimer(uint64_t tag) override {
    Scope scope(this, "timer");
    inner_->OnTimer(tag);
  }

 private:
  class Scope {
   public:
    Scope(TracedNode* node, const char* name)
        : node_(node), name_(name), meter_(&node->trace_->meter),
          start_ns_(MonoNs()) {}
    ~Scope() {
      const int64_t ns = MonoNs() - start_ns_;
      node_->trace_->busy_ns += ns;
      HandlerCost& cost = node_->trace_->handlers[name_];
      ++cost.calls;
      cost.ns += ns;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TracedNode* node_;
    const char* name_;
    crypto::ScopedCryptoMeter meter_;
    int64_t start_ns_;
  };

  /// The f+1-th distinct replica reporting a request marks its match.
  void CountReplies(const runtime::NetMessage& msg) {
    auto* reply = dynamic_cast<const types::ClientReply*>(&msg);
    if (reply == nullptr || reply->replica >= 32) return;
    for (const types::ReplyEntry& entry : reply->entries) {
      uint32_t& from = trace_->reply_from[entry.client_seq];
      from |= 1u << reply->replica;
      if (static_cast<uint32_t>(__builtin_popcount(from)) ==
          tracer_->reply_quorum()) {
        trace_->tx_matched_us.emplace(entry.client_seq, env()->Now());
      }
    }
  }

  runtime::Node* inner_;
  Tracer* tracer_;
  NodeTrace* trace_;
  TracedEnv env_;
  bool is_client_;
};

/// Wraps a replica's service; runs on that replica's loop thread.
class TracedService final : public app::Service {
 public:
  TracedService(std::unique_ptr<app::Service> inner, runtime::Node* node,
                NodeTrace* trace)
      : inner_(std::move(inner)), node_(node), trace_(trace) {}

  app::Response Execute(const types::Transaction& tx) override {
    if (!in_block_) {
      in_block_ = true;
      block_start_us_ = node_->env()->Now();
    }
    const int64_t start = MonoNs();
    app::Response response = inner_->Execute(tx);
    trace_->execute_us.push_back(static_cast<double>(MonoNs() - start) /
                                 1000.0);
    return response;
  }
  void OnBlockCommitted(types::SeqNum n, types::View v) override {
    const int64_t now = node_->env()->Now();
    trace_->exec_spans.push_back(
        ExecSpan{n, in_block_ ? block_start_us_ : now, now});
    in_block_ = false;
    inner_->OnBlockCommitted(n, v);
  }
  void OnCheckpoint(types::SeqNum n) override { inner_->OnCheckpoint(n); }
  uint64_t StateDigest() const override { return inner_->StateDigest(); }
  int64_t applied_count() const override { return inner_->applied_count(); }

 private:
  std::unique_ptr<app::Service> inner_;
  runtime::Node* node_;
  NodeTrace* trace_;
  bool in_block_ = false;
  int64_t block_start_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
