#include "runtime/socket_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>

#include "net/wire.h"

namespace prestige {
namespace runtime {
namespace {

/// Datagrams drained per poll wakeup before timers get another look.
constexpr int kRecvBurst = 64;
/// Receive buffer: larger than kMaxDatagramBytes so oversized hostile
/// datagrams arrive untruncated and die in header validation instead of
/// masquerading as shorter frames.
constexpr size_t kRecvBufBytes = 65536;
/// Poll ceiling when no timer is armed; wake pipe handles prompt wakeups.
constexpr int kIdlePollMs = 100;

bool MakeNonBlockingPipe(int* read_fd, int* write_fd) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  for (int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
  }
  *read_fd = fds[0];
  *write_fd = fds[1];
  return true;
}

}  // namespace

SocketRuntime::NodeState::~NodeState() {
  if (wake_read >= 0) ::close(wake_read);
  if (wake_write >= 0) ::close(wake_write);
}

SocketRuntime::SocketRuntime(uint64_t seed)
    : seed_(seed), epoch_(std::chrono::steady_clock::now()) {}

SocketRuntime::~SocketRuntime() { Stop(); }

bool SocketRuntime::AddNode(Node* node, NodeId id,
                            const net::SockAddr& bind_addr,
                            std::string* error) {
  assert(!started_ && "AddNode must precede Start()");
  if (local_by_id_.count(id) > 0) {
    if (error != nullptr) {
      *error = "duplicate local node id " + std::to_string(id);
    }
    return false;
  }
  auto state = std::make_unique<NodeState>();
  state->node = node;
  state->id = id;
  if (!state->socket.Bind(bind_addr, error)) return false;
  if (!MakeNonBlockingPipe(&state->wake_read, &state->wake_write)) {
    if (error != nullptr) *error = "wake pipe creation failed";
    return false;
  }
  state->writer = std::make_unique<net::FrameWriter>(id);
  state->assembler = std::make_unique<net::FrameAssembler>(id);
  // RNG derived from (seed, id) alone — unlike the registration-order fork
  // of the other backends, every process of a deployment reproduces the
  // same stream for a given node independently.
  state->env = std::make_unique<NodeEnv>(
      this, state.get(), id,
      util::Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (uint64_t{id} + 1))));
  node->BindEnv(state->env.get());
  peers_[id] = state->socket.local_addr();
  local_by_id_[id] = state.get();
  nodes_.push_back(std::move(state));
  return true;
}

void SocketRuntime::SetPeer(NodeId id, const net::SockAddr& addr) {
  assert(!started_ && "SetPeer must precede Start()");
  peers_[id] = addr;
}

net::SockAddr SocketRuntime::local_addr(NodeId id) const {
  NodeState* s = FindLocal(id);
  return s == nullptr ? net::SockAddr{} : s->socket.local_addr();
}

void SocketRuntime::Start() {
  assert(!started_);
  started_ = true;
  stopped_ = false;
  epoch_ = std::chrono::steady_clock::now();
  for (auto& state : nodes_) {
    NodeState* s = state.get();
    s->thread = std::thread([this, s]() { RunLoop(s); });
  }
}

void SocketRuntime::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& state : nodes_) {
    state->stop.store(true, std::memory_order_relaxed);
    Wake(state.get());
  }
  for (auto& state : nodes_) {
    if (state->thread.joinable()) state->thread.join();
  }
}

util::TimeMicros SocketRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

net::FrameCounters SocketRuntime::node_net_stats(NodeId id) const {
  NodeState* s = FindLocal(id);
  if (s == nullptr) return net::FrameCounters{};
  std::lock_guard<std::mutex> lock(s->mu);
  return s->published_counters;
}

net::FrameCounters SocketRuntime::net_stats() const {
  net::FrameCounters total;
  for (const auto& state : nodes_) {
    std::lock_guard<std::mutex> lock(state->mu);
    total.MergeFrom(state->published_counters);
  }
  return total;
}

void SocketRuntime::PublishCounters(NodeState* s) {
  s->published_counters = s->send_counters;
  s->published_counters.MergeFrom(s->assembler->counters());
}

SocketRuntime::NodeState* SocketRuntime::FindLocal(NodeId id) const {
  const auto it = local_by_id_.find(id);
  return it == local_by_id_.end() ? nullptr : it->second;
}

void SocketRuntime::Wake(NodeState* s) {
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  (void)!::write(s->wake_write, &byte, 1);
}

void SocketRuntime::SendFrom(NodeState* from, const NodeId* targets,
                             size_t count, const MessagePtr& msg) {
  std::vector<uint8_t> payload;
  const bool encoded = net::EncodeMessage(*msg, &payload);
  for (size_t i = 0; i < count; ++i) {
    const NodeId to = targets[i];
    if (!encoded) {
      // No wire form: deliverable only within this process.
      NodeState* target = FindLocal(to);
      if (target == nullptr) {
        ++from->send_counters.unserializable_drops;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(target->mu);
        target->mailbox.push_back(Inbound{from->id, msg});
      }
      Wake(target);
      continue;
    }
    const auto peer = peers_.find(to);
    std::vector<std::vector<uint8_t>> frames;
    if (peer != peers_.end()) frames = from->writer->Split(to, payload);
    if (frames.empty()) {
      // Unknown peer, or a payload over net::kMaxMessageBytes (Split
      // refuses it): nothing is sent.
      ++from->send_counters.send_errors;
      continue;
    }
    // Every copy — self-sends and co-hosted destinations included — goes
    // through the kernel, so one process per node and n nodes per process
    // exercise the identical transport path.
    for (const std::vector<uint8_t>& frame : frames) {
      if (from->socket.SendTo(peer->second, frame.data(), frame.size())) {
        ++from->send_counters.frames_sent;
        from->send_counters.bytes_sent += frame.size();
      } else {
        ++from->send_counters.send_errors;
      }
    }
  }
}

util::TimeMicros SocketRuntime::FireDueTimers(NodeState* s) {
  for (;;) {
    auto it = s->timer_queue.begin();
    if (it == s->timer_queue.end()) return -1;
    if (it->first > Now()) return it->first;
    const auto [timer_id, tag] = it->second;
    s->timer_queue.erase(it);
    if (s->live_timers.erase(timer_id) > 0) {
      s->node->OnTimer(tag);
    }
  }
}

void SocketRuntime::RunLoop(NodeState* s) {
  s->node->OnStart();
  std::vector<uint8_t> buf(kRecvBufBytes);
  std::vector<net::FrameAssembler::Complete> completes;
  std::deque<Inbound> local;
  uint8_t drain[64];
  while (!s->stop.load(std::memory_order_relaxed)) {
    // Fire whatever is due, then learn how long poll may sleep.
    const util::TimeMicros next_deadline = FireDueTimers(s);
    int timeout_ms = kIdlePollMs;
    if (next_deadline >= 0) {
      const util::TimeMicros now = Now();
      timeout_ms =
          next_deadline <= now
              ? 0
              : static_cast<int>(std::min<int64_t>(
                    (next_deadline - now + 999) / 1000, kIdlePollMs));
    }
    const int fds[2] = {s->socket.fd(), s->wake_read};
    bool readable[2] = {false, false};
    net::PollSockets(fds, readable, 2, timeout_ms);
    if (s->stop.load(std::memory_order_relaxed)) break;

    if (readable[1]) {
      while (::read(s->wake_read, drain, sizeof(drain)) > 0) {
      }
    }
    {
      // One lock round per iteration serves both directions: take the
      // mailbox, publish the counters of the previous round.
      std::lock_guard<std::mutex> lock(s->mu);
      local.swap(s->mailbox);
      PublishCounters(s);
    }
    for (Inbound& in : local) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      s->node->OnMessage(in.from, in.msg);
    }
    local.clear();

    if (!readable[0]) continue;
    for (int burst = 0; burst < kRecvBurst; ++burst) {
      const long got = s->socket.RecvFrom(buf.data(), buf.size());
      if (got < 0) break;
      completes.clear();
      s->assembler->Accept(buf.data(), static_cast<size_t>(got), &completes);
      for (net::FrameAssembler::Complete& c : completes) {
        const MessagePtr msg =
            net::DecodeMessage(c.payload.data(), c.payload.size());
        if (msg == nullptr) {
          // Frame layer was satisfied but the body is malformed: counted
          // drop, nothing applied.
          ++s->assembler->counters().decode_drops;
          continue;
        }
        delivered_.fetch_add(1, std::memory_order_relaxed);
        s->node->OnMessage(c.src, msg);
      }
    }
  }
  std::lock_guard<std::mutex> lock(s->mu);
  PublishCounters(s);
}

// ------------------------------------------------------------------ NodeEnv

void SocketRuntime::NodeEnv::Send(NodeId to, MessagePtr msg) {
  runtime_->SendFrom(state_, &to, 1, msg);
}

void SocketRuntime::NodeEnv::Send(const std::vector<NodeId>& targets,
                                  MessagePtr msg) {
  runtime_->SendFrom(state_, targets.data(), targets.size(), msg);
}

TimerId SocketRuntime::NodeEnv::SetTimer(util::DurationMicros delay,
                                         uint64_t tag) {
  const TimerId timer = state_->next_timer_id++;
  state_->live_timers.insert(timer);
  const util::TimeMicros deadline =
      runtime_->Now() + (delay < 0 ? 0 : delay);
  state_->timer_queue.emplace(deadline, std::make_pair(timer, tag));
  return timer;
}

void SocketRuntime::NodeEnv::CancelTimer(TimerId timer) {
  state_->live_timers.erase(timer);
}

void SocketRuntime::NodeEnv::CancelAllTimers() {
  state_->live_timers.clear();
}

util::TimeMicros SocketRuntime::NodeEnv::Now() const {
  return runtime_->Now();
}

}  // namespace runtime
}  // namespace prestige
