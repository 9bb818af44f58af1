// LoadClient: the benchmark's single client node. It is a client::Client
// session, so requests travel the library's real path (aggregation window,
// retransmission, complaints, f+1 result matching).
//
// Two load shapes share it:
//   * closed loop — `sessions` requests stay outstanding; each completion
//     submits the next command at once;
//   * open loop — a schedule of (due time, command) made by the benchmark
//     from its seed before the run; the node submits each arrival when it
//     falls due, whatever the replies are doing, so a stall queues work.
//
// Every request is recorded (due, submit, done) on the node's own loop
// thread; read the records only after the runtime has stopped. A few
// atomics let the main thread watch progress while the run is live.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "client/client.h"
#include "util/random.h"
#include "util/timer_tag.h"

namespace perfbench {

using namespace prestige;

struct Arrival {
  int64_t due_us = 0;  ///< Runtime micros at which the request falls due.
  std::vector<uint8_t> command;
};

struct RequestRecord {
  int64_t due_us = 0;     ///< Open loop: schedule time; closed: submit time.
  int64_t submit_us = 0;  ///< When the generator actually submitted it.
  int64_t done_us = -1;   ///< f+1-matched completion; -1 while unanswered.
  bool expired = false;   ///< Abandoned by the client at its deadline.
};

class LoadClient : public client::Client {
 public:
  /// Closed loop with `sessions` outstanding requests of `command_bytes`
  /// random bytes each, drawn from `seed`.
  LoadClient(client::ClientConfig config, uint32_t sessions,
             uint32_t command_bytes, uint64_t seed)
      : client::Client(config),
        sessions_(sessions),
        command_bytes_(command_bytes),
        command_rng_(seed) {}

  /// Open loop over a pre-generated schedule (sorted by due time).
  /// Requests unanswered after `expire_after` are abandoned and counted.
  LoadClient(client::ClientConfig config, std::vector<Arrival> schedule,
             util::DurationMicros expire_after)
      : client::Client(config),
        schedule_(std::move(schedule)),
        expire_after_(expire_after),
        command_rng_(0) {}

  void OnStart() override {
    client::Client::OnStart();
    if (sessions_ > 0) {
      for (uint32_t i = 0; i < sessions_; ++i) IssueClosed();
      Flush();
      return;
    }
    records_.reserve(schedule_.size());
    PumpArrivals();
  }

  void OnTimer(uint64_t tag) override {
    if (util::TimerTagKind<uint64_t>(tag) == kArrivalKind) {
      PumpArrivals();
      return;
    }
    client::Client::OnTimer(tag);
  }

  // Loop-thread state: read after the runtime stopped.
  const std::vector<RequestRecord>& records() const { return records_; }
  /// Generator lateness (submit - due) per open-loop arrival, in ms.
  const std::vector<double>& late_ms() const { return late_ms_; }
  /// Most arrivals submitted in one generator wake-up.
  int64_t burst_peak() const { return burst_peak_; }

  // Live progress, safe from any thread.
  int64_t completed_live() const {
    return completed_live_.load(std::memory_order_relaxed);
  }
  /// Largest due time among completed requests (-1 before the first).
  int64_t max_done_due_live() const {
    return max_done_due_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kArrivalKind = 9;

  void IssueClosed() {
    std::vector<uint8_t> command(command_bytes_);
    for (uint8_t& b : command) {
      b = static_cast<uint8_t>(command_rng_.NextUint64());
    }
    const size_t index = records_.size();
    RequestRecord record;
    record.due_us = record.submit_us = Now();
    records_.push_back(record);
    Submit(std::move(command), [this, index](const client::SubmitResult& r) {
      Complete(index, r);
      IssueClosed();
    });
  }

  void PumpArrivals() {
    const int64_t now = Now();
    int64_t burst = 0;
    while (next_ < schedule_.size() && schedule_[next_].due_us <= now) {
      Arrival& arrival = schedule_[next_++];
      const size_t index = records_.size();
      RequestRecord record;
      record.due_us = arrival.due_us;
      record.submit_us = now;
      records_.push_back(record);
      late_ms_.push_back(static_cast<double>(now - arrival.due_us) / 1000.0);
      Submit(std::move(arrival.command),
             [this, index](const client::SubmitResult& r) { Complete(index, r); },
             expire_after_);
      ++burst;
    }
    if (burst > burst_peak_) burst_peak_ = burst;
    if (next_ < schedule_.size()) {
      SetTimer(schedule_[next_].due_us - now,
               util::PackTimerTag(kArrivalKind, 0));
    }
  }

  void Complete(size_t index, const client::SubmitResult& result) {
    RequestRecord& record = records_[index];
    if (result.timed_out) {
      record.expired = true;
      return;
    }
    record.done_us = Now();
    completed_live_.fetch_add(1, std::memory_order_relaxed);
    if (record.due_us > max_done_due_.load(std::memory_order_relaxed)) {
      max_done_due_.store(record.due_us, std::memory_order_relaxed);
    }
  }

  const uint32_t sessions_ = 0;
  const uint32_t command_bytes_ = 0;
  std::vector<Arrival> schedule_;
  size_t next_ = 0;
  util::DurationMicros expire_after_ = 0;
  util::Rng command_rng_;

  std::vector<RequestRecord> records_;
  std::vector<double> late_ms_;
  int64_t burst_peak_ = 0;
  std::atomic<int64_t> completed_live_{0};
  std::atomic<int64_t> max_done_due_{-1};
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
