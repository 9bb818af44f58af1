// perfbench: the repository's benchmark. Three named workloads drive
// PrestigeBFT (n = 4, f = 1, default PrestigeConfig) through the public
// API of prestige_core; see perfbench/README.md for why each exists, what
// it predicts, and what every metric means.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no interposers. --trace 1
// runs the same workload twice, untraced and traced, each for half the
// time, and reports the per-layer metrics of the traced pass plus the
// tracing overhead (the difference between the two passes).
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Every threaded and socket run passes harness::CheckSafety and
// must see no client result mismatch; a violation makes correct false
// and counts every attempted request as failed.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "crypto/keys.h"
#include "deploy.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/scenario.h"
#include "harness/scenario_runner.h"
#include "net/wire.h"
#include "util.h"
#include "workload/key_dist.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------ parameters

/// Closed-loop sessions on closed-saturate (--sessions overrides). Past the
/// client-count knee on the seed commit: doubling them raised throughput by
/// less than a tenth (README.md records the sweep).
uint32_t g_closed_sessions = 12800;
/// Traced runs write sampled request spans here (next to the binary).
std::string g_spans_path;
/// Key space and skew of the KV commands on leader-crash.
constexpr uint64_t kKvKeys = 100000;
constexpr double kZipfTheta = 0.99;
/// leader-crash (socket runtime): arrival rate, crash offset after start,
/// settle time.
constexpr double kCrashRate = 500;
constexpr int64_t kCrashAtUs = 1000000;
constexpr double kSettleS = 1.5;
/// Requests due this close to the end of a run are neither attempted nor
/// failed: they may legitimately still be in flight.
constexpr int64_t kGraceUs = 1000000;
/// Simulator set-ups measured per sim-faults run; setup_s is their median.
constexpr int kSimSetups = 3;

struct Outcome {
  Metrics metrics;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::printf("# ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

void Sleep(double seconds) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(seconds * 1e6)));
}

// --------------------------------------------------------- load schedule

/// Poisson arrivals at `rate` per second for `seconds`: 50/50 KV Put/Get
/// on zipfian keys, all drawn from `rng`.
std::vector<Arrival> MakeSchedule(util::Rng* rng, double rate, double seconds) {
  static const workload::ZipfianGenerator zipf(kKvKeys, kZipfTheta);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    const double u =
        (static_cast<double>(rng->NextUint64() >> 11) + 0.5) / 9007199254740992.0;
    t += -std::log(u) / rate;
    if (t >= seconds) return out;
    Arrival a;
    a.due_us = static_cast<int64_t>(t * 1e6);
    const uint64_t key = zipf.Next(rng);
    a.command = (rng->NextUint64() & 1) != 0
                    ? app::kv::EncodePut(key, rng->NextUint64())
                    : app::kv::EncodeGet(key);
    out.push_back(std::move(a));
  }
}

// ------------------------------------------------------------ run pieces

/// Builds and starts a deployment, timing it up to its first completed
/// request (appended to `setup_s`); returns it running.
std::unique_ptr<Deployment> SetUp(DeploySpec spec, std::vector<double>* setup_s,
                                  std::string* error, double limit_s = 20.0) {
  const int64_t start = MonoNs();
  auto dep = std::make_unique<Deployment>(std::move(spec));
  if (!dep->ok()) {
    *error = dep->error();
    return nullptr;
  }
  dep->Start();
  if (!dep->WaitFirstCommit(limit_s)) {
    *error = "no request completed within " + std::to_string(limit_s) + " s of start";
    return nullptr;
  }
  setup_s->push_back(SecondsSince(start));
  return dep;
}

/// The safety gate: committed-prefix / execution agreement over the
/// replicas, and no conflicting result digest seen by the client.
bool SafetyGate(Deployment& dep, const char* what) {
  const harness::SafetyReport report = harness::CheckSafety(dep);
  const int64_t mismatches = dep.client().stats().result_mismatches;
  Note("%s safety: %s (heights %lld..%lld, result_mismatches %lld)%s%s", what,
       report.ok && mismatches == 0 ? "ok" : "VIOLATION",
       static_cast<long long>(report.min_height),
       static_cast<long long>(report.max_height),
       static_cast<long long>(mismatches), report.ok ? "" : " ",
       report.violation.c_str());
  return report.ok && mismatches == 0;
}

/// Latency / failure summary of the requests due in [t0, t1).
struct WindowStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  std::vector<double> latency_ms;
};

WindowStats Summarise(const std::vector<RequestRecord>& records, int64_t t0,
                      int64_t t1, int64_t end_us) {
  WindowStats w;
  for (const RequestRecord& r : records) {
    if (r.due_us < t0 || r.due_us >= t1) continue;
    if (r.done_us < 0 && !r.expired && r.due_us > end_us - kGraceUs) continue;
    ++w.attempted;
    if (r.done_us < 0) {
      ++w.failed;
      continue;
    }
    ++w.completed;
    w.latency_ms.push_back(static_cast<double>(r.done_us - r.due_us) / 1000.0);
  }
  return w;
}

/// Median over `groups` of each group's p-th percentile.
double GroupedPercentile(std::vector<std::vector<double>> groups, double p) {
  std::vector<double> per_group;
  for (std::vector<double>& g : groups) {
    if (!g.empty()) per_group.push_back(Percentile(g, p));
  }
  return Median(per_group);
}

/// p50 over every sample; the tails as the median, over `groups` (fresh
/// deployments), of each group's percentile, so one stalled window does
/// not decide the run.
void SetLatency(Metrics* m, std::vector<double> latency_ms,
                const std::vector<std::vector<double>>& groups, const char* what) {
  Note("%s latency samples: %zu in %zu windows", what, latency_ms.size(), groups.size());
  m->Set("latency_p50_ms", Percentile(latency_ms, 50), "ms");
  m->Set("latency_p99_ms", GroupedPercentile(groups, 99), "ms");
  m->Set("latency_p999_ms", GroupedPercentile(groups, 99.9), "ms");
}

// ----------------------------------------------------- per-layer metrics

/// Unit costs timed in this binary on what the traced run captured.
struct Calibration {
  double sha256_ns = 0;
  double sign_ns = 0;
  double verify_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
};

Calibration Calibrate(const std::vector<runtime::MessagePtr>& sampled,
                      uint64_t seed) {
  Calibration c;
  std::vector<types::Transaction> txs;
  for (const runtime::MessagePtr& msg : sampled) {
    if (auto* b = dynamic_cast<const types::ClientBatch*>(msg.get())) {
      txs.insert(txs.end(), b->txs.begin(), b->txs.end());
    }
  }
  if (txs.empty()) txs.resize(1);
  if (txs.size() > 512) txs.resize(512);
  uint64_t sink = 0;
  const int tx_reps = std::max<int>(1, 100000 / static_cast<int>(txs.size()));
  int64_t start = MonoNs();
  for (int r = 0; r < tx_reps; ++r) {
    for (const types::Transaction& tx : txs) sink += tx.Digest()[0];
  }
  c.sha256_ns = static_cast<double>(MonoNs() - start) /
                static_cast<double>(tx_reps * static_cast<int>(txs.size()));

  const crypto::KeyStore keys(seed);
  const crypto::Sha256Digest digest = txs[0].Digest();
  constexpr int kSigReps = 20000;
  crypto::Signature sig;
  start = MonoNs();
  for (int r = 0; r < kSigReps; ++r) {
    sig = keys.Sign(static_cast<crypto::SignerId>(r & 3), digest);
    sink += sig.mac[0];
  }
  c.sign_ns = static_cast<double>(MonoNs() - start) / kSigReps;
  start = MonoNs();
  for (int r = 0; r < kSigReps; ++r) sink += keys.Verify(sig, digest) ? 1 : 0;
  c.verify_ns = static_cast<double>(MonoNs() - start) / kSigReps;

  std::vector<std::vector<uint8_t>> encoded;
  for (const runtime::MessagePtr& msg : sampled) {
    std::vector<uint8_t> out;
    if (net::EncodeMessage(*msg, &out)) encoded.push_back(std::move(out));
  }
  if (!encoded.empty()) {
    const int reps = std::max<int>(1, 50000 / static_cast<int>(encoded.size()));
    int64_t count = 0;
    start = MonoNs();
    for (int r = 0; r < reps; ++r) {
      for (const runtime::MessagePtr& msg : sampled) {
        std::vector<uint8_t> out;
        if (net::EncodeMessage(*msg, &out)) {
          sink += out.size();
          ++count;
        }
      }
    }
    c.encode_ns = static_cast<double>(MonoNs() - start) /
                  static_cast<double>(std::max<int64_t>(1, count));
    start = MonoNs();
    for (int r = 0; r < reps; ++r) {
      for (const std::vector<uint8_t>& bytes : encoded) {
        sink += net::DecodeMessage(bytes.data(), bytes.size()) != nullptr;
      }
    }
    c.decode_ns = static_cast<double>(MonoNs() - start) /
                  static_cast<double>(reps * static_cast<int>(encoded.size()));
  }
  if (sink == 42) std::printf("#\n");  // Keeps the timed work observable.
  return c;
}

const char* const kHandlerNames[] = {
    "Ord",        "OrdReply",  "Cmt",      "CmtReply",    "TxBlock",
    "ClientBatch", "ClientReply", "ClientComplaint", "ComptRelay",
    "ConfVC",     "ReVC",      "Camp",     "VoteCP",      "VcBlockMsg",
    "VcYes",      "Heartbeat", "SyncReq",  "SyncResp",    "Ref",
    "RefReply",   "Rdone",     "timer"};

/// Every per-layer metric, zero-initialised in a fixed order; workloads
/// fill in the layers on their path.
Metrics LayerSkeleton() {
  Metrics m;
  const std::pair<const char*, const char*> names[] = {
      {"runtime.msgs_per_commit", "count"},
      {"runtime.msg_bytes_per_commit", "B"},
      {"runtime.queue_wait_p50_us", "us"},
      {"runtime.queue_wait_p99_us", "us"},
      {"runtime.leader_busy_frac", "frac"},
      {"runtime.follower_busy_frac_max", "frac"},
      {"runtime.ctx_switches_per_commit", "count"},
      {"core.txs_per_block", "count"},
      {"core.stage.batch_p50_ms", "ms"},
      {"core.stage.batch_p99_ms", "ms"},
      {"core.stage.order_p50_ms", "ms"},
      {"core.stage.order_p99_ms", "ms"},
      {"core.stage.commit_p50_ms", "ms"},
      {"core.stage.commit_p99_ms", "ms"},
      {"core.stage.execute_p50_ms", "ms"},
      {"core.stage.execute_p99_ms", "ms"},
      {"core.stage.reply_p50_ms", "ms"},
      {"core.stage.reply_p99_ms", "ms"},
      {"core.invalid_messages", "count"},
      {"crypto.sha256_per_commit", "count"},
      {"crypto.sha256_ns_per_call", "ns"},
      {"crypto.sign_ns", "ns"},
      {"crypto.verify_ns", "ns"},
      {"crypto.busy_share", "frac"},
      {"net.frames_per_commit", "count"},
      {"net.bytes_per_commit", "B"},
      {"net.drops", "count"},
      {"net.seq_gaps", "count"},
      {"net.send_errors", "count"},
      {"net.encode_ns_per_msg", "ns"},
      {"net.decode_ns_per_msg", "ns"},
      {"app.execute_us_p50", "us"},
      {"app.execute_us_p99", "us"},
      {"app.executions_per_commit", "count"},
      {"app.duplicates_suppressed", "count"},
      {"client.replies_per_commit", "count"},
      {"client.retransmits_per_1k", "count"},
      {"client.complaints", "count"},
      {"client.expired", "count"},
      {"client.result_mismatches", "count"},
      {"core.vc.view_changes", "count"},
      {"core.vc.elections_won", "count"},
      {"core.vc.split_votes", "count"},
      {"core.vc.campaigns", "count"},
      {"core.vc.pow_solve_ms", "ms"},
      {"core.vc.detect_ms", "ms"},
      {"core.vc.elect_ms", "ms"},
      {"core.vc.resume_ms", "ms"},
      {"reputation.leader_rp", "count"},
      {"ledger.tx_blocks_retained", "count"},
      {"ledger.rss_kb_per_1k_commits", "KiB"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.hashes", "count"},
      {"sim.virtual_s", "s"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.backlog_peak", "count"},
      {"trace.overhead_tps_pct", "%"},
      {"trace.overhead_p50_pct", "%"},
      {"trace.uncovered_p50_share", "frac"},
  };
  for (const auto& [name, unit] : names) m.Set(name, 0.0, unit);
  for (const char* h : kHandlerNames) {
    m.Set(std::string("core.handler_us.") + h, 0.0, "us");
  }
  return m;
}

/// What the traced pass measured outside the deployment itself.
struct PassInfo {
  double wall_s = 0;          ///< Start to stop.
  int64_t commits = 0;        ///< Client completions over the whole pass.
  int64_t ctx_switches = 0;   ///< Over the whole pass.
  double rss_growth_kb = 0;   ///< Resident-set growth over the pass.
  double latency_p50_ms = 0;  ///< Client-side, same window as the spans.
  int64_t window_t0 = 0;      ///< Stage spans cover completions in
  int64_t window_t1 = 0;      ///< [window_t0, window_t1).
};

/// Per-layer metrics of a stopped traced deployment.
void LayerMetrics(Deployment& dep, const PassInfo& pass, uint64_t seed,
                  Metrics* m) {
  const uint32_t n = dep.num_replicas();
  const double commits = static_cast<double>(std::max<int64_t>(1, pass.commits));
  const double wall_ns = pass.wall_s * 1e9;

  // Runtime, crypto and handler totals over every node.
  int64_t msgs = 0, bytes = 0, busy_ns = 0, hashes = 0;
  std::vector<double> waits;
  std::map<std::string, HandlerCost> handlers;
  std::vector<runtime::MessagePtr> sampled;
  for (uint32_t i = 0; i <= n; ++i) {
    NodeTrace* t = dep.trace(i);
    msgs += t->msgs_sent;
    bytes += t->bytes_sent;
    busy_ns += t->busy_ns;
    hashes += static_cast<int64_t>(t->meter.finished);
    waits.insert(waits.end(), t->queue_wait_us.begin(), t->queue_wait_us.end());
    for (const auto& [name, cost] : t->handlers) {
      HandlerCost& h = handlers[name];
      h.calls += cost.calls;
      h.ns += cost.ns;
    }
    sampled.insert(sampled.end(), t->sampled.begin(), t->sampled.end());
  }
  m->Set("runtime.msgs_per_commit", static_cast<double>(msgs) / commits, "count");
  m->Set("runtime.msg_bytes_per_commit", static_cast<double>(bytes) / commits, "B");
  m->Set("runtime.queue_wait_p50_us", Percentile(waits, 50), "us");
  m->Set("runtime.queue_wait_p99_us", Percentile(waits, 99), "us");
  uint32_t leader = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (dep.replica(i).IsLeader()) leader = i;
  }
  double follower_max = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const double frac = static_cast<double>(dep.trace(i)->busy_ns) / wall_ns;
    if (i == leader) {
      m->Set("runtime.leader_busy_frac", frac, "frac");
    } else {
      follower_max = std::max(follower_max, frac);
    }
  }
  m->Set("runtime.follower_busy_frac_max", follower_max, "frac");
  m->Set("runtime.ctx_switches_per_commit",
         static_cast<double>(pass.ctx_switches) / commits, "count");
  for (const char* name : kHandlerNames) {
    auto it = handlers.find(name);
    if (it == handlers.end()) continue;
    const HandlerCost& cost = it->second;
    m->Set(std::string("core.handler_us.") + name,
           static_cast<double>(cost.ns) / 1000.0 /
               static_cast<double>(std::max<int64_t>(1, cost.calls)),
           "us");
  }

  // Core: blocks, stage spans, invalid messages, view changes.
  const core::PrestigeReplica& lead = dep.replica(leader);
  m->Set("core.txs_per_block",
         static_cast<double>(lead.metrics().committed_txs) /
             static_cast<double>(std::max<int64_t>(1, lead.metrics().committed_blocks)),
         "count");
  int64_t invalid = 0, vcs = 0, won = 0, splits = 0, camps = 0;
  std::vector<double> pow_ms;
  types::View max_view = 1;
  for (uint32_t i = 0; i < n; ++i) {
    const core::ReplicaMetrics& rm = dep.replica(i).metrics();
    invalid += rm.invalid_messages;
    won += rm.elections_won;
    splits += rm.election_timeouts;
    camps += rm.campaigns_sent;
    for (const core::VcCostSample& s : rm.vc_costs) {
      pow_ms.push_back(static_cast<double>(s.solve_time) / 1000.0);
    }
    max_view = std::max(max_view, dep.replica(i).view());
  }
  vcs = static_cast<int64_t>(max_view) - 1;
  m->Set("core.invalid_messages", static_cast<double>(invalid), "count");
  m->Set("core.vc.view_changes", static_cast<double>(vcs), "count");
  m->Set("core.vc.elections_won", static_cast<double>(won), "count");
  m->Set("core.vc.split_votes", static_cast<double>(splits), "count");
  m->Set("core.vc.campaigns", static_cast<double>(camps), "count");
  m->Set("core.vc.pow_solve_ms", Median(pow_ms), "ms");
  m->Set("reputation.leader_rp",
         static_cast<double>(lead.EffectiveRp(lead.current_leader())), "count");

  // Stage spans, keyed by block, cut at message boundaries.
  NodeTrace* ct = dep.trace(n);
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> ord_of;  // seq -> (n, t)
  std::unordered_map<int64_t, int64_t> cmt_at;
  std::unordered_map<int64_t, std::vector<ExecSpan>> exec_of;
  std::vector<double> execute_us;
  for (uint32_t i = 0; i < n; ++i) {
    NodeTrace* t = dep.trace(i);
    for (const OrdEvent& e : t->ords) {
      for (uint64_t seq : e.seqs) {
        auto it = ord_of.find(seq);
        if (it == ord_of.end() || it->second.second < e.at_us) {
          ord_of[seq] = {e.n, e.at_us};
        }
      }
    }
    for (const auto& [bn, at] : t->cmt_sent_us) {
      auto it = cmt_at.find(bn);
      if (it == cmt_at.end() || at < it->second) cmt_at[bn] = at;
    }
    for (const ExecSpan& s : t->exec_spans) exec_of[s.n].push_back(s);
    execute_us.insert(execute_us.end(), t->execute_us.begin(), t->execute_us.end());
  }
  const uint32_t quorum = types::MaxFaulty(n) + 1;  // Reply quorum f+1.
  std::vector<double> batch, order, commit, execute, reply, covered;
  // Every 64th request's boundaries go to the span file (runtime micros).
  FILE* spans_out = g_spans_path.empty() ? nullptr : std::fopen(g_spans_path.c_str(), "w");
  for (const auto& [seq, matched] : ct->tx_matched_us) {
    if (matched < pass.window_t0 || matched >= pass.window_t1) continue;
    auto sent = ct->tx_sent_us.find(seq);
    auto ord = ord_of.find(seq);
    if (sent == ct->tx_sent_us.end() || ord == ord_of.end()) continue;
    auto cmt = cmt_at.find(ord->second.first);
    auto ex = exec_of.find(ord->second.first);
    if (cmt == cmt_at.end() || ex == exec_of.end()) continue;
    std::vector<ExecSpan> spans = ex->second;
    std::sort(spans.begin(), spans.end(),
              [](const ExecSpan& a, const ExecSpan& b) { return a.end_us < b.end_us; });
    const ExecSpan& pick = spans[std::min<size_t>(spans.size() - 1, quorum - 1)];
    auto ms = [](int64_t a, int64_t b) { return static_cast<double>(b - a) / 1000.0; };
    batch.push_back(ms(sent->second, ord->second.second));
    order.push_back(ms(ord->second.second, cmt->second));
    commit.push_back(ms(cmt->second, pick.start_us));
    execute.push_back(ms(pick.start_us, pick.end_us));
    reply.push_back(ms(pick.end_us, matched));
    covered.push_back(ms(sent->second, matched));
    if (spans_out != nullptr && covered.size() % 64 == 1) {
      std::fprintf(spans_out,
                   "{\"seq\": %llu, \"block\": %lld, \"sent_us\": %lld, \"ord_us\": %lld, "
                   "\"cmt_us\": %lld, \"exec_start_us\": %lld, \"exec_end_us\": %lld, "
                   "\"matched_us\": %lld}\n",
                   static_cast<unsigned long long>(seq),
                   static_cast<long long>(ord->second.first),
                   static_cast<long long>(sent->second),
                   static_cast<long long>(ord->second.second),
                   static_cast<long long>(cmt->second), static_cast<long long>(pick.start_us),
                   static_cast<long long>(pick.end_us), static_cast<long long>(matched));
    }
  }
  if (spans_out != nullptr) {
    std::fclose(spans_out);
    Note("spans written to %s", g_spans_path.c_str());
  }
  const std::pair<const char*, std::vector<double>*> stages[] = {
      {"batch", &batch}, {"order", &order}, {"commit", &commit},
      {"execute", &execute}, {"reply", &reply}};
  for (const auto& [name, v] : stages) {
    m->Set(std::string("core.stage.") + name + "_p50_ms", Percentile(*v, 50), "ms");
    m->Set(std::string("core.stage.") + name + "_p99_ms", Percentile(*v, 99), "ms");
  }
  Note("stage spans over %zu requests", covered.size());
  if (pass.latency_p50_ms > 0 && !covered.empty()) {
    m->Set("trace.uncovered_p50_share",
           1.0 - Median(covered) / pass.latency_p50_ms, "frac");
  }

  // Crypto: counts from the per-node meters, unit costs from calibration.
  const Calibration cal = Calibrate(sampled, seed);
  m->Set("crypto.sha256_per_commit", static_cast<double>(hashes) / commits, "count");
  m->Set("crypto.sha256_ns_per_call", cal.sha256_ns, "ns");
  m->Set("crypto.sign_ns", cal.sign_ns, "ns");
  m->Set("crypto.verify_ns", cal.verify_ns, "ns");
  m->Set("crypto.busy_share",
         static_cast<double>(hashes) * cal.sha256_ns /
             static_cast<double>(std::max<int64_t>(1, busy_ns)),
         "frac");

  // Net: socket frame counters (zero on the threaded runtime) and codec.
  const net::FrameCounters fc = dep.net_stats();
  m->Set("net.frames_per_commit", static_cast<double>(fc.frames_sent) / commits, "count");
  m->Set("net.bytes_per_commit", static_cast<double>(fc.bytes_sent) / commits, "B");
  m->Set("net.drops",
         static_cast<double>(fc.header_drops + fc.wrong_dst_drops + fc.length_drops +
                             fc.checksum_drops + fc.frag_drops + fc.decode_drops +
                             fc.unserializable_drops),
         "count");
  m->Set("net.seq_gaps", static_cast<double>(fc.seq_gaps), "count");
  m->Set("net.send_errors", static_cast<double>(fc.send_errors), "count");
  m->Set("net.encode_ns_per_msg", cal.encode_ns, "ns");
  m->Set("net.decode_ns_per_msg", cal.decode_ns, "ns");

  // App.
  int64_t executed = 0, dups = 0;
  for (uint32_t i = 0; i < n; ++i) {
    executed += dep.replica(i).delivery().stats().executed;
    dups += dep.replica(i).delivery().stats().duplicates_suppressed;
  }
  m->Set("app.execute_us_p50", Percentile(execute_us, 50), "us");
  m->Set("app.execute_us_p99", Percentile(execute_us, 99), "us");
  m->Set("app.executions_per_commit", static_cast<double>(executed) / commits, "count");
  m->Set("app.duplicates_suppressed", static_cast<double>(dups), "count");

  // Client.
  const client::ClientStats& cs = dep.client().stats();
  m->Set("client.replies_per_commit", static_cast<double>(cs.replies_received) / commits, "count");
  m->Set("client.retransmits_per_1k", 1000.0 * static_cast<double>(cs.retransmissions) / commits, "count");
  m->Set("client.complaints", static_cast<double>(cs.complaints_sent), "count");
  m->Set("client.expired", static_cast<double>(cs.expired), "count");
  m->Set("client.result_mismatches", static_cast<double>(cs.result_mismatches), "count");

  // Ledger.
  m->Set("ledger.tx_blocks_retained", static_cast<double>(lead.store().tx_chain().size()), "count");
  m->Set("ledger.rss_kb_per_1k_commits", pass.rss_growth_kb / (commits / 1000.0), "KiB");

  // Load generator (open loop only).
  std::vector<double> late = dep.client().late_ms();
  m->Set("loadgen.late_p99_ms", Percentile(late, 99), "ms");
  m->Set("loadgen.backlog_peak", static_cast<double>(dep.client().burst_peak()), "count");
}

// ------------------------------------------------------ closed-saturate

/// Seconds measured per closed-saturate deployment. The ledger keeps every
/// block, so resident memory grows with commits; the window is cut into
/// fresh deployments of this length to bound it.
constexpr double kChunkS = 1.5;

struct ClosedPass {
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> chunk_latency_ms;
  double window_s = 0;
  double cpu_s = 0;
  double tps() const { return static_cast<double>(latency_ms.size()) / window_s; }
  double p50() const { return Median(latency_ms); }
  double cpu_us_per_commit() const {
    return cpu_s * 1e6 / static_cast<double>(std::max<size_t>(1, latency_ms.size()));
  }
};

/// One closed-loop chunk on a fresh deployment: set-up, warm-up, then a
/// kChunkS window, added to `acc`. Returns the stopped deployment.
std::unique_ptr<Deployment> ClosedChunk(const DeploySpec& spec, ClosedPass* acc,
                                        std::vector<double>* setup_s, Outcome* out,
                                        PassInfo* pass) {
  std::string error;
  // A single replica either commits at once or not at all.
  auto dep = SetUp(spec, setup_s, &error, spec.n == 1 ? 3.0 : 20.0);
  if (!dep) {
    Note("set-up failed: %s", error.c_str());
    out->correct = false;
    return nullptr;
  }
  const int64_t run_start = MonoNs();
  const Usage u_start = Usage::Now();
  const double rss_start = CurrentRssKb();
  Sleep(0.5);  // Warm-up: batches and mailboxes reach steady state.
  const Usage u0 = Usage::Now();
  const int64_t t0 = dep->Now();
  Sleep(kChunkS);
  const int64_t t1 = dep->Now();
  const Usage u1 = Usage::Now();
  const double rss_end = CurrentRssKb();
  dep->Stop();

  std::vector<double> latency;
  int64_t total_done = 0;
  int64_t unanswered = 0;
  for (const RequestRecord& r : dep->client().records()) {
    if (r.done_us >= 0) ++total_done;
    if (r.done_us < 0 && r.submit_us < t1 - kGraceUs) ++unanswered;
    if (r.done_us < t0 || r.done_us >= t1) continue;
    latency.push_back(static_cast<double>(r.done_us - r.submit_us) / 1000.0);
  }
  acc->latency_ms.insert(acc->latency_ms.end(), latency.begin(), latency.end());
  acc->chunk_latency_ms.push_back(latency);
  acc->window_s += static_cast<double>(t1 - t0) / 1e6;
  acc->cpu_s += u1.cpu_s - u0.cpu_s;
  out->attempted += static_cast<int64_t>(latency.size()) + unanswered;
  out->failed += unanswered;
  if (pass != nullptr) {
    pass->wall_s = SecondsSince(run_start);
    pass->commits = total_done;
    pass->ctx_switches = u1.ctx_switches - u_start.ctx_switches;
    pass->rss_growth_kb = rss_end - rss_start;
    pass->latency_p50_ms = Median(latency);
    pass->window_t0 = t0;
    pass->window_t1 = t1;
  }
  if (!SafetyGate(*dep, "closed-saturate")) out->correct = false;
  return dep;
}

void ClosedSaturate(uint64_t seed, double seconds, bool trace, Outcome* out) {
  DeploySpec spec;
  spec.seed = seed;
  spec.sessions = g_closed_sessions;
  std::vector<double> setup_s;
  const int chunks = std::max(1, static_cast<int>(std::lround(
                                     (trace ? seconds / 2 : seconds) / kChunkS)));
  ClosedPass untraced;
  for (int c = 0; c < chunks && out->correct; ++c) {
    spec.seed = seed * 1000 + static_cast<uint64_t>(c);
    ClosedChunk(spec, &untraced, &setup_s, out, nullptr);
  }
  if (!out->correct) return;
  if (!trace) {
    out->metrics.Set("setup_s", Median(setup_s), "s");
    out->metrics.Set("throughput_tps", untraced.tps(), "1/s");
    SetLatency(&out->metrics, untraced.latency_ms, untraced.chunk_latency_ms, "closed-loop");
    out->metrics.Set("cpu_us_per_commit", untraced.cpu_us_per_commit(), "us");
    Note("cores busy: %.2f", untraced.cpu_s / untraced.window_s);
    return;
  }
  // Traced chunk, compared with the untraced ones for the overhead.
  spec.trace = true;
  ClosedPass traced;
  PassInfo pass;
  auto traced_dep = ClosedChunk(spec, &traced, &setup_s, out, &pass);
  if (!traced_dep) return;
  LayerMetrics(*traced_dep, pass, seed, &out->metrics);
  out->metrics.Set("trace.overhead_tps_pct", 100.0 * (1.0 - traced.tps() / untraced.tps()), "%");
  out->metrics.Set("trace.overhead_p50_pct", 100.0 * (traced.p50() / untraced.p50() - 1.0), "%");
  traced_dep.reset();

  // Replication-free floor: the same closed loop against one replica.
  // When this benchmark was added, PrestigeReplica committed nothing at
  // n = 1 (README.md); the note shows whether that still holds.
  spec.trace = false;
  spec.n = 1;
  Outcome single_out;
  ClosedPass single;
  if (!ClosedChunk(spec, &single, &setup_s, &single_out, nullptr)) {
    Note("n=1 reference does not run");
    return;
  }
  Note("n=1 reference: %.1f commits/s, p50 %.3f ms, %.3f us CPU per commit", single.tps(),
       single.p50(), single.cpu_us_per_commit());
}

// ---------------------------------------------------------- leader-crash

struct Episode {
  double setup_s = 0;
  double unavailable_ms = 0;
  double detect_ms = 0, elect_ms = 0, resume_ms = 0;
  bool recovered = false;
};

/// One crash episode on a fresh deployment: open-loop arrivals, genesis
/// leader 0 crashes at kCrashAtUs, run until a request due after the
/// crash completes, then settle.
Episode CrashEpisode(uint64_t seed, bool traced, Outcome* out,
                     std::vector<double>* latency_ms, double* cpu_s,
                     int64_t* completed, double* window_s, PassInfo* pass) {
  util::Rng rng(seed);
  DeploySpec spec;
  spec.seed = seed;
  spec.kv = true;
  spec.kv_keys = kKvKeys;
  spec.backend = Backend::kSocket;
  spec.leader_fault = types::FaultSpec::Crash(kCrashAtUs);
  spec.schedule = MakeSchedule(&rng, kCrashRate, 20.0);
  spec.expire_after = util::Seconds(10);
  spec.trace = traced;
  Episode ep;
  const int64_t start = MonoNs();
  const Usage u0 = Usage::Now();
  const double rss_start = CurrentRssKb();
  Deployment dep(std::move(spec));
  if (!dep.ok()) {
    out->correct = false;
    return ep;
  }
  dep.Start();
  if (!dep.WaitFirstCommit(kCrashAtUs / 1e6)) {
    Note("no commit before the crash");
    out->correct = false;
    return ep;
  }
  ep.setup_s = SecondsSince(start);
  while (dep.client().max_done_due_live() <= kCrashAtUs &&
         dep.Now() < kCrashAtUs + 15000000) {
    Sleep(0.002);
  }
  Sleep(kSettleS);
  const int64_t end_us = dep.Now();
  const double rss_end = CurrentRssKb();
  const Usage u1 = Usage::Now();
  dep.Stop();
  if (!SafetyGate(dep, "leader-crash")) out->correct = false;

  const auto& records = dep.client().records();
  const int64_t t0 = 200000;  // Past set-up.
  WindowStats w = Summarise(records, t0, end_us, end_us);
  out->attempted += w.attempted;
  out->failed += w.failed;
  latency_ms->insert(latency_ms->end(), w.latency_ms.begin(), w.latency_ms.end());
  *cpu_s += u1.cpu_s - u0.cpu_s;
  *completed += w.completed;
  *window_s += static_cast<double>(end_us - t0) / 1e6;

  int64_t first_after = -1;
  for (const RequestRecord& r : records) {
    if (r.due_us > kCrashAtUs && r.done_us >= 0 &&
        (first_after < 0 || r.done_us < first_after)) {
      first_after = r.done_us;
    }
  }
  ep.recovered = first_after > 0;
  if (!ep.recovered) {
    Note("no request due after the crash completed");
    out->correct = false;
    return ep;
  }
  ep.unavailable_ms = static_cast<double>(first_after - kCrashAtUs) / 1000.0;
  if (traced) {
    int64_t first_camp = -1, first_ord = -1;
    for (uint32_t i = 1; i < dep.num_replicas(); ++i) {
      NodeTrace* t = dep.trace(i);
      if (t->first_camp_us >= 0 && (first_camp < 0 || t->first_camp_us < first_camp)) {
        first_camp = t->first_camp_us;
      }
      for (const OrdEvent& e : t->ords) {
        if (e.at_us > kCrashAtUs && (first_ord < 0 || e.at_us < first_ord)) {
          first_ord = e.at_us;
        }
      }
    }
    if (first_camp > 0 && first_ord > 0) {
      ep.detect_ms = static_cast<double>(first_camp - kCrashAtUs) / 1000.0;
      ep.elect_ms = static_cast<double>(first_ord - first_camp) / 1000.0;
      ep.resume_ms = static_cast<double>(first_after - first_ord) / 1000.0;
    }
    pass->wall_s = SecondsSince(start);
    pass->commits = w.completed;
    pass->ctx_switches = u1.ctx_switches - u0.ctx_switches;
    pass->rss_growth_kb = rss_end - rss_start;
    std::vector<double> l = w.latency_ms;
    pass->latency_p50_ms = Percentile(l, 50);
    pass->window_t0 = t0;
    pass->window_t1 = end_us;
    LayerMetrics(dep, *pass, seed, &out->metrics);
  }
  return ep;
}

void LeaderCrash(uint64_t seed, double seconds, bool trace, Outcome* out) {
  std::vector<Episode> episodes;
  std::vector<double> latency;
  double cpu_s = 0, window_s = 0;
  int64_t completed = 0;
  const int64_t start = MonoNs();
  // Untraced episodes until the time is spent (at least two).
  const double budget = trace ? seconds / 2 : seconds;
  for (uint64_t k = 0; episodes.size() < 2 || SecondsSince(start) < budget; ++k) {
    episodes.push_back(CrashEpisode(seed * 1000 + k, false, out, &latency, &cpu_s,
                                    &completed, &window_s, nullptr));
    if (!out->correct) return;
  }
  std::vector<double> setup, unavailable;
  for (const Episode& e : episodes) {
    setup.push_back(e.setup_s);
    unavailable.push_back(e.unavailable_ms);
    Note("episode: setup %.4f s, unavailable %.1f ms", e.setup_s, e.unavailable_ms);
  }
  std::vector<double> sorted = latency;
  const double untraced_p50 = Percentile(sorted, 50);
  if (!trace) {
    out->metrics.Set("setup_s", Median(setup), "s");
    out->metrics.Set("throughput_tps", static_cast<double>(completed) / window_s, "1/s");
    SetLatency(&out->metrics, latency, {latency}, "due->reply");
    out->metrics.Set("cpu_us_per_commit",
                     cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, completed)), "us");
    Note("unavailable_ms (crash -> first completion due after it): median %.3f ms",
         Median(unavailable));
    return;
  }
  std::vector<double> traced_latency;
  double traced_cpu = 0, traced_window = 0;
  int64_t traced_completed = 0;
  PassInfo pass;
  const Episode ep = CrashEpisode(seed * 1000 + 999, true, out, &traced_latency, &traced_cpu,
                                  &traced_completed, &traced_window, &pass);
  out->metrics.Set("core.vc.detect_ms", ep.detect_ms, "ms");
  out->metrics.Set("core.vc.elect_ms", ep.elect_ms, "ms");
  out->metrics.Set("core.vc.resume_ms", ep.resume_ms, "ms");
  out->metrics.Set("trace.overhead_p50_pct",
                   100.0 * (Percentile(traced_latency, 50) / untraced_p50 - 1.0), "%");
}

// ------------------------------------------------------------ sim-faults

/// Seeds per scenario in one sweep; the sweep covers partition-leader
/// (n = 4) and mixed-adversary (n = 7).
constexpr uint32_t kSimSeeds = 2;

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

void SimFaults(uint64_t seed, double seconds, bool trace, Outcome* out) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Two workers: the two partition-leader seeds run side by side, then the
  // two mixed-adversary seeds, so the process's memory peak (and the
  // contention between workers) is the same from run to run.
  const uint32_t jobs = std::min<uint32_t>(hw, 2);
  const char* const names[] = {"partition-leader", "mixed-adversary"};

  // Set-up: build the partition-leader deployment and run virtual time
  // until the first client commit.
  std::vector<double> setup_s;
  for (int k = 0; k < kSimSetups; ++k) {
    harness::WorkloadOptions w;
    w.seed = seed * 1000 + static_cast<uint64_t>(k);
    const int64_t start = MonoNs();
    core::PrestigeConfig config;
    harness::Cluster<core::PrestigeReplica, core::PrestigeConfig> cluster(config, w);
    cluster.Start();
    while (cluster.ClientCommitted() == 0 &&
           cluster.simulator().Now() < util::Seconds(10)) {
      cluster.RunFor(util::Millis(1));
    }
    setup_s.push_back(SecondsSince(start));
  }

  struct ScenarioNumbers {
    std::vector<double> p50, p99, lost_ms;
  };
  std::map<std::string, ScenarioNumbers> per_scenario;
  int64_t committed = 0, seeds_run = 0, unsafe = 0;
  uint64_t events = 0, hashes = 0;
  double virtual_s = 0, sweep_wall = 0, seed_wall = 0, cpu_s = 0;
  uint64_t digest = 1469598103934665603ULL;
  const int64_t start = MonoNs();
  for (uint64_t round = 0; round == 0 || SecondsSince(start) < seconds * 0.5; ++round) {
    const Usage u0 = Usage::Now();
    const int64_t sweep_start = MonoNs();
    const uint64_t base = seed * 1000 + round * 2 * kSimSeeds;
    auto scenario_of = [&](uint64_t s) { return names[(s - base) / kSimSeeds]; };
    auto spec_of = [&](uint64_t s) { return *harness::FindScenario(scenario_of(s)); };
    const harness::ScenarioAggregate agg =
        harness::RunScenarioSweepGen<core::PrestigeReplica, core::PrestigeConfig>(
            spec_of, core::PrestigeConfig(), harness::WorkloadOptions(), base,
            2 * kSimSeeds, jobs);
    for (const harness::ScenarioSeedResult& r : agg.seeds) {
      const harness::ScenarioSpec spec = spec_of(r.seed);
      const char* name = scenario_of(r.seed);
      digest = Fnv1a(harness::SeedResultJson(r), digest);
      ++seeds_run;
      unsafe += r.safety_ok ? 0 : 1;
      if (!r.safety_ok) Note("%s seed %llu UNSAFE: %s", name,
                             static_cast<unsigned long long>(r.seed), r.violation.c_str());
      committed += r.committed;
      seed_wall += r.wall_ms / 1000.0;
      events += r.events;
      hashes += r.hashes;
      virtual_s += util::ToSeconds(spec.TotalDuration());
      ScenarioNumbers& s = per_scenario[name];
      s.p50.push_back(r.p50_ms);
      s.p99.push_back(r.p99_ms);
      // Service time lost in the fault phase: the phase's length minus
      // the time its commits would take at the warm-up rate.
      if (r.phases.size() >= 2 && r.phases[0].committed > 0) {
        const double rate = static_cast<double>(r.phases[0].committed) /
                            static_cast<double>(r.phases[0].end - r.phases[0].start);
        const double span = static_cast<double>(r.phases[1].end - r.phases[1].start);
        s.lost_ms.push_back((span - static_cast<double>(r.phases[1].committed) / rate) / 1000.0);
      }
      Note("%s seed %llu: committed %lld p50 %.3f p99 %.3f lost %.1f ms wall %.0f ms", name,
           static_cast<unsigned long long>(r.seed), static_cast<long long>(r.committed),
           r.p50_ms, r.p99_ms, s.lost_ms.empty() ? 0.0 : s.lost_ms.back(), r.wall_ms);
    }
    sweep_wall += SecondsSince(sweep_start);
    cpu_s += Usage::Now().cpu_s - u0.cpu_s;
  }
  Note("sim sweep: %lld seeds, digest %016llx, sim_wall_s %.4f", static_cast<long long>(seeds_run),
       static_cast<unsigned long long>(digest), sweep_wall);
  out->attempted = seeds_run;
  out->failed = unsafe;
  if (unsafe > 0) out->correct = false;

  auto mean_of = [&](auto pick) {
    double sum = 0;
    for (auto& [name, s] : per_scenario) sum += pick(s);
    return sum / static_cast<double>(per_scenario.size());
  };
  if (!trace) {
    out->metrics.Set("setup_s", Median(setup_s), "s");
    // Per worker: the sweep's wall time is the slowest of its parallel
    // seeds, which swings with outside load more than the sum does.
    out->metrics.Set("throughput_tps", static_cast<double>(committed) / seed_wall, "1/s");
    out->metrics.Set("latency_p50_ms", mean_of([](ScenarioNumbers& s) { return Median(s.p50); }), "ms");
    out->metrics.Set("latency_p99_ms", mean_of([](ScenarioNumbers& s) { return Median(s.p99); }), "ms");
    out->metrics.Set("latency_p999_ms",
                     mean_of([](ScenarioNumbers& s) {
                       return *std::max_element(s.p99.begin(), s.p99.end());
                     }),
                     "ms");
    out->metrics.Set("cpu_us_per_commit",
                     cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, committed)), "us");
    Note("partition-leader service lost in the cut: median %.3f ms",
         Median(per_scenario["partition-leader"].lost_ms));
    return;
  }
  const Calibration cal = Calibrate({}, seed);
  out->metrics.Set("sim.events", static_cast<double>(events), "count");
  out->metrics.Set("sim.events_per_s", static_cast<double>(events) / sweep_wall, "1/s");
  out->metrics.Set("sim.hashes", static_cast<double>(hashes), "count");
  out->metrics.Set("sim.virtual_s", virtual_s, "s");
  out->metrics.Set("crypto.sha256_per_commit",
                   static_cast<double>(hashes) / static_cast<double>(std::max<int64_t>(1, committed)),
                   "count");
  out->metrics.Set("crypto.sha256_ns_per_call", cal.sha256_ns, "ns");
  out->metrics.Set("crypto.sign_ns", cal.sign_ns, "ns");
  out->metrics.Set("crypto.verify_ns", cal.verify_ns, "ns");
  out->metrics.Set("crypto.busy_share",
                   static_cast<double>(hashes) * cal.sha256_ns / (cpu_s * 1e9), "frac");
}

// ------------------------------------------------------------------ main

int Usage_(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload closed-saturate|leader-crash|sim-faults "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--sessions") {
      // Reproduces the client-count knee sweep recorded in README.md.
      g_closed_sessions = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage_(argv[0]);
    }
  }
  if (seconds <= 0) return Usage_(argv[0]);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  Outcome out;
  if (trace) {
    out.metrics = LayerSkeleton();
    const std::string binary = argv[0];
    const size_t slash = binary.rfind('/');
    g_spans_path = (slash == std::string::npos ? std::string(".") : binary.substr(0, slash)) +
                   "/spans-" + workload + "-" + std::to_string(seed) + ".jsonl";
  }
  if (workload == "closed-saturate") {
    ClosedSaturate(seed, seconds, trace, &out);
  } else if (workload == "leader-crash") {
    LeaderCrash(seed, seconds, trace, &out);
  } else if (workload == "sim-faults") {
    SimFaults(seed, seconds, trace, &out);
  } else {
    return Usage_(argv[0]);
  }
  if (!trace) out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!out.correct) out.failed = out.attempted;
  std::printf("%s: %s\n", workload.c_str(), trace ? "per-layer (traced)" : "end-to-end");
  out.metrics.PrintLines();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              out.correct ? "true" : "false", static_cast<long long>(std::max<int64_t>(1, out.attempted)),
              static_cast<long long>(out.failed), out.metrics.Json().c_str());
  return out.correct ? 0 : 1;
}
