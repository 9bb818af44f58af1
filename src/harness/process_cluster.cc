#include "harness/process_cluster.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <thread>
#include <type_traits>

#include "net/socket.h"
#include "util/hex.h"

namespace prestige {
namespace harness {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ------------------------------------------------------------ status JSON
//
// The schema Fields(f, m) below hands the named fields of m to the visitor
// f, the idiom of net/wire.cc: JsonWrite renders them and JsonRead parses
// them back, so a node's status document has one field list.

template <class M, class T>
constexpr bool kIs = std::is_same_v<std::remove_const_t<M>, T>;

/// The schema of every status type. M is const under JsonWrite and mutable
/// under JsonRead.
template <class F, class M>
void Fields(F& f, M& m) {
  if constexpr (kIs<M, net::FrameCounters>) {
    f("frames_sent", m.frames_sent);
    f("bytes_sent", m.bytes_sent);
    f("send_errors", m.send_errors);
    f("frames_received", m.frames_received);
    f("bytes_received", m.bytes_received);
    f("header_drops", m.header_drops);
    f("wrong_dst_drops", m.wrong_dst_drops);
    f("length_drops", m.length_drops);
    f("checksum_drops", m.checksum_drops);
    f("frag_drops", m.frag_drops);
    f("decode_drops", m.decode_drops);
    f("messages_assembled", m.messages_assembled);
    f("seq_gaps", m.seq_gaps);
    f("seq_out_of_order", m.seq_out_of_order);
    f("unserializable_drops", m.unserializable_drops);
  } else if constexpr (kIs<M, LedgerReport::Block>) {
    f("n", m.n);
    f("digest", m.digest);
    f("txs", m.txs);
  } else if constexpr (kIs<M, LedgerReport>) {
    f("chain", m.chain);
    f("state_digest", m.state_digest);
    f("executed", m.executed);
    f("duplicates", m.duplicates);
  } else if constexpr (kIs<M, NodeReport>) {
    f("id", m.id);
    f("replica", m.is_replica);
    f("running", m.running);
    f("committed_txs", m.committed_txs);
    f("committed_blocks", m.committed_blocks);
    f("view_changes", m.view_changes);
    f("elections_won", m.elections_won);
    f("ledger", m.ledger);
    f("completed", m.completed);
    f("replies", m.replies);
    f("result_mismatches", m.result_mismatches);
    f("retransmissions", m.retransmissions);
    f("complaints", m.complaints);
    f("expired", m.expired);
    f("p50_ms", m.p50_ms);
    f("p99_ms", m.p99_ms);
    f("mean_ms", m.mean_ms);
    f("net", m.net);
  } else {
    static_assert(sizeof(M) == 0, "no status schema for this type");
  }
}

template <class T>
constexpr bool kNumber = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

/// Renders a value as JSON; as Fields' visitor, one `"name":value` each.
class JsonWrite {
 public:
  explicit JsonWrite(std::string& out) : out_(out) {}

  template <class T>
  void operator()(const char* name, const T& v) {
    out_ += first_ ? "\"" : ",\"";
    first_ = false;
    out_ += name;
    out_ += "\":";
    One(v);
  }
  void One(bool v) { out_ += v ? "true" : "false"; }
  template <class T>
  std::enable_if_t<kNumber<T>> One(T v) {
    char buf[32];  // Shortest round-trip form, doubles included.
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  void One(const crypto::Sha256Digest& d) {
    out_ += '"' + util::HexEncode(d.data(), d.size()) + '"';
  }
  template <class T>
  void One(const std::vector<T>& list) {
    out_ += '[';
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out_ += ',';
      One(list[i]);
    }
    out_ += ']';
  }
  template <class T>
  std::enable_if_t<std::is_class_v<T>> One(const T& composite) {
    out_ += '{';
    JsonWrite fields(out_);
    Fields(fields, composite);
    out_ += '}';
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Parses a value written by JsonWrite. An object's every key must name a
/// field of its schema; strings carry no escapes (the schema has none).
class JsonRead {
 public:
  JsonRead(const char*& p, const char* end) : p_(p), end_(end) {}

  /// Fields' visitor: reads the current key's value into its field.
  template <class T>
  void operator()(const char* name, T& v) {
    if (matched_ || key_ != name) return;
    matched_ = true;
    One(v);
  }
  void One(bool& v) {
    v = Eat("true");
    ok_ = ok_ && (v || Eat("false"));
  }
  template <class T>
  std::enable_if_t<kNumber<T>> One(T& v) {
    SkipSpace();
    const std::from_chars_result r = std::from_chars(p_, end_, v);
    ok_ = ok_ && r.ec == std::errc();
    p_ = r.ptr;
  }
  void One(crypto::Sha256Digest& d) {
    std::string hex;
    const bool quoted = String(&hex);
    const auto bytes = util::HexDecode(hex);
    ok_ = ok_ && quoted && bytes.ok() && bytes->size() == d.size();
    if (ok_) std::copy(bytes->begin(), bytes->end(), d.begin());
  }
  template <class T>
  void One(std::vector<T>& list) {
    if (!Eat("[")) {
      ok_ = false;
    } else if (!Eat("]")) {
      do {
        One(list.emplace_back());
      } while (ok_ && Eat(","));
      ok_ = ok_ && Eat("]");
    }
  }
  template <class T>
  std::enable_if_t<std::is_class_v<T>> One(T& composite) {
    JsonRead fields(p_, end_);
    ok_ = ok_ && fields.Object(composite);
  }
  /// True when every value parsed and only whitespace is left.
  bool Done() {
    SkipSpace();
    return ok_ && p_ == end_;
  }

 private:
  template <class T>
  bool Object(T& m) {
    if (!Eat("{")) return false;
    if (Eat("}")) return true;
    do {
      matched_ = false;
      if (!String(&key_) || !Eat(":")) return false;
      Fields(*this, m);
      if (!matched_ || !ok_) return false;
    } while (Eat(","));
    return Eat("}");
  }
  void SkipSpace() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  /// Consumes `word` if the input continues with it.
  bool Eat(std::string_view word) {
    SkipSpace();
    if (std::string_view(p_, static_cast<size_t>(end_ - p_))
            .substr(0, word.size()) != word) {
      return false;
    }
    p_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat("\"")) return false;
    const char* close = std::find(p_, end_, '"');
    if (close == end_) return false;
    out->assign(p_, close);
    p_ = close + 1;
    return true;
  }

  const char*& p_;
  const char* end_;
  std::string key_;
  bool matched_ = false;
  bool ok_ = true;
};

template <class T>
std::string ToJson(const T& m) {
  std::string out;
  JsonWrite(out).One(m);
  return out;
}

/// Why `node`'s report is not final, or "" when it is.
std::string Unfinished(const NodeReport& node) {
  const std::string who = "node " + std::to_string(node.id);
  if (!node.responded) return who + " reported no status";
  if (node.running) return who + " did not stop";
  return "";
}

pid_t SpawnNode(const std::string& binary, const std::string& config_path,
                uint32_t id, const std::string& log_path) {
  // Flush stdio first: fork duplicates unflushed buffers, and each child
  // would re-emit the launcher's pending output when its streams close.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: stdout/stderr to the node's log, then exec.
  std::FILE* log = std::freopen(log_path.c_str(), "w", stdout);
  if (log != nullptr) ::dup2(::fileno(stdout), 2);
  const std::string id_str = std::to_string(id);
  ::execl(binary.c_str(), "prestige_node", "--config", config_path.c_str(),
          "--id", id_str.c_str(), static_cast<char*>(nullptr));
  std::perror("execl prestige_node");
  std::_Exit(127);
}

/// One control command; returns false on connect/timeout failure.
bool ControlCommand(const net::SockAddr& addr, const std::string& command,
                    std::string* reply, int timeout_ms) {
  net::TcpConn conn = net::TcpConn::Connect(addr, timeout_ms);
  if (!conn.valid()) return false;
  if (!conn.SendLine(command)) return false;
  return conn.RecvLine(reply, timeout_ms);
}

/// SIGKILLs and reaps every child (a no-op kill for exited ones).
void KillAll(std::vector<pid_t>* children) {
  for (const pid_t pid : *children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  children->clear();
}

}  // namespace

std::string NodeStatusJson(const NodeReport& report) {
  return ToJson(report);
}

std::string FrameCountersJson(const net::FrameCounters& counters) {
  return ToJson(counters);
}

bool ParseNodeStatus(const std::string& json, NodeReport* out) {
  NodeReport report;
  const char* p = json.data();
  JsonRead read(p, json.data() + json.size());
  read.One(report);
  if (!read.Done()) return false;
  report.responded = true;
  *out = std::move(report);
  return true;
}

SafetyReport SweepNodeReports(const std::vector<NodeReport>& nodes) {
  LedgerSweep sweep;
  if (std::none_of(nodes.begin(), nodes.end(),
                   [](const NodeReport& node) { return node.is_replica; })) {
    sweep.Fail("no replica reports to sweep");
  }
  for (const NodeReport& node : nodes) {
    if (!sweep.report().ok) break;
    const std::string unfinished = Unfinished(node);
    if (!unfinished.empty()) {
      sweep.Fail("%s", unfinished.c_str());
    } else if (node.is_replica) {
      sweep.Add(node.id, node.ledger);
    }
  }
  return sweep.report();
}

bool AllocateLoopbackPorts(net::ClusterConfig* config, std::string* error) {
  const uint32_t total = config->n + config->pools;
  config->peers.clear();
  // Hold every probe socket open until all ports are drawn so the kernel
  // cannot hand the same port out twice within this loop.
  std::vector<net::UdpSocket> data_probes;
  std::vector<std::unique_ptr<net::TcpListener>> control_probes;
  net::SockAddr loopback;
  loopback.ip = 0x7f000001;
  loopback.port = 0;
  for (uint32_t i = 0; i < total; ++i) {
    net::PeerEntry peer;
    peer.id = i;
    peer.kind = i < config->n ? net::PeerEntry::Kind::kReplica
                              : net::PeerEntry::Kind::kPool;
    net::UdpSocket data;
    if (!data.Bind(loopback, error)) return false;
    peer.data = data.local_addr();
    data_probes.push_back(std::move(data));
    auto control = std::make_unique<net::TcpListener>();
    if (!control->Listen(loopback, error)) return false;
    peer.control = control->local_addr();
    control_probes.push_back(std::move(control));
    config->peers.push_back(peer);
  }
  return true;
}

ProcessClusterResult RunProcessCluster(const ProcessClusterOptions& options) {
  ProcessClusterResult result;
  net::ClusterConfig config = options.config;
  if (config.peers.empty() &&
      !AllocateLoopbackPorts(&config, &result.error)) {
    return result;
  }

  const std::string config_path = options.work_dir + "/cluster.cfg";
  {
    std::ofstream out(config_path);
    if (!out) {
      result.error = "cannot write " + config_path;
      return result;
    }
    out << net::FormatClusterConfig(config);
  }

  std::vector<pid_t> children;
  for (const net::PeerEntry& peer : config.peers) {
    const pid_t pid = SpawnNode(
        options.node_binary, config_path, peer.id,
        options.work_dir + "/node-" + std::to_string(peer.id) + ".log");
    if (pid < 0) {
      result.error = "fork failed for node " + std::to_string(peer.id);
      KillAll(&children);
      return result;
    }
    children.push_back(pid);
  }

  // Ping barrier: every control socket must answer before the clock
  // starts, so no node spends the measured window still booting.
  const auto barrier_start = std::chrono::steady_clock::now();
  for (const net::PeerEntry& peer : config.peers) {
    for (;;) {
      std::string reply;
      if (ControlCommand(peer.control, "ping", &reply, 500) &&
          reply == "ok") {
        break;
      }
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - barrier_start);
      if (waited.count() > options.startup_timeout_ms) {
        result.error =
            "node " + std::to_string(peer.id) + " failed the ping barrier";
        KillAll(&children);
        return result;
      }
      SleepMs(50);
    }
  }

  SleepMs(static_cast<int>(config.duration_us / 1000));
  result.duration_seconds = static_cast<double>(config.duration_us) / 1e6;

  // Stop the whole fleet before harvesting so chains are final and reads
  // are race-free on the node side.
  for (const net::PeerEntry& peer : config.peers) {
    std::string reply;
    ControlCommand(peer.control, "stop", &reply, options.control_timeout_ms);
  }
  for (const net::PeerEntry& peer : config.peers) {
    NodeReport report;
    report.id = peer.id;
    report.is_replica = peer.kind == net::PeerEntry::Kind::kReplica;
    std::string reply;
    if (ControlCommand(peer.control, "status", &reply,
                       options.control_timeout_ms)) {
      ParseNodeStatus(reply, &report);
    }
    result.nodes.push_back(std::move(report));
  }
  for (const net::PeerEntry& peer : config.peers) {
    std::string reply;
    ControlCommand(peer.control, "quit", &reply, 2000);
  }
  SleepMs(200);
  KillAll(&children);

  result.ran = true;
  for (const NodeReport& node : result.nodes) {
    const std::string unfinished = Unfinished(node);
    if (!unfinished.empty()) {
      result.error = unfinished;
      result.ran = false;
    }
    result.net.MergeFrom(node.net);
    if (node.is_replica) {
      result.view_changes += node.view_changes;
      result.elections_won += node.elections_won;
    } else {
      result.committed += node.completed;
      result.replies += node.replies;
      result.result_mismatches += node.result_mismatches;
      if (node.p50_ms > result.p50_ms) result.p50_ms = node.p50_ms;
      if (node.p99_ms > result.p99_ms) result.p99_ms = node.p99_ms;
    }
  }
  result.tps = result.duration_seconds > 0
                   ? static_cast<double>(result.committed) /
                         result.duration_seconds
                   : 0.0;
  result.safety = SweepNodeReports(result.nodes);
  return result;
}

}  // namespace harness
}  // namespace prestige
