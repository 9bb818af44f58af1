// prestige_cluster: spawns an n-replica (+ client pool) loopback cluster
// as separate prestige_node OS processes, runs a scripted steady-state
// window, harvests per-process metrics over the control sockets, and
// runs the harness safety sweep (committed prefix, execution agreement,
// conservation) over the reported ledgers (harness/process_cluster.h).
//
// Usage:
//   prestige_cluster --node-binary ./prestige_node [--protocol prestigebft]
//       [--n 4] [--pools 1] [--clients-per-pool 200] [--batch 500]
//       [--payload 32] [--duration-s 6] [--seed 1] [--min-committed 1000]
//       [--work-dir DIR] [--json BENCH_socket_cluster.json]
//
// Exit status: 0 when the run completed, every invariant held, AND the
// committed total met --min-committed; 1 otherwise. CI's loopback smoke
// job keys off this.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "harness/process_cluster.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: prestige_cluster --node-binary PATH [--protocol "
      "prestigebft|hotstuff|sbft]\n"
      "    [--n N] [--pools P] [--clients-per-pool C] [--batch B]\n"
      "    [--payload BYTES] [--duration-s S] [--seed SEED]\n"
      "    [--min-committed MIN] [--work-dir DIR] [--json PATH]\n");
  return 2;
}

std::string ClusterJson(const prestige::harness::ProcessClusterResult& r,
                        const prestige::net::ClusterConfig& config,
                        int64_t min_committed) {
  const prestige::harness::SafetyReport& safety = r.safety;
  char buf[1200];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"scenario\": \"socket-cluster\",\n"
      "  \"protocol\": \"%s\",\n"
      "  \"n\": %u,\n"
      "  \"pools\": %u,\n"
      "  \"clients_per_pool\": %u,\n"
      "  \"batch\": %u,\n"
      "  \"payload\": %u,\n"
      "  \"processes\": %u,\n"
      "  \"seed\": %llu,\n"
      "  \"duration_seconds\": %.3f,\n"
      "  \"committed\": %lld,\n"
      "  \"min_committed\": %lld,\n"
      "  \"throughput_tps\": %.1f,\n"
      "  \"p50_latency_ms\": %.4f,\n"
      "  \"p99_latency_ms\": %.4f,\n"
      "  \"view_changes\": %lld,\n"
      "  \"elections_won\": %lld,\n"
      "  \"executed\": %lld,\n"
      "  \"duplicates\": %lld,\n"
      "  \"replies\": %lld,\n"
      "  \"result_mismatches\": %lld,\n"
      "  \"min_height\": %lld,\n"
      "  \"max_height\": %lld,\n"
      "  \"safe\": %s,\n",
      config.protocol.c_str(), config.n, config.pools,
      config.clients_per_pool, config.batch, config.payload,
      config.n + config.pools,
      static_cast<unsigned long long>(config.seed), r.duration_seconds,
      static_cast<long long>(r.committed),
      static_cast<long long>(min_committed), r.tps, r.p50_ms, r.p99_ms,
      static_cast<long long>(r.view_changes),
      static_cast<long long>(r.elections_won),
      static_cast<long long>(safety.executed_total),
      static_cast<long long>(safety.duplicates_total),
      static_cast<long long>(r.replies),
      static_cast<long long>(r.result_mismatches),
      static_cast<long long>(safety.min_height),
      static_cast<long long>(safety.max_height),
      safety.ok ? "true" : "false");
  std::string json = buf;
  json += "  \"net\": " + prestige::harness::FrameCountersJson(r.net) + ",\n";
  json += "  \"build\": " + prestige::bench::BuildMetadataJson() + ",\n";
  json += std::string("  \"sanitized\": ") +
          (prestige::bench::SanitizedBuild() ? "true" : "false") + "\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  prestige::harness::ProcessClusterOptions options;
  int64_t min_committed = 1000;
  double duration_s = 6.0;
  std::string json_path;
  options.work_dir = "prestige-cluster-out";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "prestige_cluster: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--node-binary") == 0) {
      const char* v = next("--node-binary");
      if (v == nullptr) return Usage();
      options.node_binary = v;
    } else if (std::strcmp(argv[i], "--protocol") == 0) {
      const char* v = next("--protocol");
      if (v == nullptr) return Usage();
      options.config.protocol = v;
    } else if (std::strcmp(argv[i], "--n") == 0) {
      const char* v = next("--n");
      if (v == nullptr) return Usage();
      options.config.n = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--pools") == 0) {
      const char* v = next("--pools");
      if (v == nullptr) return Usage();
      options.config.pools = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--clients-per-pool") == 0) {
      const char* v = next("--clients-per-pool");
      if (v == nullptr) return Usage();
      options.config.clients_per_pool = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      const char* v = next("--batch");
      if (v == nullptr) return Usage();
      options.config.batch = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--payload") == 0) {
      const char* v = next("--payload");
      if (v == nullptr) return Usage();
      options.config.payload = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      const char* v = next("--duration-s");
      if (v == nullptr) return Usage();
      duration_s = std::atof(v);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next("--seed");
      if (v == nullptr) return Usage();
      options.config.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--min-committed") == 0) {
      const char* v = next("--min-committed");
      if (v == nullptr) return Usage();
      min_committed = std::strtoll(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      const char* v = next("--work-dir");
      if (v == nullptr) return Usage();
      options.work_dir = v;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = next("--json");
      if (v == nullptr) return Usage();
      json_path = v;
    } else {
      std::fprintf(stderr, "prestige_cluster: unknown flag '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (options.node_binary.empty()) {
    std::fprintf(stderr, "prestige_cluster: --node-binary is required\n");
    return Usage();
  }
  if (options.config.n < 4 || duration_s <= 0.0) {
    std::fprintf(stderr,
                 "prestige_cluster: need --n >= 4 and --duration-s > 0\n");
    return 2;
  }
  options.config.duration_us = static_cast<int64_t>(duration_s * 1e6);
  ::mkdir(options.work_dir.c_str(), 0755);

  std::printf(
      "prestige_cluster: %u replicas + %u pool(s) of %s over loopback UDP, "
      "%.1fs window\n",
      options.config.n, options.config.pools,
      options.config.protocol.c_str(), duration_s);
  const prestige::harness::ProcessClusterResult result =
      prestige::harness::RunProcessCluster(options);

  if (!result.ran) {
    std::fprintf(stderr, "prestige_cluster: run failed: %s\n",
                 result.error.c_str());
    return 1;
  }
  std::printf(
      "  committed=%lld (floor %lld) tps=%.1f p50=%.2fms p99=%.2fms\n"
      "  heights=[%lld,%lld] view_changes=%lld frames=%llu/%llu "
      "seq_gaps=%llu drops(hdr/len/sum/frag/decode)=%llu/%llu/%llu/%llu/%llu\n"
      "  safety=%s%s%s\n",
      static_cast<long long>(result.committed),
      static_cast<long long>(min_committed), result.tps, result.p50_ms,
      result.p99_ms, static_cast<long long>(result.safety.min_height),
      static_cast<long long>(result.safety.max_height),
      static_cast<long long>(result.view_changes),
      static_cast<unsigned long long>(result.net.frames_sent),
      static_cast<unsigned long long>(result.net.frames_received),
      static_cast<unsigned long long>(result.net.seq_gaps),
      static_cast<unsigned long long>(result.net.header_drops),
      static_cast<unsigned long long>(result.net.length_drops),
      static_cast<unsigned long long>(result.net.checksum_drops),
      static_cast<unsigned long long>(result.net.frag_drops),
      static_cast<unsigned long long>(result.net.decode_drops),
      result.safety.ok ? "ok" : "VIOLATION",
      result.safety.ok ? "" : ": ",
      result.safety.ok ? "" : result.safety.violation.c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "prestige_cluster: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    const std::string json =
        ClusterJson(result, options.config, min_committed);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!result.safety.ok) return 1;
  if (result.committed < min_committed) {
    std::fprintf(stderr,
                 "prestige_cluster: committed %lld below floor %lld\n",
                 static_cast<long long>(result.committed),
                 static_cast<long long>(min_committed));
    return 1;
  }
  return 0;
}
