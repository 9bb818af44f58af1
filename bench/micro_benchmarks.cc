// Micro-benchmarks (google-benchmark): crypto substrate, reputation engine,
// proof-of-work, simulator hot paths, and block-body handling. Not a paper
// figure — these bound the constants the cost model abstracts.

#include <benchmark/benchmark.h>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/pow.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "ledger/tx_block.h"
#include "reputation/reputation_engine.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "types/transaction.h"

namespace prestige {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  std::vector<uint8_t> key(32, 0x0b);
  std::vector<uint8_t> data(256, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyStore keys(42);
  const crypto::Sha256Digest digest =
      crypto::Sha256::Hash(std::string("message"));
  const crypto::Signature sig = keys.Sign(1, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.Verify(sig, digest));
  }
}
BENCHMARK(BM_SignVerify);

// Aggregate KeyStore::Verify throughput across 1..N concurrent threads —
// the scaling the OrderedRunner prologue pool (runtime/ordered_runner.h)
// banks on. Verify is const over immutable keys, so threads share one
// store with no synchronization, exactly like worker prologues do.
// UseRealTime reports wall time: flat ns/op with rising thread count
// means near-linear aggregate throughput.
void BM_VerifyThroughputThreaded(benchmark::State& state) {
  static crypto::KeyStore keys(42);
  static const crypto::Sha256Digest digest =
      crypto::Sha256::Hash(std::string("parallel-verify"));
  static const crypto::Signature sig = keys.Sign(1, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.Verify(sig, digest));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyThroughputThreaded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// Same scaling probe for raw Sha256 over a batch-sized payload (the
// prologue's block-hashing half).
void BM_Sha256ThroughputThreaded(benchmark::State& state) {
  static const std::vector<uint8_t> data(4096, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256ThroughputThreaded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_QuorumCertVerify(benchmark::State& state) {
  crypto::KeyStore keys(42);
  const crypto::Sha256Digest digest =
      crypto::Sha256::Hash(std::string("block"));
  const uint32_t quorum = static_cast<uint32_t>(state.range(0));
  crypto::QuorumCertBuilder builder(digest, quorum);
  for (uint32_t i = 0; i < quorum; ++i) {
    builder.Add(keys.Sign(i, digest), digest);
  }
  const crypto::QuorumCert qc = builder.Build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::VerifyQuorumCert(keys, qc, digest, quorum));
  }
}
BENCHMARK(BM_QuorumCertVerify)->Arg(3)->Arg(11)->Arg(67);

void BM_CalcRp(benchmark::State& state) {
  reputation::ReputationEngine engine;
  std::vector<types::Penalty> penalties;
  for (int64_t i = 0; i < state.range(0); ++i) {
    penalties.push_back(1 + i % 5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.CalcRp(100, 99, 5, 1000, 200, penalties));
  }
}
BENCHMARK(BM_CalcRp)->Arg(8)->Arg(64)->Arg(1024);

void BM_PowSolve(benchmark::State& state) {
  util::Rng rng(7);
  crypto::RealPowSolver solver;
  const crypto::Sha256Digest payload =
      crypto::Sha256::Hash(std::string("txblock"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Solve(payload, static_cast<int>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_PowSolve)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_PowVerify(benchmark::State& state) {
  util::Rng rng(7);
  crypto::RealPowSolver solver;
  const crypto::Sha256Digest payload =
      crypto::Sha256::Hash(std::string("txblock"));
  const auto sol = solver.Solve(payload, 12, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::PowVerify(payload, sol->nonce, 12));
  }
}
BENCHMARK(BM_PowVerify);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i * 10, [] {});
    }
    sim.RunUntil(100000);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_TransactionDigest(benchmark::State& state) {
  types::Transaction tx;
  tx.pool = 3;
  tx.client_seq = 12345;
  tx.fingerprint = 0xdeadbeef;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.Digest());
  }
}
BENCHMARK(BM_TransactionDigest);

/// A batch of `size` distinct synthetic transactions.
std::vector<types::Transaction> SyntheticBatch(size_t size) {
  std::vector<types::Transaction> txs(size);
  for (size_t i = 0; i < size; ++i) {
    txs[i].pool = static_cast<types::ClientPoolId>(i % 8);
    txs[i].client_seq = i + 1;
    txs[i].fingerprint = 0x9e3779b97f4a7c15ULL * (i + 1);
  }
  return txs;
}

/// Digest of one batch body (one SHA-256 per transaction plus the fold):
/// what every replica pays per proposed block. Arg 2600 is the
/// closed-saturate block size.
void BM_BatchDigest(benchmark::State& state) {
  const types::TxBatch txs =
      SyntheticBatch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(types::BatchDigest(txs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchDigest)->Arg(2600);

/// Copying a committed TxBlock, as the broadcast, commit and sync paths
/// do: the batch body is shared, so the cost is the header, status vector
/// and QCs, independent of how many transactions the body holds.
void BM_TxBlockCopy(benchmark::State& state) {
  ledger::TxBlock block;
  block.set_n(7);
  block.set_txs(SyntheticBatch(static_cast<size_t>(state.range(0))));
  block.status.assign(block.BatchSize(), 1);
  (void)block.Digest();
  for (auto _ : state) {
    ledger::TxBlock copy = block;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_TxBlockCopy)->Arg(2600);

}  // namespace
}  // namespace prestige

BENCHMARK_MAIN();
