// prestige_lint fixture suite.
//
// Every rule is exercised with at least one passing and one violating
// in-memory snippet, plus suppression-syntax coverage; the final tests run
// the checker over the real src/ tree (clean by construction — the CI lint
// job runs the same check) and pin the domain-tag registry to a golden
// list, so adding a message kind forces a conscious registry update here.

#include "prestige_lint/prestige_lint.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace prestige {
namespace lint {
namespace {

std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                         const std::string& rule = "") {
  Options options;
  if (!rule.empty()) options.rules.push_back(rule);
  return Lint(files, options);
}

bool HasFinding(const std::vector<Finding>& findings, const std::string& rule,
                const std::string& path, int line = 0) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.path == path &&
                              (line == 0 || f.line == line);
                     });
}

// ----------------------------------------------------------------- layering

TEST(LayeringTest, CleanCoreDependenciesPass) {
  const std::vector<SourceFile> files = {
      {"core/replica.h",
       "#include \"types/ids.h\"\n#include \"runtime/env.h\"\n"},
      {"types/ids.h", "#include \"util/time.h\"\n"},
      {"runtime/env.h", ""},
      {"util/time.h", ""},
  };
  EXPECT_TRUE(RunLint(files, "layering").empty());
}

TEST(LayeringTest, DirectForbiddenIncludeFails) {
  const std::vector<SourceFile> files = {
      {"core/replica.h", "#include \"harness/cluster.h\"\n"},
      {"harness/cluster.h", ""},
  };
  const auto findings = RunLint(files, "layering");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(HasFinding(findings, "layering", "core/replica.h", 1));
  EXPECT_NE(findings[0].message.find("harness"), std::string::npos);
}

TEST(LayeringTest, TransitiveReachabilityFails) {
  // core -> types -> sim: the offending edge is core's include of types,
  // and the message names the full chain.
  const std::vector<SourceFile> files = {
      {"core/messages.h", "#include \"types/codec2.h\"\n"},
      {"types/codec2.h", "#include \"sim/network.h\"\n"},
      {"sim/network.h", ""},
  };
  const auto findings = RunLint(files, "layering");
  EXPECT_TRUE(HasFinding(findings, "layering", "core/messages.h", 1));
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("chain:"), std::string::npos);
  EXPECT_NE(findings[0].message.find("sim/network.h"), std::string::npos);
}

TEST(LayeringTest, AllProtectedAndForbiddenDirsCovered) {
  for (const char* protected_dir : {"core", "baselines", "client", "app"}) {
    for (const char* forbidden_dir : {"sim", "harness", "workload",
                                      "shard"}) {
      const std::string src = std::string(protected_dir) + "/x.h";
      const std::string dst = std::string(forbidden_dir) + "/y.h";
      const std::vector<SourceFile> files = {
          {src, "#include \"" + dst + "\"\n"},
          {dst, ""},
      };
      EXPECT_TRUE(HasFinding(RunLint(files, "layering"), "layering", src, 1))
          << src << " -> " << dst;
    }
  }
}

TEST(LayeringTest, UnprotectedDirsMayIncludeAnything) {
  // workload -> shard is the real PR 9 edge: generators route keys, but
  // shard/ itself stays out of protocol code (the loop above convicts
  // e.g. core -> shard).
  const std::vector<SourceFile> files = {
      {"harness/cluster.h", "#include \"sim/network.h\"\n"},
      {"bench_like/tool.h", "#include \"workload/client_pool.h\"\n"},
      {"workload/client_pool.h", "#include \"shard/router.h\"\n"},
      {"sim/network.h", ""},
      {"shard/router.h", ""},
  };
  EXPECT_TRUE(RunLint(files, "layering").empty());
}

TEST(LayeringTest, ForbiddenIncludeByPathAloneFailsWithoutTargetFile) {
  // The included file need not be part of the analyzed set: its path is
  // enough to convict the edge.
  const std::vector<SourceFile> files = {
      {"client/client.cc", "#include \"workload/fault_spec.h\"\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files, "layering"), "layering",
                         "client/client.cc", 1));
}

TEST(LayeringTest, IncludeCycleDoesNotHangOrCrash) {
  const std::vector<SourceFile> files = {
      {"core/a.h", "#include \"core/b.h\"\n"},
      {"core/b.h", "#include \"core/a.h\"\n"},
  };
  EXPECT_TRUE(RunLint(files, "layering").empty());
}

// -------------------------------------------------------------- determinism

TEST(DeterminismTest, EnvDrivenProtocolCodePasses) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "void Tick() { auto now = env().NowMicros(); auto r = rng().NextUint64();"
       " timeout_ = now + r; }\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

TEST(DeterminismTest, ChronoOutsideRuntimeFails) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include <chrono>\n"
       "auto T() { return std::chrono::steady_clock::now(); }\n"},
  };
  const auto findings = RunLint(files, "determinism");
  EXPECT_TRUE(HasFinding(findings, "determinism", "core/replica.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "determinism", "core/replica.cc", 2));
}

TEST(DeterminismTest, AmbientEntropyFails) {
  const std::vector<SourceFile> files = {
      {"ledger/block_store.cc",
       "int A() { return rand(); }\n"
       "std::random_device rd;\n"
       "int B() { return std::rand(); }\n"},
  };
  const auto findings = RunLint(files, "determinism");
  EXPECT_TRUE(HasFinding(findings, "determinism", "ledger/block_store.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "determinism", "ledger/block_store.cc", 2));
  EXPECT_TRUE(HasFinding(findings, "determinism", "ledger/block_store.cc", 3));
}

TEST(DeterminismTest, SleepAndTimeCallsFail) {
  const std::vector<SourceFile> files = {
      {"app/service.h",
       "void W() { std::this_thread::sleep_for(d); }\n"
       "long N() { return ::time(nullptr); }\n"},
  };
  const auto findings = RunLint(files, "determinism");
  EXPECT_TRUE(HasFinding(findings, "determinism", "app/service.h", 1));
  EXPECT_TRUE(HasFinding(findings, "determinism", "app/service.h", 2));
}

TEST(DeterminismTest, RuntimeSimHarnessAndTimeHeaderAreExempt) {
  const std::vector<SourceFile> files = {
      {"runtime/threaded_env.cc",
       "#include <chrono>\nauto e = std::chrono::steady_clock::now();\n"},
      {"sim/latency.cc", "#include <chrono>\n"},
      {"harness/threaded_cluster.h",
       "void S() { std::this_thread::sleep_for(x); }\n"},
      {"util/time.h", "#include <chrono>\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

TEST(DeterminismTest, IdentifierBoundariesAvoidFalsePositives) {
  // "timeout", "NextRand", "Timer", member .time() calls: none of these are
  // the banned primitives.
  const std::vector<SourceFile> files = {
      {"core/config.h",
       "int timeout_ms = 5; uint64_t NextRand(); struct Timer {};\n"
       "double t = stats.time();\n"
       "auto v = monochrono;\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

// --------------------------------------------------------------- codec-tags

TEST(CodecTagsTest, TaggedConstructionPasses) {
  const std::vector<SourceFile> files = {
      {"ledger/tx_block.cc",
       "types::HashingEncoder enc(\"ord\");\n"
       "types::Encoder wire(\"wire-tx\", 256);\n"},
  };
  EXPECT_TRUE(RunLint(files, "codec-tags").empty());
}

TEST(CodecTagsTest, NonLiteralTagFails) {
  const std::vector<SourceFile> files = {
      {"ledger/tx_block.cc",
       "types::HashingEncoder enc(tag_variable);\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files, "codec-tags"), "codec-tags",
                         "ledger/tx_block.cc", 1));
}

TEST(CodecTagsTest, TemporaryEncoderWithoutLiteralFails) {
  const std::vector<SourceFile> files = {
      {"core/messages.h", "auto d = types::Encoder(MakeTag()).Digest();\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files, "codec-tags"), "codec-tags",
                         "core/messages.h", 1));
}

TEST(CodecTagsTest, DuplicateDomainTagsFailAtEverySite) {
  const std::vector<SourceFile> files = {
      {"ledger/tx_block.cc", "types::HashingEncoder enc(\"ord\");\n"},
      {"core/messages.h", "types::HashingEncoder enc(\"ord\");\n"},
  };
  const auto findings = RunLint(files, "codec-tags");
  EXPECT_TRUE(HasFinding(findings, "codec-tags", "ledger/tx_block.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "codec-tags", "core/messages.h", 1));
  ASSERT_FALSE(findings.empty());
  // The message names every colliding site.
  EXPECT_NE(findings[0].message.find("ledger/tx_block.cc:1"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("core/messages.h:1"), std::string::npos);
}

TEST(CodecTagsTest, RawAppendOutsideCodecHeaderFails) {
  const std::vector<SourceFile> files = {
      {"core/messages.h", "enc.Append(bytes.data(), bytes.size());\n"},
      {"ledger/vc_block.cc", "enc->Append(p, n);\n"},
  };
  const auto findings = RunLint(files, "codec-tags");
  EXPECT_TRUE(HasFinding(findings, "codec-tags", "core/messages.h", 1));
  EXPECT_TRUE(HasFinding(findings, "codec-tags", "ledger/vc_block.cc", 1));
}

TEST(CodecTagsTest, CodecHeaderItselfIsExemptFromAppendAndCtorRules) {
  const std::vector<SourceFile> files = {
      {"types/codec.h",
       "explicit Encoder(const char* domain_tag) { PutString(domain_tag); }\n"
       "void PutU8(uint8_t v) { self().Append(&v, 1); }\n"},
  };
  EXPECT_TRUE(RunLint(files, "codec-tags").empty());
}

TEST(CodecTagsTest, ReferencesAndTemplateUsesAreNotConstructions) {
  const std::vector<SourceFile> files = {
      {"core/messages.h",
       "void Fill(types::Encoder& enc);\n"
       "std::vector<types::HashingEncoder>* pool;\n"},
  };
  EXPECT_TRUE(RunLint(files, "codec-tags").empty());
}

TEST(CodecTagsTest, ExtractDomainTagsReturnsSortedRegistry) {
  const std::vector<SourceFile> files = {
      {"ledger/tx_block.cc",
       "types::HashingEncoder a(\"ord\");\ntypes::HashingEncoder b(\"cmt\");\n"},
      {"core/messages.h", "types::HashingEncoder c(\"camp\");\n"},
  };
  const auto tags = ExtractDomainTags(files);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0].tag, "camp");
  EXPECT_EQ(tags[1].tag, "cmt");
  EXPECT_EQ(tags[2].tag, "ord");
  EXPECT_EQ(tags[2].path, "ledger/tx_block.cc");
  EXPECT_EQ(tags[2].line, 1);
}

// ---------------------------------------------------------------- timer-tag

TEST(TimerTagTest, PackTimerTagHelperPasses) {
  const std::vector<SourceFile> files = {
      {"core/replica.h",
       "uint64_t Tag(TimerKind k, uint64_t p) {"
       " return util::PackTimerTag(k, p); }\n"},
  };
  EXPECT_TRUE(RunLint(files, "timer-tag").empty());
}

TEST(TimerTagTest, AdHocPackingFails) {
  const std::vector<SourceFile> files = {
      {"core/replica.h",
       "uint64_t tag = (static_cast<uint64_t>(kind) << 48) | seq;\n"},
  };
  EXPECT_TRUE(
      HasFinding(RunLint(files, "timer-tag"), "timer-tag", "core/replica.h", 1));
}

TEST(TimerTagTest, HandRolledUseOfPayloadBitsConstantFails) {
  const std::vector<SourceFile> files = {
      {"baselines/sbft/sbft_replica.h",
       "uint64_t tag = kind << util::kTimerTagPayloadBits;\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files, "timer-tag"), "timer-tag",
                         "baselines/sbft/sbft_replica.h", 1));
}

TEST(TimerTagTest, TimerTagHeaderItselfIsExempt) {
  const std::vector<SourceFile> files = {
      {"util/timer_tag.h",
       "return (static_cast<uint64_t>(kind) << kTimerTagPayloadBits) |\n"
       "       (payload & kTimerTagPayloadMask);\n"},
  };
  EXPECT_TRUE(RunLint(files, "timer-tag").empty());
}

TEST(TimerTagTest, SmallShiftsAndPureShiftsPass) {
  // Byte packing (<< 24) and large non-or'd shifts (1ull << 32) are not the
  // timer-tag bug class.
  const std::vector<SourceFile> files = {
      {"crypto/sha256.cc",
       "uint32_t v = (a << 24) | (b << 16) | (c << 8) | d;\n"
       "uint64_t max_iterations = 1ull << 48;\n"},
  };
  EXPECT_TRUE(RunLint(files, "timer-tag").empty());
}

// ---------------------------------------------------------------- adversary

TEST(AdversaryTest, PointerOnlyUseInProtocolCodePasses) {
  const std::vector<SourceFile> files = {
      {"core/replica.h",
       "const types::AdversaryPolicy* adversary_ = nullptr;\n"
       "void SetAdversary(const types::AdversaryPolicy* a) { adversary_ = a; "
       "}\n"},
      {"client/client.h",
       "const types::AdversaryPolicy  *adversary_ = nullptr;\n"},
  };
  EXPECT_TRUE(RunLint(files, "adversary").empty());
}

TEST(AdversaryTest, ScriptedAdversaryInProtocolCodeFails) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "harness::ScriptedAdversary adversary(spec);\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files, "adversary"), "adversary",
                         "core/replica.cc", 1));
}

TEST(AdversaryTest, NonPointerPolicyUseInProtocolCodeFails) {
  const std::vector<SourceFile> files = {
      {"baselines/hotstuff/hotstuff_replica.h",
       "types::AdversaryPolicy policy;\n"},
      {"client/client.cc",
       "class Evil : public types::AdversaryPolicy {};\n"},
      {"app/service.h",
       "const types::AdversaryPolicy& policy_ref = *adversary_;\n"},
  };
  const auto findings = RunLint(files, "adversary");
  EXPECT_TRUE(HasFinding(findings, "adversary",
                         "baselines/hotstuff/hotstuff_replica.h", 1));
  EXPECT_TRUE(HasFinding(findings, "adversary", "client/client.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "adversary", "app/service.h", 1));
}

TEST(AdversaryTest, HarnessAndTypesMayConstructPolicies) {
  const std::vector<SourceFile> files = {
      {"harness/adversary.h",
       "class ScriptedAdversary : public types::AdversaryPolicy {};\n"},
      {"types/adversary.h", "class AdversaryPolicy {};\n"},
  };
  EXPECT_TRUE(RunLint(files, "adversary").empty());
}

TEST(AdversaryTest, SuppressibleLikeEveryRule) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// lint:allow(adversary: test double lives here deliberately)\n"
       "harness::ScriptedAdversary adversary(spec);\n"},
  };
  EXPECT_TRUE(RunLint(files, "adversary").empty());
}

// ---------------------------------------------------------------- threading

TEST(ThreadingTest, ThreadHeadersInProtocolCodeFail) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include <mutex>\n"
       "#include <thread>\n"
       "#include <vector>\n"},
      {"baselines/sbft/sbft_replica.cc",
       "#include <atomic>\n"
       "#include <condition_variable>\n"},
  };
  const auto findings = RunLint(files, "threading");
  EXPECT_TRUE(HasFinding(findings, "threading", "core/replica.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "threading", "core/replica.cc", 2));
  EXPECT_TRUE(
      HasFinding(findings, "threading", "baselines/sbft/sbft_replica.cc", 1));
  EXPECT_TRUE(
      HasFinding(findings, "threading", "baselines/sbft/sbft_replica.cc", 2));
  // <vector> is not a threading header.
  EXPECT_EQ(findings.size(), 4u);
}

TEST(ThreadingTest, RuntimeAndInfrastructureMayThread) {
  // runtime/ implements the worker pool; harness/sim drive it; client/'s
  // blocking Call() API is cross-thread by contract; ledger's digest cache
  // and util's logging are deliberately concurrent.
  const std::vector<SourceFile> files = {
      {"runtime/ordered_runner.h",
       "#include <condition_variable>\n#include <mutex>\n#include <thread>\n"},
      {"harness/threaded_cluster.h", "#include <thread>\n"},
      {"sim/network.h", "#include <atomic>\n"},
      {"client/client.cc", "#include <condition_variable>\n#include <mutex>\n"},
      {"ledger/digest_cache.h", "#include <atomic>\n#include <thread>\n"},
      {"util/logging.cc", "#include <atomic>\n"},
  };
  EXPECT_TRUE(RunLint(files, "threading").empty());
}

TEST(ThreadingTest, QuotedIncludesAndLookalikesDoNotTrigger) {
  const std::vector<SourceFile> files = {
      {"core/replica.h",
       "#include \"runtime/env.h\"\n"          // quoted: layering's job.
       "#include <threads_util.hpp>\n"         // not an exact header name.
       "// discussing <thread> in a comment is fine\n"},
  };
  EXPECT_TRUE(RunLint(files, "threading").empty());
}

TEST(ThreadingTest, SuppressibleLikeEveryRule) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// lint:allow(threading: measurement-only counter)\n"
       "#include <atomic>\n"},
  };
  EXPECT_TRUE(RunLint(files, "threading").empty());
}

// ----------------------------------------------------------------- sockets

TEST(SocketsTest, RawSocketHeadersOutsideNetAndRuntimeFail) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include <sys/socket.h>\n"
       "#include <netinet/in.h>\n"
       "#include <vector>\n"},
      {"harness/process_cluster.cc",
       "#include <arpa/inet.h>\n"
       "#include <poll.h>\n"
       "#include <sys/epoll.h>\n"},
  };
  const auto findings = RunLint(files, "sockets");
  EXPECT_TRUE(HasFinding(findings, "sockets", "core/replica.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "sockets", "core/replica.cc", 2));
  EXPECT_TRUE(
      HasFinding(findings, "sockets", "harness/process_cluster.cc", 1));
  EXPECT_TRUE(
      HasFinding(findings, "sockets", "harness/process_cluster.cc", 2));
  EXPECT_TRUE(
      HasFinding(findings, "sockets", "harness/process_cluster.cc", 3));
  // <vector> is not a networking header.
  EXPECT_EQ(findings.size(), 5u);
}

TEST(SocketsTest, NetAndRuntimeMayUseRawSockets) {
  const std::vector<SourceFile> files = {
      {"net/socket.cc",
       "#include <arpa/inet.h>\n#include <netinet/in.h>\n"
       "#include <poll.h>\n#include <sys/socket.h>\n"},
      {"runtime/socket_env.cc", "#include <poll.h>\n"},
  };
  EXPECT_TRUE(RunLint(files, "sockets").empty());
}

TEST(SocketsTest, NetinetPrefixMatchesEverySubHeader) {
  const std::vector<SourceFile> files = {
      {"workload/client_pool.cc",
       "#include <netinet/tcp.h>\n#include <netinet/udp.h>\n"},
  };
  const auto findings = RunLint(files, "sockets");
  EXPECT_TRUE(HasFinding(findings, "sockets", "workload/client_pool.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "sockets", "workload/client_pool.cc", 2));
}

TEST(SocketsTest, QuotedWrapperIncludesAndLookalikesDoNotTrigger) {
  const std::vector<SourceFile> files = {
      {"harness/socket_cluster.h",
       "#include \"net/socket.h\"\n"          // the sanctioned wrapper.
       "#include <sys/socket_stats.hpp>\n"    // not an exact header name.
       "// discussing <sys/socket.h> in a comment is fine\n"},
  };
  EXPECT_TRUE(RunLint(files, "sockets").empty());
}

TEST(SocketsTest, SuppressibleLikeEveryRule) {
  const std::vector<SourceFile> files = {
      {"tools/capture.cc",
       "// lint:allow(sockets: pcap shim)\n"
       "#include <sys/socket.h>\n"},
  };
  EXPECT_TRUE(RunLint(files, "sockets").empty());
}

// -------------------------------------------------------------- crypto-lib

TEST(CryptoLibTest, OpensslOutsideCryptoFails) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include <openssl/sha.h>\n"
       "#include <vector>\n"
       "#include \"openssl/evp.h\"\n"},
      {"types/transaction.cc", "#include <openssl/evp.h>\n"},
  };
  const auto findings = RunLint(files, "crypto-lib");
  EXPECT_TRUE(HasFinding(findings, "crypto-lib", "core/replica.cc", 1));
  EXPECT_TRUE(HasFinding(findings, "crypto-lib", "core/replica.cc", 3));
  EXPECT_TRUE(HasFinding(findings, "crypto-lib", "types/transaction.cc", 1));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(CryptoLibTest, CryptoDirMayUseOpenssl) {
  const std::vector<SourceFile> files = {
      {"crypto/sha256.cc",
       "#define OPENSSL_SUPPRESS_DEPRECATED\n"
       "#include <openssl/sha.h>\n"},
      {"ledger/tx_block.h",
       "#include \"crypto/sha256.h\"\n"       // the sanctioned wrapper.
       "// hashing via <openssl/sha.h> is discussed, not included\n"},
  };
  EXPECT_TRUE(RunLint(files, "crypto-lib").empty());
}

TEST(CryptoLibTest, SuppressibleLikeEveryRule) {
  const std::vector<SourceFile> files = {
      {"tools/bench_shim.cc",
       "// lint:allow(crypto-lib: reference digest for a cross-check)\n"
       "#include <openssl/sha.h>\n"},
  };
  EXPECT_TRUE(RunLint(files, "crypto-lib").empty());
}

// -------------------------------------------------------------- wire-kinds

// A kind table in the shape of net/wire.cc's.
const SourceFile kWireTable = {
    "net/wire.cc",
    "template <class M, MsgKind K>\n"
    "struct Row {};\n"
    "using Kinds = KindTable<\n"
    "    Row<core::OrdMsg, MsgKind::kOrd>,\n"
    "    Row<types::ClientBatch, MsgKind::kClientBatch>>;\n"};

TEST(WireKindsTest, MessagesInTheKindTablePass) {
  const std::vector<SourceFile> files = {
      kWireTable,
      {"core/messages.h",
       "struct OrdMsg : public runtime::NetMessage {\n"
       "  struct Verified { bool ok; };\n"
       "  enum class Kind : uint8_t { kA };\n"
       "};\n"
       "struct Helper;\n"
       "class Other : public Base {};\n"},
      {"types/client_messages.h",
       "struct ClientBatch final : ::prestige::runtime::NetMessage {};\n"},
  };
  EXPECT_TRUE(RunLint(files, "wire-kinds").empty());
}

TEST(WireKindsTest, MessageMissingFromTheKindTableFails) {
  const std::vector<SourceFile> files = {
      kWireTable,
      {"core/messages.h",
       "struct OrdMsg : public runtime::NetMessage {};\n"
       "// Forgot its row.\n"
       "struct NewMsg : public runtime::NetMessage {};\n"},
      {"baselines/x/x.h", "class XMsg : public Base, public NetMessage {};\n"},
  };
  const auto findings = RunLint(files, "wire-kinds");
  EXPECT_TRUE(HasFinding(findings, "wire-kinds", "core/messages.h", 3));
  EXPECT_TRUE(HasFinding(findings, "wire-kinds", "baselines/x/x.h", 1));
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("XMsg"), std::string::npos);
}

TEST(WireKindsTest, SuppressibleWithAReason) {
  const std::vector<SourceFile> files = {
      kWireTable,
      {"client/client.h",
       "// lint:allow(wire-kinds: carries a closure)\n"
       "struct SubmitRequestMsg : public runtime::NetMessage {};\n"},
  };
  EXPECT_TRUE(RunLint(files, "wire-kinds").empty());
}

// ------------------------------------------------------------- suppressions

TEST(SuppressionTest, SameLineAllowSuppresses) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include <chrono>  // lint:allow(determinism)\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

TEST(SuppressionTest, PrecedingCommentLineSuppressesNextLine) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// lint:allow(determinism: wall-clock wait is intentional here)\n"
       "auto t = std::chrono::steady_clock::now();\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

TEST(SuppressionTest, ReasonAndMultipleRulesAreParsed) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// lint:allow(determinism: reason, layering: other reason)\n"
       "#include \"harness/cluster.h\"  // and chrono on the same line\n"},
      {"harness/cluster.h", "#include <chrono>\n"},
  };
  EXPECT_TRUE(RunLint(files).empty());
}

TEST(SuppressionTest, SuppressionOfOneRuleDoesNotHideAnother) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "#include \"sim/network.h\"  // lint:allow(determinism)\n"},
      {"sim/network.h", ""},
  };
  EXPECT_TRUE(HasFinding(RunLint(files), "layering", "core/replica.cc", 1));
}

TEST(SuppressionTest, ViolationWithoutAllowStillFires) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// a comment that is not an allow\n"
       "#include <chrono>\n"},
  };
  EXPECT_TRUE(HasFinding(RunLint(files), "determinism", "core/replica.cc", 2));
}

// ----------------------------------------------------- comment/string aware

TEST(ScannerTest, CommentsAndStringsDoNotTriggerRules) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc",
       "// std::chrono is banned here; rand() too\n"
       "/* std::random_device in a block comment */\n"
       "const char* msg = \"do not call rand() or use std::chrono\";\n"},
  };
  EXPECT_TRUE(RunLint(files, "determinism").empty());
}

TEST(ScannerTest, FindingsCarryFormattedOutput) {
  const std::vector<SourceFile> files = {
      {"core/replica.cc", "#include <chrono>\n"},
  };
  const auto findings = RunLint(files, "determinism");
  ASSERT_EQ(findings.size(), 1u);
  const std::string formatted = FormatFinding(findings[0]);
  EXPECT_NE(formatted.find("core/replica.cc:1"), std::string::npos);
  EXPECT_NE(formatted.find("[determinism]"), std::string::npos);
}

// ----------------------------------------------------------- real-tree gate

#ifdef PRESTIGE_SOURCE_DIR

TEST(RealTreeTest, SrcIsLintClean) {
  const auto files = LoadTree(std::string(PRESTIGE_SOURCE_DIR) + "/src");
  ASSERT_GT(files.size(), 50u) << "tree load looks truncated";
  const auto findings = Lint(files);
  for (const auto& finding : findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
}

// The golden domain-separation tag registry. Every Encoder/HashingEncoder
// construction site in src/ must carry one of these tags, each tag exactly
// once. Adding a message kind means adding its tag here — a conscious
// registry update — or the test (and the no-collision argument) fails.
TEST(RealTreeTest, DomainTagRegistryMatchesGoldenList) {
  const std::vector<std::string> kGoldenTags = {
      "batch",     // types/transaction.cc — transaction batch digest
      "camp",      // core/messages.h — campaign message digest
      "cmt",       // ledger/tx_block.cc — commit-phase block digest
      "confvc",    // ledger/vc_block.cc — VC confirmation share
      "heartbeat", // core/messages.h — leader heartbeat digest
      "hs-vote",   // baselines/hotstuff — HotStuff vote digest
      "ord",       // ledger/tx_block.cc — ordering-phase block digest
      "refresh",   // ledger/vc_block.cc — reputation refresh digest
      "sbft",      // baselines/sbft — SBFT share digest
      "tx",        // types/transaction.h — single transaction digest
      "txblock",   // ledger/tx_block.h — transaction block digest
      "vcblock",   // ledger/vc_block.h — view-change block digest
      "vcyes",     // ledger/vc_block.cc — VC yes-vote digest
      "votecp",    // ledger/vc_block.cc — vote checkpoint digest
  };

  const auto files = LoadTree(std::string(PRESTIGE_SOURCE_DIR) + "/src");
  const auto tags = ExtractDomainTags(files);

  std::set<std::string> unique;
  for (const auto& tag : tags) {
    EXPECT_TRUE(unique.insert(tag.tag).second)
        << "domain tag collision: \"" << tag.tag << "\" at " << tag.path
        << ":" << tag.line;
  }
  const std::set<std::string> golden(kGoldenTags.begin(), kGoldenTags.end());
  for (const auto& tag : tags) {
    EXPECT_TRUE(golden.count(tag.tag) != 0)
        << "tag \"" << tag.tag << "\" (" << tag.path << ":" << tag.line
        << ") is not in the golden registry; update kGoldenTags consciously";
  }
  for (const auto& tag : golden) {
    EXPECT_TRUE(unique.count(tag) != 0)
        << "golden tag \"" << tag << "\" no longer appears in src/";
  }
}

#endif  // PRESTIGE_SOURCE_DIR

}  // namespace
}  // namespace lint
}  // namespace prestige
