// prestige_lint — project-invariant static checker for the PrestigeBFT tree.
//
// A deliberately small analysis: a comment/string-aware token scanner plus a
// quoted-include graph walker, no libclang. It machine-checks the nine
// invariants that reviews have historically had to defend by hand:
//
//   layering     — nothing under core/, baselines/, client/, or app/ may
//                  include (directly or transitively) sim/, harness/,
//                  workload/, or shard/. Protocol code talks to the outside
//                  world only through runtime::Env (PR 4's decoupling);
//                  sharding is a harness-side concern (PR 9) and replicas
//                  stay group-oblivious.
//   determinism  — wall-clock and ambient-randomness primitives
//                  (std::chrono, ::time(), rand(), std::random_device,
//                  this_thread::sleep_*, ...) are banned outside runtime/,
//                  sim/, harness/, and util/time.h. Protocol code draws time
//                  and entropy from its Env, which is what makes seed sweeps
//                  bit-reproducible (PR 3).
//   codec-tags   — every Encoder / HashingEncoder construction site must
//                  carry a string-literal domain-separation tag, the global
//                  tag set must be collision-free, and raw Append() is
//                  confined to types/codec.h (the no-collision argument of
//                  src/types/codec.h).
//   timer-tag    — no ad-hoc `(kind << N) | payload` bit packing outside
//                  util/timer_tag.h (the PR 2 48-bit truncation bug class).
//   adversary    — protocol code (core/, baselines/, client/, app/) may
//                  hold the types::AdversaryPolicy interface only as a
//                  pointer (nullptr = honest) and may never name the
//                  concrete ScriptedAdversary: attacks are enacted solely
//                  through harness/sim scenario wiring, keeping the
//                  protocol honest-path-only.
//   threading    — thread/synchronization system headers (<thread>, <mutex>,
//                  <condition_variable>, <atomic>, ...) are banned in core/
//                  and baselines/. Replica state is mutated only on its loop
//                  thread; off-thread CPU work is expressed through the
//                  Node::PreVerify prologue hook (runtime/ordered_runner.h,
//                  PR 8), so protocol code never needs its own threads or
//                  locks.
//   sockets      — raw OS networking headers (<sys/socket.h>, <netinet/*>,
//                  <arpa/inet.h>, <poll.h>, <sys/epoll.h>) are confined to
//                  net/ and runtime/. Everything else reaches the network
//                  through the bounds-checked net:: wrappers (or
//                  runtime::Env one level higher), so hostile bytes can
//                  only enter through the hardened decode pipeline.
//   crypto-lib   — OpenSSL headers (<openssl/*>) are confined to crypto/.
//                  Everything else hashes through crypto::Sha256, whose
//                  Finish() credits the active CryptoMeter; a direct
//                  libcrypto call would bypass it and silently shift the
//                  simulator's deterministic hash counts.
//   wire-kinds   — every direct runtime::NetMessage subclass has a row in
//                  net/wire.cc's kind table (or a stated reason not to): a
//                  message without one has no wire form, and the socket
//                  backend would silently deliver it locally only.
//
// Suppressions: a finding on line L is suppressed when a comment on L — or
// on an immediately preceding comment-only line — contains
//
//   lint:allow(rule)            e.g.  // lint:allow(determinism)
//   lint:allow(rule: reason)    e.g.  // lint:allow(layering: test shim)
//   lint:allow(rule1, rule2)
//
// The library operates on in-memory SourceFile lists so the gtest fixture
// suite (tests/lint_test.cc) can feed it deliberate violations; the CLI
// (tools/prestige_lint/main.cc) loads a real tree via LoadTree().

#ifndef PRESTIGE_TOOLS_PRESTIGE_LINT_H_
#define PRESTIGE_TOOLS_PRESTIGE_LINT_H_

#include <string>
#include <vector>

namespace prestige {
namespace lint {

/// One file under analysis. `path` is root-relative with '/' separators
/// (e.g. "core/replica.h") — rule scoping keys off its leading directory.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation.
struct Finding {
  std::string rule;     ///< Rule name, e.g. "layering".
  std::string path;     ///< Root-relative file path.
  int line = 0;         ///< 1-based line number.
  std::string message;  ///< Human-readable description.
};

/// One extracted Encoder/HashingEncoder domain-separation tag site.
struct DomainTag {
  std::string tag;
  std::string path;
  int line = 0;
};

/// Which rules to run; empty means all.
struct Options {
  std::vector<std::string> rules;
};

/// Names of every implemented rule, in canonical order.
const std::vector<std::string>& RuleNames();

/// Runs the selected rules over `files` and returns findings sorted by
/// (path, line, rule). Suppressed findings are dropped.
std::vector<Finding> Lint(const std::vector<SourceFile>& files,
                          const Options& options = Options());

/// Extracts every domain-separation tag construction site (suppressions do
/// not apply — the registry must reflect reality). Sorted by (tag, path,
/// line).
std::vector<DomainTag> ExtractDomainTags(const std::vector<SourceFile>& files);

/// Loads every .h/.cc/.cpp under `root_dir` (recursively) with paths
/// relative to it, sorted by path. Throws std::runtime_error when the root
/// does not exist.
std::vector<SourceFile> LoadTree(const std::string& root_dir);

/// "path:line: [rule] message" — the CLI output format.
std::string FormatFinding(const Finding& finding);

}  // namespace lint
}  // namespace prestige

#endif  // PRESTIGE_TOOLS_PRESTIGE_LINT_H_
