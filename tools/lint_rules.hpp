// elsa-lint: project-specific static checks that clang-tidy and
// -Wthread-safety cannot express, run as a ctest gate and a CI job.
//
// Rules (stable ids; DESIGN.md §9 documents each with its rationale):
//   banned-call     — non-reentrant/global-state libc calls (std::lgamma,
//                     rand, strtok, localtime, gmtime); use the audited
//                     wrappers (util::lgamma_mt, util::Rng, chrono).
//   raw-mutex       — std::mutex & friends outside the annotated wrapper
//                     (util/thread_annotations.hpp), which is the only
//                     surface -Wthread-safety can prove things about.
//   relaxed-comment — every memory_order_relaxed needs a nearby
//                     "// relaxed: <why>" justification.
//   static-mutable  — non-const `static` std:: containers (function-local
//                     or member) are unsynchronized shared state; wrap
//                     them in an internally locked class or mark const.
//   header-pragma   — headers start with #pragma once.
//   header-using    — no `using namespace` in headers.
//   layering        — module includes must follow the dependency DAG
//                     (e.g. simlog/signalkit must never include serve/).
//
// Whole-project lock-graph rules (lint_lock_graph / lint_roots): a second
// pass parses the thread-safety annotations (ELSA_REQUIRES / ELSA_ACQUIRE
// / ELSA_EXCLUDES) plus lexical MutexLock nesting across every scanned
// file, builds the global lock-acquisition graph, and reports:
//   lock-cycle          — a cycle in the acquisition order, with the full
//                         path and the file:line of every edge.
//   cv-wait-extra-lock  — a CondVar wait while a second mutex is held
//                         (the wait releases only its own mutex; anything
//                         else held starves every contender).
//   blocking-under-lock — a blocking call (SpscRing push/pop_wait, thread
//                         join, sleep, blocking I/O) under a held Mutex.
//
// Whole-project atomics-protocol rules (lint_atomics / lint_roots): a
// third pass scans every src/-module file for std::atomic field
// declarations and classifies every atomic load/store/RMW by its memory
// order, fusing field identity across files by qualified name (the way
// the lock-graph pass fuses lock sites):
//   atomic-undeclared        — a std::atomic field with no
//                              "// elsa-atomic: <protocol>" declaration
//                              naming one of: seqlock, spsc-seq,
//                              release-acquire-flag,
//                              striped-relaxed-counter, monotonic-relaxed
//                              (taxonomy: DESIGN.md §15).
//   acquire-release-unpaired — a release store of a field with no
//                              acquire/seq_cst load of it anywhere in the
//                              project (nothing consumes the
//                              publication), and vice versa.
//   rmw-order-too-weak       — a fully relaxed CAS/fetch on a field
//                              declared release-acquire-flag or spsc-seq
//                              (hand-off protocols need ordering on the
//                              mutating side).
//   fence-undocumented       — a bare std::atomic_thread_fence; fences
//                              order *all* surrounding accesses and
//                              defeat per-field protocol reasoning.
//
// Whole-project effect-inference rules (lint_effects / lint_roots): a
// fourth pass builds the project call graph with the same tokenizer /
// scope-walker / call-site fusion as the lock-graph pass, infers a
// per-function *effect set* (heap allocation, locking, blocking + I/O,
// wall-clock reads, std::random_device, unordered-container iteration),
// propagates it transitively through resolvable call edges, and checks
// two annotation contracts placed on function definitions:
//   // elsa-realtime      — the transitive closure must be allocation-,
//                           lock-, block- and I/O-free:
//     realtime-allocates  — new/make_unique/make_shared, a container
//                           growth call (push_back, insert, resize, …) or
//                           `map[key]` on a std::map / unordered_map
//                           reachable from an elsa-realtime function.
//     realtime-locks      — a MutexLock / .lock() acquisition reachable
//                           from an elsa-realtime function.
//     realtime-blocks     — a blocking call (sleep, condvar wait, join)
//                           or I/O (streams, FILE*) reachable from an
//                           elsa-realtime function.
//   // elsa-deterministic — the closure's outputs must be reproducible:
//     det-wall-clock      — a clock read (Clock::now, gettimeofday)
//                           reachable from an elsa-deterministic function.
//     det-random-device   — std::random_device (nondeterministic seed)
//                           reachable from an elsa-deterministic function.
//     det-unordered-escape— iteration over an unordered container or a
//                           pointer-keyed map/set (hash-seed / ASLR order)
//                           reachable from an elsa-deterministic function.
// Every finding is anchored at the *effect site* and names the annotated
// root plus the call path that reaches it. The pass is deliberately
// lexical and under-approximate (DESIGN.md §17 lists the blind spots);
// unresolvable calls contribute nothing, so a finding is always a real
// lexical fact about the closure it names.
//
// A finding is suppressed by a comment on the same line or within the
// three lines above:  // elsa-lint: allow(<rule>): <reason>
// The reason is mandatory; an allow() without one does not suppress. For
// lock-cycle the allow() goes on any acquisition site participating in
// the cycle. Fixture trees are exempt wholesale: any path containing a
// `lint_fixtures` component is skipped by the directory walkers.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace elsa::lint {

struct Finding {
  std::string file;     ///< path as reported (relative to the lint root)
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< stable rule id, e.g. "banned-call"
  std::string message;
};

/// Lint one file's contents. `path` supplies the extension (header rules)
/// and the module for layering — pass a src-rooted path such as
/// "src/serve/spsc_ring.hpp" or a src-relative one such as
/// "serve/spsc_ring.hpp".
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& contents);

/// Recursively lint every *.hpp / *.cpp under `root` (normally src/) with
/// the per-file rules. Findings carry root-prefixed paths (root as given
/// joined with the file's relative path); order is deterministic. Paths
/// containing a `lint_fixtures` component are skipped.
std::vector<Finding> lint_tree(const std::string& root);

/// Whole-project lock-order pass over (path, contents) pairs: extracts
/// the global lock-acquisition graph from annotations and MutexLock
/// nesting, then reports lock-cycle / cv-wait-extra-lock /
/// blocking-under-lock. The annotated-primitive header itself
/// (util/thread_annotations.hpp) is exempt.
std::vector<Finding> lint_lock_graph(
    const std::vector<std::pair<std::string, std::string>>& files);

/// One std::atomic field declaration found by the atomics pass, fused
/// across files by qualified id. This registry is the surface future
/// lock-free work (the RCU/epoch hot-swap of ROADMAP item 2) registers
/// its protocols through.
struct AtomicField {
  std::string id;        ///< "namespace::Class::field" (or "file::field")
  std::string protocol;  ///< declared protocol; "" if undeclared/unknown
  std::string file;
  std::size_t line = 0;  ///< 1-based declaration line
};

/// The closed set of declarable atomic protocols (DESIGN.md §15).
const std::vector<std::string>& atomic_protocols();

/// Whole-project atomics-protocol pass over (path, contents) pairs:
/// atomic-undeclared / acquire-release-unpaired / rmw-order-too-weak /
/// fence-undocumented. Only files belonging to a src/ module participate
/// (bench/tests/tools are consumers, not protocol owners).
std::vector<Finding> lint_atomics(
    const std::vector<std::pair<std::string, std::string>>& files);

/// The declared-field registry the atomics pass builds, for tooling and
/// tests. Sorted by id; includes undeclared fields (empty protocol).
std::vector<AtomicField> atomic_registry(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Whole-project effect-inference pass over (path, contents) pairs:
/// realtime-allocates / realtime-locks / realtime-blocks /
/// det-wall-clock / det-random-device / det-unordered-escape. Only
/// src/-module files participate (annotations live on the hot paths);
/// the test-harness headers util/thread_annotations.hpp and
/// util/interleave.hpp are exempt (their production builds are no-ops).
std::vector<Finding> lint_effects(
    const std::vector<std::pair<std::string, std::string>>& files);

/// One contract-annotated function found by the effect pass, fused across
/// files by qualified id. The pin test asserts this registry against the
/// live tree so the pass cannot go vacuous.
struct EffectFn {
  std::string id;        ///< "ns::Class::fn" (or "file::fn" at file scope)
  std::string contract;  ///< "realtime", "deterministic" or
                         ///< "realtime+deterministic"
  std::string file;
  std::size_t line = 0;  ///< 1-based line of the definition's open brace
};

/// The annotated-function registry the effect pass builds, for tooling
/// and tests. Sorted by id.
std::vector<EffectFn> effect_registry(
    const std::vector<std::pair<std::string, std::string>>& files);

/// One row of the `elsa_lint --list-rules` table.
struct RuleInfo {
  std::string id;           ///< stable rule id, e.g. "realtime-allocates"
  std::string description;  ///< one line
  std::string fixture;      ///< repo-relative self-test fixture path
};

/// Every rule the linter can emit, sorted by id. The driver prints this
/// for --list-rules and a self-test pins it, so the README table, the CI
/// log and the binary cannot drift apart.
const std::vector<RuleInfo>& rule_table();

/// Render rule_table() as aligned "id  description  fixture" lines.
std::string format_rule_table();

/// Full gate: per-file rules on every tree plus one lock-graph pass, one
/// atomics pass and one effect pass over the union of all files
/// (cross-root lock orders, cross-file atomic pairings and cross-file
/// call chains are real).
std::vector<Finding> lint_roots(const std::vector<std::string>& roots);

/// As above, but internal problems (a lint root that is not a directory,
/// an unreadable file) are appended to `errors` instead of being silently
/// skipped. The driver maps findings to exit 1 and errors to exit 2.
std::vector<Finding> lint_roots(const std::vector<std::string>& roots,
                                std::vector<std::string>* errors);

/// Render as "file:line: [rule] message" lines.
std::string format(const std::vector<Finding>& findings);

/// Render as GitHub Actions workflow annotations
/// ("::error file=…,line=…::…"), one per finding, for inline PR surfacing.
std::string format_github(const std::vector<Finding>& findings);

}  // namespace elsa::lint
