// elsa-lint's own test suite: every rule must both fire on a deliberate
// violation (fixture files under tests/lint_fixtures/) and stay quiet on
// clean code — capped by the real gate: zero findings on the live src/
// tree, the same invariant the `elsa_lint_src` ctest gate and CI enforce.
#include "lint_rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using elsa::lint::Finding;
using elsa::lint::lint_file;
using elsa::lint::lint_lock_graph;
using elsa::lint::lint_roots;
using elsa::lint::lint_tree;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ELSA_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(ElsaLint, BannedCallsFire) {
  const auto fs =
      lint_file("src/util/banned_call.cpp", read_fixture("banned_call.cpp"));
  // lgamma, rand, strtok, localtime, gmtime, plus the rand whose allow()
  // lacks a reason and therefore must not suppress.
  EXPECT_EQ(count_rule(fs, "banned-call"), 6u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), count_rule(fs, "banned-call"));
}

TEST(ElsaLint, RawMutexFires) {
  const auto fs =
      lint_file("src/util/raw_mutex.cpp", read_fixture("raw_mutex.cpp"));
  // std::mutex decl, std::condition_variable decl, and the lock_guard line
  // contributes two tokens (std::lock_guard + std::mutex).
  EXPECT_EQ(count_rule(fs, "raw-mutex"), 4u) << elsa::lint::format(fs);
}

TEST(ElsaLint, RelaxedWithoutCommentFires) {
  const auto fs = lint_file("src/util/relaxed_no_comment.cpp",
                            read_fixture("relaxed_no_comment.cpp"));
  ASSERT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs[0].rule, "relaxed-comment");
  EXPECT_EQ(fs[0].line, 8u);  // the undocumented fetch_add, not the documented one
}

TEST(ElsaLint, LayeringBreakFires) {
  const auto contents = read_fixture("layering_break.cpp");
  const auto fs = lint_file("src/simlog/layering_break.cpp", contents);
  ASSERT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs[0].rule, "layering");
  EXPECT_NE(fs[0].message.find("serve"), std::string::npos);

  // The same include set is legal one layer up: serve may consume simlog.
  const auto up = lint_file("src/serve/layering_break.cpp", contents);
  EXPECT_EQ(count_rule(up, "layering"), 0u) << elsa::lint::format(up);

  // signalkit is as confined as simlog.
  const auto sk = lint_file("src/signalkit/layering_break.cpp", contents);
  EXPECT_EQ(count_rule(sk, "layering"), 1u) << elsa::lint::format(sk);
}

TEST(ElsaLint, HeaderHygieneFires) {
  const auto fs =
      lint_file("src/util/bad_header.hpp", read_fixture("bad_header.hpp"));
  EXPECT_EQ(count_rule(fs, "header-pragma"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(count_rule(fs, "header-using"), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLint, StaticMutableContainerFires) {
  const auto fs =
      lint_file("src/util/static_cache.cpp", read_fixture("static_cache.cpp"));
  // Exactly the two mutable magic-statics; the const table, the static
  // member function, the static int and the non-static local stay quiet.
  EXPECT_EQ(count_rule(fs, "static-mutable"), 2u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), count_rule(fs, "static-mutable"))
      << elsa::lint::format(fs);
}

TEST(ElsaLint, StaticMutableSuppressible) {
  const std::string code =
      "int f(int k) {\n"
      "  // elsa-lint: allow(static-mutable): guarded by caller's lock.\n"
      "  static std::map<int, int> cache;\n"
      "  return cache[k];\n"
      "}\n";
  const auto fs = lint_file("src/util/sup.cpp", code);
  EXPECT_EQ(count_rule(fs, "static-mutable"), 0u) << elsa::lint::format(fs);
}

TEST(ElsaLint, CleanFixtureIsQuiet) {
  const auto fs = lint_file("src/util/clean.hpp", read_fixture("clean.hpp"));
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLint, MemberAndNamespaceQualifiedCallsAreNotBanned) {
  const std::string code =
      "#pragma once\n"
      "double f(Dist d) { return d.rand(); }\n"
      "double g() { return mystats::rand(); }\n"
      "double h(Dist* d) { return d->rand(); }\n"
      "double k(double x) { int s; return ::lgamma_r(x, &s); }\n";
  const auto fs = lint_file("src/util/ok.hpp", code);
  EXPECT_EQ(count_rule(fs, "banned-call"), 0u) << elsa::lint::format(fs);
}

TEST(ElsaLint, GlobalQualifiedBannedCallFires) {
  const auto fs = lint_file("src/util/g.cpp",
                            "double f(double x) { return ::lgamma(x); }\n");
  EXPECT_EQ(count_rule(fs, "banned-call"), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLint, PragmaOnceAfterLeadingCommentIsFine) {
  const std::string code =
      "// A documented header.\n"
      "/* block comment too */\n"
      "#pragma once\n"
      "inline int v() { return 1; }\n";
  const auto fs = lint_file("src/util/doc.hpp", code);
  EXPECT_EQ(count_rule(fs, "header-pragma"), 0u) << elsa::lint::format(fs);
}

TEST(ElsaLint, SuppressionNeedsMatchingRule) {
  // An allow() for a different rule must not silence a banned call.
  const std::string code =
      "// elsa-lint: allow(raw-mutex): wrong rule on purpose.\n"
      "double f(double x) { return std::lgamma(x); }\n";
  const auto fs = lint_file("src/util/wrong.cpp", code);
  EXPECT_EQ(count_rule(fs, "banned-call"), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLint, FormatIsFileLineRule) {
  const auto fs = lint_file("src/util/g.cpp",
                            "double f(double x) { return ::lgamma(x); }\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string line = elsa::lint::format(fs);
  EXPECT_NE(line.find("src/util/g.cpp:1: [banned-call]"), std::string::npos)
      << line;
}

// ---------------------------------------------------------------------------
// Lock-graph rules (fixtures under lint_fixtures/lockgraph/)

/// Run the whole-project lock pass over a single lockgraph fixture.
std::vector<Finding> lock_fixture(const std::string& name) {
  return lint_lock_graph({{name, read_fixture("lockgraph/" + name)}});
}

std::size_t count_substr(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t p = s.find(needle); p != std::string::npos;
       p = s.find(needle, p + needle.size()))
    ++n;
  return n;
}

TEST(ElsaLintLockGraph, CleanHierarchyIsQuiet) {
  const auto fs = lock_fixture("clean_hierarchy.cpp");
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLintLockGraph, TwoLockCycleReportsFullPath) {
  const auto fs = lock_fixture("cycle2.cpp");
  ASSERT_EQ(count_rule(fs, "lock-cycle"), 1u) << elsa::lint::format(fs);
  const std::string& m = fs[0].message;
  // Full path, both locks named, and a file:line site for every edge.
  EXPECT_NE(m.find("PairHolder::a_ -> PairHolder::b_"), std::string::npos) << m;
  EXPECT_NE(m.find("-> PairHolder::a_ (cycle2.cpp:"), std::string::npos) << m;
  EXPECT_EQ(count_substr(m, "(cycle2.cpp:"), 2u) << m;
}

TEST(ElsaLintLockGraph, ThreeLockCycleThroughAnnotatedHelper) {
  const auto fs = lock_fixture("cycle3.cpp");
  ASSERT_EQ(count_rule(fs, "lock-cycle"), 1u) << elsa::lint::format(fs);
  const std::string& m = fs[0].message;
  // The b_ -> c_ edge exists only via helper_locks_c()'s ELSA_EXCLUDES.
  EXPECT_NE(m.find("Trio::a_ -> Trio::b_"), std::string::npos) << m;
  EXPECT_NE(m.find("-> Trio::c_"), std::string::npos) << m;
  EXPECT_EQ(count_substr(m, "(cycle3.cpp:"), 3u) << m;
}

TEST(ElsaLintLockGraph, CrossFileCycleFires) {
  // The two inverted orders live in different TUs; only the whole-project
  // union can see the cycle.
  const std::string hdr =
      "#pragma once\n"
      "class CrossFile {\n"
      "  void ab();\n"
      "  void ba();\n"
      "  util::Mutex a_;\n"
      "  util::Mutex b_;\n"
      "};\n";
  const std::string f1 =
      "void CrossFile::ab() {\n"
      "  util::MutexLock la(a_);\n"
      "  util::MutexLock lb(b_);\n"
      "}\n";
  const std::string f2 =
      "void CrossFile::ba() {\n"
      "  util::MutexLock lb(b_);\n"
      "  util::MutexLock la(a_);\n"
      "}\n";
  const auto fs = lint_lock_graph(
      {{"x/cf.hpp", hdr}, {"x/cf1.cpp", f1}, {"x/cf2.cpp", f2}});
  ASSERT_EQ(count_rule(fs, "lock-cycle"), 1u) << elsa::lint::format(fs);
  EXPECT_NE(fs[0].message.find("cf1.cpp:"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("cf2.cpp:"), std::string::npos)
      << fs[0].message;
}

TEST(ElsaLintLockGraph, CvWaitWithSecondLockFires) {
  const auto fs = lock_fixture("cv_second_lock.cpp");
  // wait_badly() fires; wait_fine(), holding only the waited mutex, stays
  // quiet.
  ASSERT_EQ(count_rule(fs, "cv-wait-extra-lock"), 1u) << elsa::lint::format(fs);
  EXPECT_NE(fs[0].message.find("TwoLockWaiter::a_"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("TwoLockWaiter::b_"), std::string::npos)
      << fs[0].message;
}

TEST(ElsaLintLockGraph, BlockingCallsUnderLockFire) {
  const auto fs = lock_fixture("blocking_under_lock.cpp");
  // The locked SpscRing::pop_wait and the locked join; drain_fine() waits
  // before locking and stays quiet.
  EXPECT_EQ(count_rule(fs, "blocking-under-lock"), 2u)
      << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
}

TEST(ElsaLintLockGraph, ReasonedSuppressionSilencesCycle) {
  const auto fs = lock_fixture("suppressed_cycle.cpp");
  EXPECT_EQ(count_rule(fs, "lock-cycle"), 0u) << elsa::lint::format(fs);
}

TEST(ElsaLintLockGraph, FixtureTreesAreExemptFromWalkers) {
  // tests/ holds fixtures with deliberate cycles; the directory walkers
  // must skip every lint_fixtures component, so the tests tree stays clean.
  const auto fs = lint_roots({ELSA_TESTS_DIR});
  EXPECT_EQ(count_rule(fs, "lock-cycle"), 0u) << elsa::lint::format(fs);
}

// ---------------------------------------------------------------------------
// Atomics-protocol rules (fixtures under lint_fixtures/atomics/)

/// Run the whole-project atomics pass over a single fixture, mounted at a
/// src-module path (only src modules own atomic protocols).
std::vector<Finding> atomics_fixture(const std::string& name) {
  return elsa::lint::lint_atomics(
      {{"src/util/" + name, read_fixture("atomics/" + name)}});
}

TEST(ElsaLintAtomics, CleanFixtureIsQuiet) {
  const auto fs = atomics_fixture("clean.hpp");
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLintAtomics, UndeclaredAndUnknownProtocolFire) {
  const auto fs = atomics_fixture("undeclared.hpp");
  // The bare field and the made-up protocol; the allow()ed field is quiet.
  ASSERT_EQ(count_rule(fs, "atomic-undeclared"), 2u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
  EXPECT_NE(fs[0].message.find("Undeclared::bare_"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[1].message.find("totally-made-up"), std::string::npos)
      << fs[1].message;
}

TEST(ElsaLintAtomics, UnpairedReleaseAndAcquireFire) {
  const auto fs = atomics_fixture("unpaired.cpp");
  ASSERT_EQ(count_rule(fs, "acquire-release-unpaired"), 2u)
      << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
  // One finding per lonely side, at the offending access site.
  const std::string all = elsa::lint::format(fs);
  EXPECT_NE(all.find("lonely_pub_"), std::string::npos) << all;
  EXPECT_NE(all.find("lonely_sub_"), std::string::npos) << all;
}

TEST(ElsaLintAtomics, PairingFusesAcrossFiles) {
  // Release side and acquire side live in different TUs; only the
  // project-wide union proves the pairing. The header declares the field.
  const std::string hdr =
      "#pragma once\n"
      "#include <atomic>\n"
      "class Handoff {\n"
      " public:\n"
      "  void pub();\n"
      "  bool sub();\n"
      " private:\n"
      "  // elsa-atomic: release-acquire-flag\n"
      "  std::atomic<bool> ready_{false};\n"
      "};\n";
  const std::string pub_tu =
      "#include \"handoff.hpp\"\n"
      "void Handoff::pub() { ready_.store(true, std::memory_order_release); }\n";
  const std::string sub_tu =
      "#include \"handoff.hpp\"\n"
      "bool Handoff::sub() { return ready_.load(std::memory_order_acquire); }\n";

  const auto whole = elsa::lint::lint_atomics({{"src/util/handoff.hpp", hdr},
                                               {"src/util/pub.cpp", pub_tu},
                                               {"src/util/sub.cpp", sub_tu}});
  EXPECT_TRUE(whole.empty()) << elsa::lint::format(whole);

  // Drop the consumer and the release store becomes unpaired.
  const auto half = elsa::lint::lint_atomics(
      {{"src/util/handoff.hpp", hdr}, {"src/util/pub.cpp", pub_tu}});
  ASSERT_EQ(count_rule(half, "acquire-release-unpaired"), 1u)
      << elsa::lint::format(half);
  EXPECT_EQ(half[0].file, "src/util/pub.cpp");
}

TEST(ElsaLintAtomics, WeakRmwFires) {
  const auto fs = atomics_fixture("weak_rmw.cpp");
  ASSERT_EQ(count_rule(fs, "rmw-order-too-weak"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
  EXPECT_NE(fs[0].message.find("WeakRmw::flag_"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("release-acquire-flag"), std::string::npos)
      << fs[0].message;
}

TEST(ElsaLintAtomics, BareFenceFires) {
  const auto fs = atomics_fixture("fence.cpp");
  ASSERT_EQ(count_rule(fs, "fence-undocumented"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLintAtomics, NonModuleFilesDoNotOwnProtocols) {
  // The same violating fixture under a tests/ path is out of scope: bench,
  // tests and tools consume protocols, they do not declare them.
  const auto fs = elsa::lint::lint_atomics(
      {{"tests/undeclared.hpp", read_fixture("atomics/undeclared.hpp")}});
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLintAtomics, RegistryCoversTheLiveTree) {
  // The pass must not be vacuously clean on src/: the registry built from
  // the real files carries the known fields with their declared protocols,
  // fused by qualified id.
  std::vector<std::pair<std::string, std::string>> files;
  for (const char* rel :
       {"/serve/spsc_ring.hpp", "/serve/metrics.hpp", "/serve/sharded_engine.hpp",
        "/serve/model_handle.hpp", "/mining/service.hpp"}) {
    std::ifstream in(std::string(ELSA_SRC_DIR) + rel, std::ios::binary);
    ASSERT_TRUE(in.good()) << rel;
    std::ostringstream ss;
    ss << in.rdbuf();
    files.emplace_back("src" + std::string(rel), ss.str());
  }
  const auto reg = elsa::lint::atomic_registry(files);
  ASSERT_GE(reg.size(), 12u);
  const auto protocol_of = [&reg](const std::string& id) -> std::string {
    for (const auto& f : reg)
      if (f.id == id) return f.protocol;
    return "<absent>";
  };
  EXPECT_EQ(protocol_of("elsa::serve::SpscRing::Slot::seq"), "seqlock");
  EXPECT_EQ(protocol_of("elsa::serve::SpscRing::tail_"), "monotonic-relaxed");
  EXPECT_EQ(protocol_of("elsa::serve::SpscRing::closed_"),
            "release-acquire-flag");
  EXPECT_EQ(protocol_of("elsa::serve::StripedCounter::Cell::v"),
            "striped-relaxed-counter");
  EXPECT_EQ(protocol_of("elsa::serve::ShardedEngine::Shard::alive"),
            "release-acquire-flag");
  EXPECT_EQ(protocol_of("elsa::serve::RcuHub::Slot::state"), "rcu-handle");
  EXPECT_EQ(protocol_of("elsa::serve::RcuHub::current_"), "rcu-handle");
  EXPECT_EQ(protocol_of("elsa::serve::RcuHub::swaps_"), "monotonic-relaxed");
  EXPECT_EQ(protocol_of("elsa::mining::MinerService::stop_"),
            "release-acquire-flag");
  // Every live field is declared — an empty protocol would mean an
  // atomic-undeclared finding in the gate.
  for (const auto& f : reg) EXPECT_FALSE(f.protocol.empty()) << f.id;
}

// ---------------------------------------------------------------------------
// Effect-inference rules (fixtures under lint_fixtures/effects/)

/// Run the whole-project effect pass over a single fixture, mounted at a
/// src-module path (annotations live on src/ hot paths).
std::vector<Finding> effects_fixture(const std::string& name) {
  return elsa::lint::lint_effects(
      {{"src/util/" + name, read_fixture("effects/" + name)}});
}

TEST(ElsaLintEffects, CleanFixtureIsQuiet) {
  const auto fs = effects_fixture("clean.cpp");
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, AllocationFiresAndReasonedAllowSuppresses) {
  const auto fs = effects_fixture("allocates.cpp");
  // hot() fires; hot_allowed()'s identical growth call is reasoned away.
  ASSERT_EQ(count_rule(fs, "realtime-allocates"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
  EXPECT_NE(fs[0].message.find("Allocates::hot"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("push_back"), std::string::npos)
      << fs[0].message;
}

TEST(ElsaLintEffects, MapSubscriptIsGrowth) {
  const auto fs = effects_fixture("map_subscript.cpp");
  // count()'s unordered_map, order()'s std::map and tally()'s local map
  // subscripts fire; dense()'s vector subscript and find() do not, nor
  // does first()'s vector named like tally()'s map.
  ASSERT_EQ(count_rule(fs, "realtime-allocates"), 3u)
      << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 3u) << elsa::lint::format(fs);
  const std::string all = elsa::lint::format(fs);
  EXPECT_NE(all.find("`by_id_[]` (map insert)"), std::string::npos) << all;
  EXPECT_NE(all.find("`ordered_[]` (map insert)"), std::string::npos) << all;
  EXPECT_NE(all.find("`counts[]` (map insert)"), std::string::npos) << all;
  EXPECT_EQ(all.find("Buckets::first"), std::string::npos) << all;
}

TEST(ElsaLintEffects, LockAcquisitionFires) {
  const auto fs = effects_fixture("locks.cpp");
  // The MutexLock in hot() and the bare .lock() in hot2().
  EXPECT_EQ(count_rule(fs, "realtime-locks"), 2u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, BlockingAndIoFire) {
  const auto fs = effects_fixture("blocks.cpp");
  // The sleep in hot() and the stream write in hot2().
  EXPECT_EQ(count_rule(fs, "realtime-blocks"), 2u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, WallClockFires) {
  const auto fs = effects_fixture("wall_clock.cpp");
  // Clock::now() in stamp() and gettimeofday() in stamp2().
  EXPECT_EQ(count_rule(fs, "det-wall-clock"), 2u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 2u) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, RandomDeviceFires) {
  const auto fs = effects_fixture("random_device.cpp");
  ASSERT_EQ(count_rule(fs, "det-random-device"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs.size(), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, UnorderedAndPointerKeyedIterationFire) {
  const auto fs = effects_fixture("unordered_escape.cpp");
  ASSERT_EQ(count_rule(fs, "det-unordered-escape"), 2u)
      << elsa::lint::format(fs);
  const std::string all = elsa::lint::format(fs);
  EXPECT_NE(all.find("unordered container `counts_`"), std::string::npos)
      << all;
  EXPECT_NE(all.find("pointer-keyed container `by_ptr_`"), std::string::npos)
      << all;
}

TEST(ElsaLintEffects, PropagationCrossesFiles) {
  // The helper allocates legally; the violation exists only through the
  // elsa-realtime caller in the other file, and the finding is anchored at
  // the effect site with the call path named.
  const auto fs = elsa::lint::lint_effects(
      {{"src/util/cross_helper.cpp", read_fixture("effects/cross_helper.cpp")},
       {"src/util/cross_caller.cpp",
        read_fixture("effects/cross_caller.cpp")}});
  ASSERT_EQ(count_rule(fs, "realtime-allocates"), 1u) << elsa::lint::format(fs);
  EXPECT_EQ(fs[0].file, "src/util/cross_helper.cpp");
  EXPECT_NE(fs[0].message.find("hot_entry"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("via hot_entry -> remember"), std::string::npos)
      << fs[0].message;

  // Without the caller, the helper alone is clean: no annotated root
  // reaches the allocation.
  const auto alone = elsa::lint::lint_effects({{"src/util/cross_helper.cpp",
                                               read_fixture(
                                                   "effects/cross_helper.cpp")}});
  EXPECT_TRUE(alone.empty()) << elsa::lint::format(alone);
}

TEST(ElsaLintEffects, AllowWithoutReasonDoesNotSuppress) {
  // The negative control: allow(realtime-allocates) with no ": <reason>"
  // trailer must not silence the finding.
  const std::string code =
      "#include <vector>\n"
      "class NoReason {\n"
      " public:\n"
      "  // elsa-realtime: contract.\n"
      "  void hot(int v) {\n"
      "    // elsa-lint: allow(realtime-allocates)\n"
      "    buf_.push_back(v);\n"
      "  }\n"
      " private:\n"
      "  std::vector<int> buf_;\n"
      "};\n";
  const auto fs = elsa::lint::lint_effects({{"src/util/noreason.cpp", code}});
  EXPECT_EQ(count_rule(fs, "realtime-allocates"), 1u) << elsa::lint::format(fs);
}

TEST(ElsaLintEffects, RegistryCoversTheLiveTree) {
  // The pin test: the effect pass must not go vacuous on src/. The
  // registry built from the real files names the annotated hot and
  // deterministic paths with their contracts.
  std::vector<std::pair<std::string, std::string>> files;
  std::map<std::string, std::string> raw;
  for (const char* rel :
       {"/serve/spsc_ring.hpp", "/serve/router.hpp", "/serve/model_handle.hpp",
        "/serve/metrics.hpp", "/advisor/service.cpp", "/advisor/advisor.cpp",
        "/elsa/online.cpp", "/elsa/model_io.cpp", "/mining/miner.cpp",
        "/mining/service.cpp", "/helo/helo.cpp", "/signalkit/fft.cpp",
        "/signalkit/classify.cpp", "/elsa/profile.cpp"}) {
    std::ifstream in(std::string(ELSA_SRC_DIR) + rel, std::ios::binary);
    ASSERT_TRUE(in.good()) << rel;
    std::ostringstream ss;
    ss << in.rdbuf();
    raw["src" + std::string(rel)] = ss.str();
    files.emplace_back("src" + std::string(rel), raw["src" + std::string(rel)]);
  }
  const auto reg = elsa::lint::effect_registry(files);
  ASSERT_GE(reg.size(), 8u);
  const auto contract_of = [&reg](const std::string& id) -> std::string {
    for (const auto& f : reg)
      if (f.id == id) return f.contract;
    return "<absent>";
  };
  EXPECT_EQ(contract_of("elsa::serve::SpscRing::push"), "realtime");
  EXPECT_EQ(contract_of("elsa::serve::SpscRing::pop_n"), "realtime");
  EXPECT_EQ(contract_of("elsa::serve::RcuHub::pin"), "realtime");
  EXPECT_EQ(contract_of("elsa::serve::RcuHub::unpin"), "realtime");
  EXPECT_EQ(contract_of("elsa::serve::ShardRouter::shard_of"),
            "realtime+deterministic");
  EXPECT_EQ(contract_of("elsa::serve::StripedCounter::add"), "realtime");
  EXPECT_EQ(contract_of("elsa::advisor::AdvisorService::publish"), "realtime");
  EXPECT_EQ(contract_of("elsa::core::OnlineEngine::feed"),
            "realtime+deterministic");
  EXPECT_EQ(contract_of("elsa::core::model_digest"), "deterministic");
  EXPECT_EQ(contract_of("elsa::advisor::CheckpointAdvisor::on_prediction"),
            "deterministic");
  EXPECT_EQ(contract_of("elsa::mining::OnlineMiner::build_model"),
            "deterministic");
  EXPECT_EQ(contract_of("elsa::mining::MinerService::fold_below"),
            "deterministic");
  EXPECT_EQ(contract_of("elsa::helo::TemplateMiner::classify_const"),
            "realtime");
  EXPECT_EQ(contract_of("elsa::sigkit::autocorrelation"), "deterministic");
  EXPECT_EQ(contract_of("elsa::sigkit::classify_signal"), "deterministic");
  EXPECT_EQ(contract_of("elsa::core::build_profile"), "deterministic");

  // Spot check the pin really pins: stripping the elsa-realtime markers
  // from the ring header removes its entries — i.e. deleting a live
  // annotation makes the expectations above fail.
  std::string stripped = raw["src/serve/spsc_ring.hpp"];
  for (std::size_t p = stripped.find("elsa-realtime");
       p != std::string::npos; p = stripped.find("elsa-realtime", p))
    stripped.replace(p, 13, "elsa-disabled");
  std::vector<std::pair<std::string, std::string>> mutated;
  for (const auto& [path, contents] : raw)
    mutated.emplace_back(path,
                         path == "src/serve/spsc_ring.hpp" ? stripped
                                                           : contents);
  const auto reg2 = elsa::lint::effect_registry(mutated);
  for (const auto& f : reg2)
    EXPECT_NE(f.id, "elsa::serve::SpscRing::push") << "annotation survived";
}

// ---------------------------------------------------------------------------
// The rule table (--list-rules) is pinned: every rule id the passes can
// emit appears exactly once, sorted, with a fixture that exists on disk.

TEST(ElsaLintRules, RuleTableIsPinnedAndFixturesExist) {
  const auto& rules = elsa::lint::rule_table();
  ASSERT_EQ(rules.size(), 20u);
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end(),
                             [](const elsa::lint::RuleInfo& a,
                                const elsa::lint::RuleInfo& b) {
                               return a.id < b.id;
                             }));
  for (const auto& r : rules) {
    EXPECT_FALSE(r.description.empty()) << r.id;
    ASSERT_EQ(r.fixture.rfind("tests/lint_fixtures/", 0), 0u) << r.fixture;
    // ELSA_TESTS_DIR is .../tests — substitute it for the leading "tests".
    std::ifstream in(std::string(ELSA_TESTS_DIR) + r.fixture.substr(5),
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << r.fixture;
  }
  const auto has = [&rules](const std::string& id) {
    for (const auto& r : rules)
      if (r.id == id) return true;
    return false;
  };
  for (const char* id :
       {"realtime-allocates", "realtime-locks", "realtime-blocks",
        "det-wall-clock", "det-random-device", "det-unordered-escape",
        "banned-call", "lock-cycle", "atomic-undeclared"})
    EXPECT_TRUE(has(id)) << id;
  // The rendered table (what --list-rules prints) carries every id.
  const std::string table = elsa::lint::format_rule_table();
  for (const auto& r : rules)
    EXPECT_NE(table.find(r.id), std::string::npos) << r.id;
}

TEST(ElsaLint, LintRootsReportsInternalErrors) {
  std::vector<std::string> errors;
  const auto fs =
      lint_roots({"definitely/not/a/directory/anywhere"}, &errors);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("not a directory"), std::string::npos) << errors[0];
}

// ---------------------------------------------------------------------------
// GitHub annotation output

TEST(ElsaLint, GithubFormatEmitsWorkflowCommands) {
  const std::vector<Finding> fs = {
      {"src/serve/spsc_ring.hpp", 42, "lock-cycle", "A -> B"}};
  const std::string out = elsa::lint::format_github(fs);
  EXPECT_EQ(out,
            "::error file=src/serve/spsc_ring.hpp,line=42,"
            "title=elsa-lint lock-cycle::[lock-cycle] A -> B\n");
}

TEST(ElsaLint, GithubFormatEscapesSeparators) {
  const std::vector<Finding> fs = {
      {"src/a,b:c.cpp", 7, "banned-call", "50% bad\nnext"}};
  const std::string out = elsa::lint::format_github(fs);
  EXPECT_NE(out.find("file=src/a%2Cb%3Ac.cpp,line=7"), std::string::npos)
      << out;
  EXPECT_NE(out.find("50%25 bad%0Anext"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// The real gate: the live trees carry zero findings. CI and the
// `elsa_lint_src` ctest entry enforce the same invariant via the binary,
// over the same five trees (src, bench, tools, tests, examples).

TEST(ElsaLint, SourceTreeIsClean) {
  const auto fs = lint_tree(ELSA_SRC_DIR);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLint, BenchTreeIsClean) {
  const auto fs = lint_tree(ELSA_BENCH_DIR);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLint, ToolsTreeIsClean) {
  const auto fs = lint_tree(ELSA_TOOLS_DIR);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLint, TestsTreeIsClean) {
  const auto fs = lint_tree(ELSA_TESTS_DIR);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

TEST(ElsaLint, ExamplesTreeIsClean) {
  const auto fs = lint_tree(ELSA_EXAMPLES_DIR);
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

// End-to-end: the union of all five trees through the full gate (per-file
// rules plus one cross-root lock pass) is clean — exactly what the
// elsa_lint binary enforces in CI.
TEST(ElsaLint, AllRootsAreCleanThroughFullGate) {
  const auto fs = lint_roots({ELSA_SRC_DIR, ELSA_BENCH_DIR, ELSA_TOOLS_DIR,
                              ELSA_TESTS_DIR, ELSA_EXAMPLES_DIR});
  EXPECT_TRUE(fs.empty()) << elsa::lint::format(fs);
}

}  // namespace
