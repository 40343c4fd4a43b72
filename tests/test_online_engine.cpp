// Online-engine tests on hand-built chains and record streams: trigger ->
// prediction mechanics, lead times, sequence confirmation, deduplication,
// location attachment, the raw-matching DM mode, and the analysis-queue
// latency accounting. The EngineGolden suite pins full-length replays of
// the stock campaigns byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "elsa/model_io.hpp"
#include "elsa/online.hpp"
#include "elsa/pipeline.hpp"
#include "simlog/scenario.hpp"
#include "topology/topology.hpp"

namespace {

using namespace elsa::core;
namespace core = elsa::core;
namespace simlog = elsa::simlog;
namespace topo = elsa::topo;
using elsa::simlog::LogRecord;

constexpr std::int64_t kDt = 10'000;

SignalProfile silent_profile() {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Silent;
  p.spike_delta = 0.5;
  return p;
}

LogRecord rec(std::int64_t t_ms, std::int32_t node = 5) {
  LogRecord r;
  r.time_ms = t_ms;
  r.node_id = node;
  r.message.assign(1, 'x');  // not `= "x"`: dodges GCC 12's -Wrestrict
                             // false positive (PR105329) under -Werror
  return r;
}

/// Chain 0 ->(6 samples) 1, template 1 is the failure.
Chain simple_chain() {
  Chain c;
  c.items = {{0, 0}, {1, 6}};
  c.failure_item = 1;
  c.support = 10;
  c.confidence = 0.9;
  c.location.scope = topo::Scope::Node;
  return c;
}

EngineConfig fast_config() {
  EngineConfig cfg;
  cfg.dt_ms = kDt;
  cfg.median_window = 64;
  cfg.cost = {0.0, 0.0, 0.0};  // no queueing latency unless a test wants it
  return cfg;
}

TEST(OnlineEngine, EmitsPredictionWithLeadAndLocation) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  eng.feed(rec(25'000, 7), 0);  // outlier occurrence of template 0
  eng.finish(400'000);

  ASSERT_EQ(eng.predictions().size(), 1u);
  const auto& p = eng.predictions()[0];
  EXPECT_EQ(p.tmpl, 1u);
  EXPECT_EQ(p.lead_ms, 6 * kDt);
  EXPECT_EQ(p.trigger_time_ms, 30'000);  // bucket [20k,30k) closes at 30 s
  EXPECT_EQ(p.predicted_time_ms, 30'000 + 6 * kDt);
  ASSERT_EQ(p.nodes.size(), 1u);
  EXPECT_EQ(p.nodes[0], 7);
  EXPECT_EQ(p.scope, topo::Scope::Node);
  EXPECT_EQ(eng.stats().chains_used, 1u);
  EXPECT_EQ(eng.stats().outlier_onsets, 1u);
}

TEST(OnlineEngine, NonPredictiveChainNeverFires) {
  auto c = simple_chain();
  c.failure_item = -1;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {c}, {silent_profile(), silent_profile()},
                   fast_config());
  eng.feed(rec(25'000), 0);
  eng.finish(400'000);
  EXPECT_TRUE(eng.predictions().empty());
}

TEST(OnlineEngine, DedupeSuppressesRepeatedTriggers) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  // Two occurrences 3 buckets apart on the same node: one prediction.
  eng.feed(rec(25'000, 7), 0);
  eng.feed(rec(55'000, 7), 0);
  eng.finish(400'000);
  EXPECT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.stats().duplicates_suppressed, 1u);
}

TEST(OnlineEngine, FarApartTriggersBothPredict) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.dedupe_window_samples = 10;
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 7), 0);
  eng.feed(rec(2'000'000, 7), 0);
  eng.finish(4'000'000);
  EXPECT_EQ(eng.predictions().size(), 2u);
}

TEST(OnlineEngine, ConfirmationRequiredForLongPrefixes) {
  // Chain with a 2-item prefix: 0 ->(4) 2 ->(10) 1(failure).
  Chain c;
  c.items = {{0, 0}, {2, 4}, {1, 10}};
  c.failure_item = 2;
  c.confidence = 0.8;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.min_prefix_matches = 2;
  OnlineEngine eng(
      t, {c}, {silent_profile(), silent_profile(), silent_profile()}, cfg);

  // First item alone: no alarm.
  eng.feed(rec(25'000, 3), 0);
  eng.finish(100'000);
  EXPECT_TRUE(eng.predictions().empty());

  // Second item at the expected +4 samples: alarm fires, locations merged.
  OnlineEngine eng2(
      t, {c}, {silent_profile(), silent_profile(), silent_profile()}, cfg);
  eng2.feed(rec(25'000, 3), 0);
  eng2.feed(rec(25'000 + 4 * kDt, 9), 2);
  eng2.finish(400'000);
  ASSERT_EQ(eng2.predictions().size(), 1u);
  const auto& p = eng2.predictions()[0];
  EXPECT_EQ(p.tmpl, 1u);
  EXPECT_EQ(p.lead_ms, 6 * kDt);  // failure delay 10 - item delay 4
  ASSERT_EQ(p.nodes.size(), 2u);
}

TEST(OnlineEngine, ConfirmationRejectsWrongDelay) {
  Chain c;
  c.items = {{0, 0}, {2, 4}, {1, 10}};
  c.failure_item = 2;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.min_prefix_matches = 2;
  OnlineEngine eng(
      t, {c}, {silent_profile(), silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 3), 0);
  // Second item far too late (not 4 +/- tolerance samples).
  eng.feed(rec(25'000 + 40 * kDt, 9), 2);
  eng.finish(1'000'000);
  EXPECT_TRUE(eng.predictions().empty());
}

TEST(OnlineEngine, ConfirmationDisabledFiresImmediately) {
  Chain c;
  c.items = {{0, 0}, {2, 4}, {1, 10}};
  c.failure_item = 2;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.min_prefix_matches = 1;
  OnlineEngine eng(
      t, {c}, {silent_profile(), silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 3), 0);
  eng.finish(100'000);
  EXPECT_EQ(eng.predictions().size(), 1u);
}

TEST(OnlineEngine, RawModeTriggersOnEveryAntecedentRecord) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.raw_event_matching = true;
  cfg.use_location = false;
  cfg.dedupe_window_samples = 2;
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 7), 0);
  eng.feed(rec(2'000'000, 2), 0);
  eng.finish(4'000'000);
  ASSERT_EQ(eng.predictions().size(), 2u);
  EXPECT_EQ(eng.stats().raw_triggers, 2u);
  // DM predictions are system-wide (no location capability).
  EXPECT_EQ(eng.predictions()[0].scope, topo::Scope::System);
  EXPECT_TRUE(eng.predictions()[0].nodes.empty());
  // Raw mode uses the record time directly, not bucket close.
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 25'000);
}

TEST(OnlineEngine, LocationScopeFromChainProfile) {
  auto c = simple_chain();
  c.location.scope = topo::Scope::Midplane;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {c}, {silent_profile(), silent_profile()},
                   fast_config());
  eng.feed(rec(25'000, 7), 0);
  eng.finish(400'000);
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].scope, topo::Scope::Midplane);
}

TEST(OnlineEngine, AnalysisQueueDelaysIssueTime) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.cost.per_outlier_ms = 2'000.0;
  cfg.cost.per_chain_trigger_ms = 500.0;
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 7), 0);
  eng.finish(400'000);
  ASSERT_EQ(eng.predictions().size(), 1u);
  const auto& p = eng.predictions()[0];
  // Outlier batch enqueued at bucket close (30 s); one onset + one chain.
  EXPECT_EQ(p.issue_time_ms, 30'000 + 2'000 + 500);
  ASSERT_EQ(eng.stats().analysis_window_ms.size(), 1u);
  EXPECT_FLOAT_EQ(eng.stats().analysis_window_ms[0], 2'500.0f);
}

TEST(OnlineEngine, BacklogAccumulatesAcrossBusyBuckets) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.cost.per_outlier_ms = 25'000.0;  // well beyond one bucket
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(25'000, 7), 0);
  // Outlier two buckets later (the episode resets in between).
  eng.feed(rec(45'000, 7), 0);
  eng.feed(rec(205'000, 7), 0);
  eng.finish(400'000);
  const auto& w = eng.stats().analysis_window_ms;
  ASSERT_GE(w.size(), 2u);
  // Second batch waits for the first: window strictly exceeds service time.
  EXPECT_GT(w[1], 25'000.0f);
}

TEST(OnlineEngine, UnknownTemplatesGetDefaultDetectors) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  // Template 9 was never profiled offline (new software version).
  eng.feed(rec(25'000, 1), 9);
  eng.feed(rec(26'000, 1), 9);
  eng.finish(100'000);
  EXPECT_GE(eng.stats().outlier_onsets, 1u);  // treated as silent signal
}

TEST(OnlineEngine, OutOfOrderRecordClampedToOpenBucket) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  eng.feed(rec(25'000, 7), 0);  // opens bucket [20k, 30k)
  // A straggler from a concurrent ingest path, nominally at 1 s: it joins
  // the open bucket instead of being lost or corrupting closed history.
  eng.feed(rec(1'000, 7), 0);
  eng.finish(400'000);
  EXPECT_EQ(eng.stats().out_of_order, 1u);
  EXPECT_EQ(eng.stats().records, 2u);
  // Both records land in one bucket of the same silent signal: one onset,
  // one prediction — identical to the time-ordered arrival.
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 30'000);
  EXPECT_EQ(eng.stats().outlier_onsets, 1u);
}

TEST(OnlineEngine, SkewWithinOpenBucketIsNotOutOfOrder) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  eng.feed(rec(25'000, 7), 0);
  eng.feed(rec(21'000, 7), 0);  // earlier, but still inside [20k, 30k)
  eng.finish(400'000);
  EXPECT_EQ(eng.stats().out_of_order, 0u);
}

TEST(OnlineEngine, RawModeClampsBackwardTime) {
  auto cfg = fast_config();
  cfg.raw_event_matching = true;
  cfg.min_prefix_matches = 1;  // raw DM matching emits on any antecedent
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, cfg);
  eng.feed(rec(50'000, 7), 0);
  eng.feed(rec(10'000, 7), 0);  // behind the stream: clamped to 50 s
  eng.finish(400'000);
  EXPECT_EQ(eng.stats().out_of_order, 1u);
  // The clamped trigger lands on the same sample as the first, so dedupe
  // collapses it — the stale timestamp cannot fabricate an earlier alarm.
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 50'000);
  EXPECT_EQ(eng.stats().duplicates_suppressed, 1u);
}

TEST(OnlineEngine, SwapModelAdoptsNewRulesOverLiveDetectorHistory) {
  // Start rule-less: the detector for template 0 accumulates signal but
  // nothing can fire. Swap in the chain model BEFORE the trigger bucket
  // closes: the new rules must consume the history the old model observed.
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {}, {silent_profile(), silent_profile()},
                   fast_config());
  eng.feed(rec(25'000, 7), 0);
  const auto armed = ModelState::build(
      {simple_chain()}, {silent_profile(), silent_profile()});
  eng.swap_model(&armed);
  eng.finish(400'000);
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].tmpl, 1u);
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 30'000);
}

TEST(OnlineEngine, SwapModelDisarmsWhenTheNewModelHasNoRules) {
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  eng.feed(rec(25'000, 7), 0);
  const auto disarmed =
      ModelState::build({}, {silent_profile(), silent_profile()});
  eng.swap_model(&disarmed);
  eng.finish(400'000);
  EXPECT_TRUE(eng.predictions().empty());
}

TEST(OnlineEngine, SwapModelResetsPendingChainPrefixes) {
  // 2-item prefix with confirmation: first item matched, then a swap to an
  // IDENTICAL model. Chain ids don't survive a swap, so the half-matched
  // occurrence must be forgotten — the second item alone cannot confirm.
  Chain c;
  c.items = {{0, 0}, {2, 4}, {1, 10}};
  c.failure_item = 2;
  c.confidence = 0.8;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  auto cfg = fast_config();
  cfg.min_prefix_matches = 2;
  const std::vector<SignalProfile> profs = {
      silent_profile(), silent_profile(), silent_profile()};
  OnlineEngine eng(t, {c}, profs, cfg);
  eng.feed(rec(25'000, 3), 0);
  eng.feed(rec(35'000, 3), 0);  // close the first item's bucket: prefix armed
  const auto same = ModelState::build({c}, profs);
  eng.swap_model(&same);
  eng.feed(rec(25'000 + 4 * kDt, 9), 2);
  eng.finish(400'000);
  EXPECT_TRUE(eng.predictions().empty());

  // Control: without the swap the identical stream confirms and fires.
  OnlineEngine ctl(t, {c}, profs, cfg);
  ctl.feed(rec(25'000, 3), 0);
  ctl.feed(rec(35'000, 3), 0);
  ctl.feed(rec(25'000 + 4 * kDt, 9), 2);
  ctl.finish(400'000);
  EXPECT_EQ(ctl.predictions().size(), 1u);
}

TEST(OnlineEngine, SwapModelExtendsDetectorsForNewTemplates) {
  // The new model names template 2 that the old one never saw; records for
  // it must get a detector (and predict) after the swap, not crash.
  Chain c;
  c.items = {{2, 0}, {1, 6}};
  c.failure_item = 1;
  c.support = 10;
  c.confidence = 0.9;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()},
                   {silent_profile(), silent_profile()}, fast_config());
  const auto wider = ModelState::build(
      {c}, {silent_profile(), silent_profile(), silent_profile()});
  eng.swap_model(&wider);
  eng.feed(rec(25'000, 7), 2);
  eng.finish(400'000);
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].tmpl, 1u);
}

TEST(OnlineEngine, NegativeThresholdFiresOnIdleBuckets) {
  // Template 0's negative spike threshold makes every zero bucket an
  // outlier, although template 0 never logs; template 1 fires once.
  auto eager = silent_profile();
  eager.spike_delta = -0.5;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()}, {eager, silent_profile()},
                   fast_config());
  eng.feed(rec(25'000, 7), 1);
  eng.finish(100'000);
  // Buckets [20k,30k) .. [90k,100k): template 0's episode starts in the
  // first one (debounced after that); template 1 fires once.
  EXPECT_EQ(eng.stats().buckets, 8u);
  EXPECT_EQ(eng.stats().outlier_onsets, 2u);
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 30'000);
  EXPECT_TRUE(eng.predictions()[0].nodes.empty());  // nothing was logged
}

TEST(OnlineEngine, DropoutFiresOnIdleBuckets) {
  // A periodic template with dropout tracking goes silent: the silence is
  // only visible if its detector is fed the idle buckets. The dropout
  // onset carries no nodes (nothing was logged).
  SignalProfile periodic;
  periodic.cls = elsa::sigkit::SignalClass::Periodic;
  periodic.median = 1.0;
  periodic.mean = 1.0;
  periodic.period = 2;
  periodic.spike_delta = 4.0;
  periodic.dropout_window = 6;
  periodic.dropout_min_count = 1.5;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()}, {periodic, silent_profile()},
                   fast_config());
  for (int b = 0; b < 20; ++b) eng.feed(rec(b * kDt, 7), 0);
  eng.finish(40 * kDt);
  EXPECT_EQ(eng.stats().outlier_onsets, 1u);
  ASSERT_EQ(eng.predictions().size(), 1u);
  // From bucket 20 on nothing is logged: the six-bucket window 19..24
  // sums to 1 < 1.5 when bucket 24 closes.
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 25 * kDt);
  EXPECT_TRUE(eng.predictions()[0].nodes.empty());
}

TEST(OnlineEngine, IdleGapsMatchEveryBucketFeeding) {
  // A detector idle for many buckets owes their zeros to its median
  // window and must judge its next bucket against the window that holds
  // them: a noise signal at level 2 goes silent for longer than its
  // window, after which a count of 2 is a spike only if the zeros count.
  SignalProfile noise;
  noise.cls = elsa::sigkit::SignalClass::Noise;
  noise.median = 2.0;
  noise.spike_delta = 1.0;
  const auto t = topo::Topology::bluegene(1, 1, 4, 8);
  OnlineEngine eng(t, {simple_chain()}, {noise, silent_profile()},
                   fast_config());
  for (int b = 0; b < 10; ++b) {
    eng.feed(rec(b * kDt, 7), 0);
    eng.feed(rec(b * kDt + 1, 7), 0);
  }
  // 100 idle buckets (window 64), then one bucket of two records.
  eng.feed(rec(110 * kDt, 7), 0);
  eng.feed(rec(110 * kDt + 1, 7), 0);
  eng.finish(112 * kDt);
  EXPECT_EQ(eng.stats().outlier_onsets, 1u);
  ASSERT_EQ(eng.predictions().size(), 1u);
  EXPECT_EQ(eng.predictions()[0].trigger_time_ms, 111 * kDt);
}

// --- Full-length engine goldens --------------------------------------------
//
// An FNV-1a digest over every Prediction field and the engine's counters
// (records, buckets, onsets, predictions, duplicates, chains used and the
// raw bytes of the per-bucket analysis windows) after replaying a stock
// campaign. Any change to which buckets a detector sees, in what order the
// onsets of one bucket are matched, or what the analysis queue charges,
// moves the digest.

template <typename T>
void put(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

std::string engine_digest(const std::vector<Prediction>& preds,
                          const EngineStats& s) {
  std::string b;
  for (const Prediction& p : preds) {
    put(b, p.trigger_time_ms);
    put(b, p.issue_time_ms);
    put(b, p.predicted_time_ms);
    put(b, p.tmpl);
    put(b, static_cast<std::uint64_t>(p.nodes.size()));
    for (const std::int32_t n : p.nodes) put(b, n);
    put(b, static_cast<int>(p.scope));
    put(b, static_cast<std::uint64_t>(p.chain_id));
    put(b, p.confidence);
    put(b, p.lead_ms);
  }
  for (const std::size_t v :
       {s.records, s.buckets, s.out_of_order, s.outlier_onsets,
        s.predictions_emitted, s.duplicates_suppressed, s.chains_used})
    put(b, static_cast<std::uint64_t>(v));
  for (const float w : s.analysis_window_ms) put(b, w);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(core::fnv1a_digest(b)));
  return hex;
}

const simlog::Trace& mercury_2006() {
  static const simlog::Trace tr = [] {
    auto sc = simlog::make_mercury_scenario(2006, 12);
    return sc.generator.generate(sc.config);
  }();
  return tr;
}

std::string experiment_digest(const simlog::Trace& trace, core::Method m,
                              const core::PipelineConfig& cfg) {
  const auto res = core::run_experiment(trace, 4.0, m, cfg);
  return engine_digest(res.predictions, res.engine_stats);
}

TEST(EngineGolden, HybridMercuryTwelveDaysSeed2006) {
  EXPECT_EQ(experiment_digest(mercury_2006(), core::Method::Hybrid,
                              core::PipelineConfig{}),
            "2d9a50dab3382801");
}

TEST(EngineGolden, HybridBlueGeneTwentyEightDaysSeed2012) {
  auto sc = simlog::make_bluegene_scenario(2012, 28);
  EXPECT_EQ(experiment_digest(sc.generator.generate(sc.config),
                              core::Method::Hybrid, core::PipelineConfig{}),
            "8807c8a6bbb5d292");
}

TEST(EngineGolden, SignalOnlyWithoutReplacementOrDebounce) {
  core::PipelineConfig cfg;
  cfg.signal_only_detector = {false, false};
  EXPECT_EQ(
      experiment_digest(mercury_2006(), core::Method::SignalOnly, cfg),
      "080139a6bc4c3087");
}

TEST(EngineGolden, SwapModelMidStreamOntoMoreTemplates) {
  // Predict from a rule-less model that knows only the first half of the
  // templates, then hot-swap onto the full trained model halfway through
  // the online phase: detectors born before the swap keep their default
  // profiles, the ones only the new model names start at the swap.
  const auto& trace = mercury_2006();
  const std::int64_t train_end = trace.t_begin_ms + 4 * 86'400'000LL;
  auto model = core::train_offline(trace, train_end, core::Method::Hybrid,
                                   core::PipelineConfig{});
  ASSERT_GE(model.profiles.size(), 4u);
  const auto narrow = ModelState::build(
      {}, {model.profiles.begin(),
           model.profiles.begin() +
               static_cast<std::ptrdiff_t>(model.profiles.size() / 2)});
  const auto full = ModelState::build(model.chains, model.profiles);
  EngineConfig ec = core::PipelineConfig{}.engine;
  OnlineEngine eng(trace.topology, {}, narrow.profiles, ec);
  const std::int64_t swap_at = train_end + (trace.t_end_ms - train_end) / 2;
  bool swapped = false;
  for (const auto& r : trace.records) {
    if (r.time_ms < train_end) continue;
    if (!swapped && r.time_ms >= swap_at) {
      eng.swap_model(&full);
      swapped = true;
    }
    eng.feed(r, model.helo.classify(r.message));
  }
  eng.finish(trace.t_end_ms);
  ASSERT_TRUE(swapped);
  EXPECT_EQ(engine_digest(eng.predictions(), eng.stats()), "32f34602561e7557");
}

}  // namespace
