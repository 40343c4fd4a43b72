// End-to-end pipeline integration tests on a compact campaign: every
// method trains and predicts, results are deterministic, severity mapping
// and non-error filtering behave, and the headline ordering (hybrid recall
// well above the DM baseline) holds.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "elsa/model_io.hpp"
#include "elsa/pipeline.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;
using core::Method;

const simlog::Trace& small_trace() {
  static const simlog::Trace tr = [] {
    auto sc = simlog::make_bluegene_scenario(2012, 8.0, 40);
    return sc.generator.generate(sc.config);
  }();
  return tr;
}

TEST(Pipeline, MajoritySeverity) {
  std::vector<simlog::LogRecord> recs(5);
  recs[0].severity = simlog::Severity::Info;
  recs[1].severity = simlog::Severity::Failure;
  recs[2].severity = simlog::Severity::Failure;
  recs[3].severity = simlog::Severity::Info;
  recs[4].severity = simlog::Severity::Warning;
  const std::vector<std::uint32_t> tids{0, 0, 0, 1, 1};
  const auto sev = core::majority_severity(2, tids, recs, recs.size());
  EXPECT_EQ(sev[0], simlog::Severity::Failure);
  EXPECT_EQ(sev[1], simlog::Severity::Info);  // tie resolved to first seen
}

TEST(Pipeline, AnnotateFailureItems) {
  std::vector<core::Chain> chains(3);
  chains[0].items = {{0, 0}, {1, 5}};   // 1 is failure -> predictive
  chains[1].items = {{0, 0}, {2, 5}};   // no failure -> non-error
  chains[2].items = {{1, 0}, {2, 5}};   // failure first -> not predictive
  const std::vector<simlog::Severity> sev{
      simlog::Severity::Info, simlog::Severity::Failure,
      simlog::Severity::Info};
  const auto non_error = core::annotate_failure_items(chains, sev);
  EXPECT_EQ(non_error, 1u);
  EXPECT_EQ(chains[0].failure_item, 1);
  EXPECT_TRUE(chains[0].predictive());
  EXPECT_EQ(chains[1].failure_item, -1);
  EXPECT_EQ(chains[2].failure_item, 0);
  EXPECT_FALSE(chains[2].predictive());
}

TEST(Pipeline, OfflineModelBasics) {
  core::PipelineConfig cfg;
  const auto model = core::train_offline(
      small_trace(), small_trace().t_begin_ms + 4 * 86'400'000LL,
      Method::Hybrid, cfg);
  EXPECT_GT(model.helo.size(), 30u);
  EXPECT_EQ(model.profiles.size(), model.helo.size());
  EXPECT_EQ(model.tmpl_severity.size(), model.helo.size());
  EXPECT_GT(model.seeds.size(), 3u);
  EXPECT_GT(model.chains.size(), 3u);
  EXPECT_GT(model.grite_stats.seed_pairs, 0u);
  // At least one multi-event chain and one predictive chain.
  bool multi = false, predictive = false;
  for (const auto& c : model.chains) {
    multi |= c.items.size() >= 3;
    predictive |= c.predictive();
  }
  EXPECT_TRUE(multi);
  EXPECT_TRUE(predictive);
}

TEST(Pipeline, ExperimentDeterministic) {
  core::PipelineConfig cfg;
  const auto a =
      core::run_experiment(small_trace(), 4.0, Method::Hybrid, cfg);
  const auto b =
      core::run_experiment(small_trace(), 4.0, Method::Hybrid, cfg);
  EXPECT_EQ(a.predictions.size(), b.predictions.size());
  EXPECT_EQ(a.eval.correct_predictions, b.eval.correct_predictions);
  EXPECT_EQ(a.eval.predicted_faults, b.eval.predicted_faults);
}

TEST(Pipeline, AllMethodsProduceSanePrecision) {
  core::PipelineConfig cfg;
  for (const auto m :
       {Method::Hybrid, Method::SignalOnly, Method::DataMining}) {
    const auto res = core::run_experiment(small_trace(), 4.0, m, cfg);
    EXPECT_GT(res.predictions.size(), 0u) << core::to_string(m);
    EXPECT_GT(res.eval.precision(), 0.5) << core::to_string(m);
    EXPECT_LE(res.eval.recall(), 1.0);
  }
}

TEST(Pipeline, HybridRecallDominatesDataMining) {
  core::PipelineConfig cfg;
  const auto hybrid =
      core::run_experiment(small_trace(), 4.0, Method::Hybrid, cfg);
  const auto dm =
      core::run_experiment(small_trace(), 4.0, Method::DataMining, cfg);
  EXPECT_GT(hybrid.eval.recall(), 1.8 * dm.eval.recall());
}

TEST(Pipeline, FaultFailureTemplatesResolved) {
  core::PipelineConfig cfg;
  const auto res =
      core::run_experiment(small_trace(), 4.0, Method::Hybrid, cfg);
  ASSERT_EQ(res.fault_failure_tmpls.size(), small_trace().faults.size());
  for (const auto& tmpls : res.fault_failure_tmpls)
    EXPECT_FALSE(tmpls.empty());
}

TEST(Pipeline, NonErrorChainsExcludedFromPrediction) {
  core::PipelineConfig cfg;
  const auto res =
      core::run_experiment(small_trace(), 4.0, Method::Hybrid, cfg);
  EXPECT_GT(res.model.non_error_chains, 0u);
  for (const auto& p : res.predictions) {
    const auto& chain = res.model.chains[p.chain_id];
    EXPECT_TRUE(chain.predictive());
  }
}

TEST(Pipeline, DmModelHasNoLocationProfiles) {
  core::PipelineConfig cfg;
  const auto res =
      core::run_experiment(small_trace(), 4.0, Method::DataMining, cfg);
  for (const auto& p : res.predictions) {
    EXPECT_EQ(p.scope, elsa::topo::Scope::System);
    EXPECT_TRUE(p.nodes.empty());
  }
}

// The hybrid model's fingerprint on the stock full-length campaigns,
// trained on their first 4 days. The digest folds every profile's class
// and period, so it pins each periodic/noise decision the autocorrelation
// makes — a change to the transform that moved one would show here.
std::string hybrid_model_digest(const simlog::Scenario& sc) {
  const auto trace = sc.generator.generate(sc.config);
  const auto model = core::train_offline(
      trace, trace.t_begin_ms + 4 * 86'400'000LL, Method::Hybrid,
      core::PipelineConfig{});
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(core::model_digest(model)));
  return hex;
}

TEST(Pipeline, HybridModelDigestMercury2006) {
  EXPECT_EQ(hybrid_model_digest(simlog::make_mercury_scenario(2006, 12)),
            "3380515c379a67b4");
}

TEST(Pipeline, HybridModelDigestMercury2007) {
  EXPECT_EQ(hybrid_model_digest(simlog::make_mercury_scenario(2007, 12)),
            "0f345c0ed02405ce");
}

TEST(Pipeline, HybridModelDigestBlueGene2012) {
  EXPECT_EQ(hybrid_model_digest(simlog::make_bluegene_scenario(2012, 28)),
            "f29b3ea7bf26ecdb");
}

TEST(Pipeline, MethodNames) {
  EXPECT_STREQ(core::to_string(Method::Hybrid), "ELSA hybrid");
  EXPECT_STREQ(core::to_string(Method::SignalOnly), "ELSA signal");
  EXPECT_STREQ(core::to_string(Method::DataMining), "Data mining");
}

}  // namespace
