// Model-serialisation tests: round trip of every persisted field, version
// and corruption rejection, and behavioural equivalence — a loaded model
// must drive the online engine to the same predictions as the original.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "elsa/model_io.hpp"
#include "elsa/online.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;

const core::OfflineModel& trained_model() {
  static const core::OfflineModel model = [] {
    auto sc = simlog::make_bluegene_scenario(2012, 5.0, 30);
    const auto trace = sc.generator.generate(sc.config);
    core::PipelineConfig cfg;
    return core::train_offline(trace, trace.t_end_ms, core::Method::Hybrid,
                               cfg);
  }();
  return model;
}

TEST(ModelIo, RoundTripPreservesStructure) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);

  EXPECT_EQ(loaded.method, model.method);
  EXPECT_EQ(loaded.train_begin_ms, model.train_begin_ms);
  EXPECT_EQ(loaded.train_end_ms, model.train_end_ms);
  ASSERT_EQ(loaded.helo.size(), model.helo.size());
  for (std::uint32_t t = 0; t < model.helo.size(); ++t) {
    EXPECT_EQ(loaded.helo.at(t).text(), model.helo.at(t).text());
    EXPECT_EQ(loaded.helo.at(t).count, model.helo.at(t).count);
  }
  ASSERT_EQ(loaded.profiles.size(), model.profiles.size());
  for (std::size_t i = 0; i < model.profiles.size(); ++i) {
    EXPECT_EQ(loaded.profiles[i].cls, model.profiles[i].cls);
    EXPECT_DOUBLE_EQ(loaded.profiles[i].spike_delta,
                     model.profiles[i].spike_delta);
    EXPECT_EQ(loaded.profiles[i].dropout_window,
              model.profiles[i].dropout_window);
  }
  EXPECT_EQ(loaded.tmpl_severity, model.tmpl_severity);
  ASSERT_EQ(loaded.chains.size(), model.chains.size());
  for (std::size_t c = 0; c < model.chains.size(); ++c) {
    ASSERT_EQ(loaded.chains[c].items.size(), model.chains[c].items.size());
    for (std::size_t j = 0; j < model.chains[c].items.size(); ++j) {
      EXPECT_EQ(loaded.chains[c].items[j].signal,
                model.chains[c].items[j].signal);
      EXPECT_EQ(loaded.chains[c].items[j].delay,
                model.chains[c].items[j].delay);
    }
    EXPECT_EQ(loaded.chains[c].support, model.chains[c].support);
    EXPECT_EQ(loaded.chains[c].failure_item, model.chains[c].failure_item);
    EXPECT_EQ(loaded.chains[c].location.scope,
              model.chains[c].location.scope);
  }
}

TEST(ModelIo, LoadedMinerClassifiesLikeOriginal) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);

  auto sc = simlog::make_bluegene_scenario(99, 0.2, 30);
  const auto trace = sc.generator.generate(sc.config);
  for (std::size_t i = 0; i < trace.records.size(); i += 37) {
    const auto& msg = trace.records[i].message;
    EXPECT_EQ(loaded.helo.classify_const(msg), model.helo.classify_const(msg))
        << msg;
  }
}

TEST(ModelIo, LoadedModelDrivesSamePredictions) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  auto loaded = core::load_model(ss);

  auto sc = simlog::make_bluegene_scenario(4242, 2.0, 30);
  const auto trace = sc.generator.generate(sc.config);
  core::PipelineConfig cfg;
  core::EngineConfig ec = cfg.engine;
  ec.dt_ms = cfg.dt_ms;

  auto run = [&](const core::OfflineModel& m) {
    core::OnlineEngine engine(trace.topology, m.chains, m.profiles, ec);
    auto helo = m.helo;
    for (const auto& rec : trace.records)
      engine.feed(rec, helo.classify(rec.message));
    engine.finish(trace.t_end_ms);
    return engine.predictions();
  };
  const auto a = run(model);
  const auto b = run(loaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tmpl, b[i].tmpl);
    EXPECT_EQ(a[i].trigger_time_ms, b[i].trigger_time_ms);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
  }
}

TEST(ModelIo, RejectsBadMagicAndVersion) {
  std::stringstream bad1("NOT-A-MODEL 1\n");
  EXPECT_THROW(core::load_model(bad1), std::runtime_error);
  std::stringstream bad2("ELSA-MODEL 999\nmethod 0\n");
  EXPECT_THROW(core::load_model(bad2), std::runtime_error);
}

TEST(ModelIo, RejectsTruncatedFile) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(core::load_model(truncated), std::runtime_error);
}

TEST(ModelIo, RejectsDanglingChainReference) {
  std::stringstream ss;
  ss << "ELSA-MODEL 1\nmethod 0\ntrain 0 1000\n"
     << "templates 1\nT 5 2 hello world\n"
     << "profiles 1\nP 2 0 0 0.5 0 0 0 0\n"
     << "severities 1\nS 0\n"
     << "chains 1\nC 2 4 0.5 0.9 1 1 0 1 1 4 0:0 9:5\n"  // signal 9 unknown
     << "end\n";
  EXPECT_THROW(core::load_model(ss), std::runtime_error);
}

// --- Hostile inputs: counts and profile fields a detector cannot run on ---

struct TinyModel {
  std::string templates = "templates 1\nT 5 2 hello world\n";
  std::string profiles =
      "profiles 2\nP 2 0 0 0.5 0 0 0 0\nP 1 2 1 3 6 1.5 2 2\n";
  std::string severities = "severities 1\nS 0\n";
  std::string chains = "chains 1\nC 2 4 0.5 0.9 1 1 0 1 1 4 0:0 0:5\n";

  std::string text() const {
    return "ELSA-MODEL 1\nmethod 0\ntrain 0 1000\n" + templates + profiles +
           severities + chains + "end\n";
  }
};

/// The message load_model fails with, or "" when it loads. Any exception
/// counts, so a std::bad_alloc from an up-front allocation shows up as a
/// message without the expected words.
std::string load_error(const std::string& text) {
  std::istringstream is(text);
  try {
    core::load_model(is);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ModelIo, TinyModelLoads) {
  EXPECT_EQ(load_error(TinyModel{}.text()), "");
}

TEST(ModelIo, HugeTemplateCountEndsTruncated) {
  TinyModel m;
  m.templates = "templates 4000000000000\nT 5 2 hello world\n";
  EXPECT_NE(load_error(m.text()).find("truncated template section"),
            std::string::npos);
  m.templates = "templates 1\nT 5 4000000000000 hello world\n";
  EXPECT_NE(load_error(m.text()).find("truncated"), std::string::npos);
}

TEST(ModelIo, HugeProfileCountEndsTruncated) {
  TinyModel m;
  m.profiles = "profiles 4000000000000\nP 2 0 0 0.5 0 0 0 0\n";
  EXPECT_NE(load_error(m.text()).find("truncated profile section"),
            std::string::npos);
}

TEST(ModelIo, HugeSeverityCountEndsTruncated) {
  TinyModel m;
  m.severities = "severities 4000000000000\nS 0\n";
  EXPECT_NE(load_error(m.text()).find("truncated severity section"),
            std::string::npos);
}

TEST(ModelIo, HugeChainAndItemCountsEndTruncated) {
  TinyModel m;
  m.chains = "chains 4000000000000\nC 2 4 0.5 0.9 1 1 0 1 1 4 0:0 0:5\n";
  EXPECT_NE(load_error(m.text()).find("truncated chain section"),
            std::string::npos);
  m.chains = "chains 1\nC 4000000000000 4 0.5 0.9 1 1 0 1 1 4 0:0 0:5\n";
  EXPECT_NE(load_error(m.text()).find("chain"), std::string::npos);
}

TEST(ModelIo, RejectsMalformedChainItem) {
  TinyModel m;
  m.chains = "chains 1\nC 2 4 0.5 0.9 1 1 0 1 1 4 0:0 x:5\n";
  EXPECT_NE(load_error(m.text()).find("bad chain item 'x:5'"),
            std::string::npos);
}

class BadProfileField : public ::testing::TestWithParam<
                            std::pair<const char*, const char*>> {};

TEST_P(BadProfileField, RejectedNamingTheProfileIndex) {
  // The second profile carries the bad field; the error names index 1.
  // "nan" and "inf" do not even parse, so they fail as a malformed row.
  TinyModel m;
  m.profiles = std::string("profiles 2\nP 2 0 0 0.5 0 0 0 0\n") +
               GetParam().first + "\n";
  const std::string err = load_error(m.text());
  EXPECT_NE(err.find("profile 1: "), std::string::npos) << err;
  EXPECT_NE(err.find(GetParam().second), std::string::npos) << err;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, BadProfileField,
    ::testing::Values(
        std::make_pair("P 1 2 1 nan 0 0 0 2", "malformed"),
        std::make_pair("P 1 2 1 -0.5 0 0 0 2", "spike_delta"),
        std::make_pair("P 1 2 1 inf 0 0 0 2", "malformed"),
        std::make_pair("P 1 2 -1 3 0 0 0 2", "mad"),
        std::make_pair("P 1 2 nan 3 0 0 0 2", "malformed"),
        std::make_pair("P 1 2 1 3 6 nan 2 2", "malformed"),
        std::make_pair("P 1 2 1 3 6 -1 2 2", "dropout_min_count"),
        std::make_pair("P 1 2 1 3 60481 1.5 2 2", "dropout_window"),
        std::make_pair("P 1 2 1 3 -1 1.5 2 2", "dropout_window"),
        std::make_pair("P 1 nan 1 3 0 0 0 2", "malformed")));

TEST(ModelIo, AcceptsDropoutWindowAtTheBound) {
  TinyModel m;
  m.profiles = "profiles 1\nP 1 2 1 3 " +
               std::to_string(core::kMaxDropoutWindow) + " 1.5 2 2\n";
  EXPECT_EQ(load_error(m.text()), "");
}

TEST(ModelIo, DigestIsStableAndSeparatesModels) {
  // model_digest is the identity the online≡batch mining gate compares:
  // repeatable on the same model, unchanged by a serialisation round trip,
  // different the moment any persisted field differs.
  const auto& model = trained_model();
  const std::uint64_t d = core::model_digest(model);
  EXPECT_EQ(d, core::model_digest(model));

  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);
  EXPECT_EQ(core::model_digest(loaded), d);

  auto tweaked = loaded;
  ASSERT_FALSE(tweaked.chains.empty());
  tweaked.chains[0].support += 1;
  EXPECT_NE(core::model_digest(tweaked), d);
}

TEST(ModelIo, Fnv1aDigestChainsConcatenation) {
  const std::uint64_t whole = core::fnv1a_digest("abcdef");
  const std::uint64_t chained =
      core::fnv1a_digest("def", core::fnv1a_digest("abc"));
  EXPECT_EQ(whole, chained);
  EXPECT_NE(core::fnv1a_digest("abc"), core::fnv1a_digest("abd"));
}

TEST(ModelIo, FileRoundTrip) {
  const auto& model = trained_model();
  const std::string path = "/tmp/elsa_model_io_test.model";
  core::save_model_file(path, model);
  const auto loaded = core::load_model_file(path);
  EXPECT_EQ(loaded.chains.size(), model.chains.size());
  std::remove(path.c_str());
  EXPECT_THROW(core::load_model_file("/nonexistent/x.model"),
               std::runtime_error);
}

}  // namespace
