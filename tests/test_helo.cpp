// HELO template-mining tests: recovery of planted templates, numeric
// generalisation, bucket separation, online incremental behaviour, purity
// against the generator's hidden templates, tokeniser edge cases, and
// pinned id digests over full-length campaigns.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "elsa/pipeline.hpp"
#include "helo/helo.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa::helo;

TEST(Helo, IdenticalMessagesShareTemplate) {
  TemplateMiner m;
  const auto a = m.classify("ciodb has been restarted.");
  const auto b = m.classify("ciodb has been restarted.");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(a).count, 2u);
}

TEST(Helo, NumericFieldsGeneralise) {
  TemplateMiner m;
  const auto a = m.classify("job 4711 timed out");
  const auto b = m.classify("job 42 timed out");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.at(a).text(), "job d+ timed out");
}

TEST(Helo, HexAndAddressesGeneralise) {
  TemplateMiner m;
  const auto a = m.classify("parity error at 0xdeadbeef corrected");
  const auto b = m.classify("parity error at 0x00001234 corrected");
  EXPECT_EQ(a, b);
}

TEST(Helo, WordVariablesBecomeWildcards) {
  TemplateMiner m;
  const auto a = m.classify("torus link failure detected on dimension alpha");
  const auto b = m.classify("torus link failure detected on dimension omega");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.at(a).tokens[6], "*");
  EXPECT_EQ(m.at(a).wildcards(), 1u);
}

TEST(Helo, DifferentLengthsNeverMerge) {
  TemplateMiner m;
  const auto a = m.classify("link down");
  const auto b = m.classify("link down now");
  EXPECT_NE(a, b);
}

TEST(Helo, DifferentLeadingTokensNeverMerge) {
  TemplateMiner m;
  const auto a = m.classify("correctable error detected in directory 0xab");
  const auto b = m.classify("uncorrectable error detected in directory 0xab");
  EXPECT_NE(a, b);
}

TEST(Helo, TooManyWordMismatchesSplit) {
  TemplateMiner m;
  const auto a = m.classify("alpha bravo charlie delta echo foxtrot");
  const auto b = m.classify("alpha xxx yyy zzz www qqq");
  EXPECT_NE(a, b);
}

TEST(Helo, ClassifyConstDoesNotMutate) {
  TemplateMiner m;
  m.classify("known message one");
  const std::size_t before = m.size();
  EXPECT_EQ(m.classify_const("unknown message entirely different"),
            TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.size(), before);
  EXPECT_NE(m.classify_const("known message one"), TemplateMiner::kNoTemplate);
}

TEST(Helo, EmptyMessage) {
  TemplateMiner m;
  EXPECT_EQ(m.classify(""), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.classify_const("   "), TemplateMiner::kNoTemplate);
}

TEST(Helo, OnlinePhaseAddsNewTemplatesWithStableIds) {
  TemplateMiner m;
  const auto a = m.classify("service action started part 12");
  const auto b = m.classify("completely new subsystem message appears");
  EXPECT_EQ(b, a + 1);
  // Old template id unchanged after new additions.
  EXPECT_EQ(m.classify("service action started part 99"), a);
}

// Integration: run HELO over a generated campaign and check that the
// recovered templates track the generator's hidden ones.
TEST(Helo, RecoversGeneratorTemplatesWithHighPurity) {
  auto scenario =
      elsa::simlog::make_bluegene_scenario(99, /*duration_days=*/1.0,
                                           /*filler_templates=*/40);
  const auto trace = scenario.generator.generate(scenario.config);
  ASSERT_GT(trace.records.size(), 1000u);

  TemplateMiner m;
  // helo id -> histogram of true template ids
  std::map<std::uint32_t, std::map<std::uint16_t, std::size_t>> assignment;
  for (const auto& rec : trace.records) {
    const auto tid = m.classify(rec.message);
    ASSERT_NE(tid, TemplateMiner::kNoTemplate);
    ++assignment[tid][rec.true_template];
  }

  // Purity: fraction of records whose helo template's majority true id
  // matches their own true id.
  std::size_t majority_total = 0;
  for (const auto& [tid, hist] : assignment) {
    std::size_t best = 0;
    for (const auto& [true_id, n] : hist) {
      (void)true_id;
      best = std::max(best, n);
    }
    majority_total += best;
  }
  const double purity =
      static_cast<double>(majority_total) /
      static_cast<double>(trace.records.size());
  EXPECT_GT(purity, 0.97) << "HELO merged unrelated generator templates";

  // Completeness: most generator templates that appear get their own
  // (majority) helo template rather than being split into many.
  std::set<std::uint16_t> seen_true;
  for (const auto& rec : trace.records) seen_true.insert(rec.true_template);
  EXPECT_LT(m.size(), seen_true.size() * 2)
      << "HELO shattered templates into fragments";
}

TEST(Helo, LiteralPlaceholderTokens) {
  TemplateMiner m;
  // A literal "d+" in a message reads as numeric; a literal "*" founds a
  // wildcard position.
  const auto a = m.classify("value d+ set");
  EXPECT_EQ(m.classify_const("value 17 set"), a);
  EXPECT_EQ(m.at(a).text(), "value d+ set");
  // A template's "d+" never matches a word...
  EXPECT_EQ(m.classify_const("value abc set"), TemplateMiner::kNoTemplate);
  const auto b = m.classify("mask * applied");
  EXPECT_EQ(m.at(b).text(), "mask * applied");
  EXPECT_EQ(m.classify_const("mask anything applied"), b);
  EXPECT_EQ(m.classify_const("mask 42 applied"), b);
  // ...nor a template constant a numeric token.
  const auto c = m.classify("port eth0 open");
  EXPECT_EQ(m.classify_const("port 0x1f open"), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.classify_const("port eth0 open"), c);
}

TEST(Helo, WhitespaceRuns) {
  TemplateMiner m;
  const auto a = m.classify("link\tdown on   node 12");
  EXPECT_EQ(m.at(a).text(), "link down on node d+");
  EXPECT_EQ(m.classify("  link down\t\ton node 7 "), a);
  EXPECT_EQ(m.classify_const("\tlink down on node 3\t"), a);
  EXPECT_EQ(m.classify_const(" \t \t"), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.classify("\t\t"), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.size(), 1u);
}

TEST(Helo, HexPrefixes) {
  TemplateMiner m;
  const auto a = m.classify("ecc error at 0xdeadbeef");
  EXPECT_EQ(m.at(a).text(), "ecc error at d+");
  EXPECT_EQ(m.classify_const("ecc error at 0XABCD"), a);
  EXPECT_EQ(m.classify_const("ecc error at 0x00ff"), a);
  // A bare or non-hex prefix is a word, not a number.
  const auto b = m.classify("bad value 0x");
  EXPECT_EQ(m.at(b).text(), "bad value 0x");
  EXPECT_NE(m.classify("bad value 0xzz"), m.classify("bad value 0x1"));
}

TEST(Helo, LongMessageClassifiedOnFirstTokens) {
  const auto words = [](std::size_t n, const std::string& tail) {
    std::string msg;
    for (std::size_t i = 0; i < n; ++i) msg += "w" + std::to_string(i) + "x ";
    return msg + tail;
  };
  TemplateMiner m;
  // kMaxTokens tokens then a differing tail: the tail is never read.
  const auto a = m.classify(words(TemplateMiner::kMaxTokens, "alpha beta"));
  EXPECT_EQ(m.classify(words(TemplateMiner::kMaxTokens, "gamma")), a);
  EXPECT_EQ(m.classify_const(words(TemplateMiner::kMaxTokens, "")), a);
  EXPECT_EQ(m.at(a).tokens.size(), TemplateMiner::kMaxTokens);
  EXPECT_EQ(m.at(a).wildcards(), 0u);
  // One token short of the cap is a different length, so another bucket.
  EXPECT_NE(m.classify(words(TemplateMiner::kMaxTokens - 1, "")), a);
}

TEST(Helo, ClassifyAndClassifyConstAgree) {
  const std::vector<std::string> msgs = {
      "ciodb has been restarted.",
      "job 4711 timed out",
      "job 42 timed out",
      "torus link failure detected on dimension alpha",
      "torus link failure detected on dimension omega",
      "parity error at 0xdeadbeef corrected",
      "value d+ set",
      "value 99 set",
      "mask * applied",
      "mask x applied",
      "  leading\tand trailing  ",
      "leading and trailing",
      "alpha bravo charlie delta echo foxtrot",
      "alpha bravo charlie delta echo golf",
      "alpha xxx yyy zzz www qqq",
      "caf\xc3\xa9 0x1f \xff\xfe 12",
      "caf\xc3\xa9 0x2e \xff\xfe 13",
      "   ",
  };
  TemplateMiner m;
  std::vector<std::uint32_t> ids;
  for (const auto& msg : msgs) ids.push_back(m.classify(msg));
  // After the mutating pass has settled every template, the frozen path
  // gives the same answer for every message seen.
  for (std::size_t i = 0; i < msgs.size(); ++i)
    EXPECT_EQ(m.classify_const(msgs[i]), ids[i]) << msgs[i];
  EXPECT_EQ(ids.back(), TemplateMiner::kNoTemplate);
}

// ---------------------------------------------------------------------------
// Full-length id equivalence. Each campaign trains HELO through
// train_offline on its first 4 days, then classify_const runs over every
// record; a second, fresh miner classifies every record with the mutating
// path. The digests were computed before the allocation-free tokeniser
// replaced the split-into-strings one, and pin that every id and template
// text is unchanged by it.

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    for (unsigned char c : s) byte(c);
    byte('\n');
  }
};

struct CampaignDigests {
  std::uint64_t frozen_ids = 0;    ///< classify_const over every record
  std::uint64_t live_ids = 0;      ///< classify over every record
  std::uint64_t live_texts = 0;    ///< final template texts of that miner
  std::size_t live_templates = 0;
};

CampaignDigests digest_campaign(const elsa::simlog::Scenario& sc) {
  const auto trace = sc.generator.generate(sc.config);
  const std::int64_t train_end =
      trace.t_begin_ms +
      static_cast<std::int64_t>(sc.train_days * 86'400'000.0);
  const auto model =
      elsa::core::train_offline(trace, train_end, elsa::core::Method::Hybrid,
                                elsa::core::PipelineConfig{});
  CampaignDigests d;
  Fnv frozen, live_ids, texts;
  TemplateMiner live;
  for (const auto& rec : trace.records) {
    frozen.u32(model.helo.classify_const(rec.message));
    live_ids.u32(live.classify(rec.message));
  }
  for (const auto& t : live.templates()) texts.str(t.text());
  d.frozen_ids = frozen.h;
  d.live_ids = live_ids.h;
  d.live_texts = texts.h;
  d.live_templates = live.size();
  return d;
}

TEST(HeloDigest, MercuryTwelveDaysSeed2006) {
  const auto d =
      digest_campaign(elsa::simlog::make_mercury_scenario(2006, 12.0));
  EXPECT_EQ(d.frozen_ids, 0x96c3f9f5ace4b9a6ULL);
  EXPECT_EQ(d.live_ids, 0x96c3f9f5ace4b9a6ULL);
  EXPECT_EQ(d.live_texts, 0x2f95fbe2053dbbafULL);
  EXPECT_EQ(d.live_templates, 37u);
}

TEST(HeloDigest, BlueGeneTwentyEightDaysSeed2012) {
  const auto d =
      digest_campaign(elsa::simlog::make_bluegene_scenario(2012, 28.0));
  EXPECT_EQ(d.frozen_ids, 0xafa84bb02c41f8a7ULL);
  EXPECT_EQ(d.live_ids, 0xafa84bb02c41f8a7ULL);
  EXPECT_EQ(d.live_texts, 0x1b8b97f0be89f574ULL);
  EXPECT_EQ(d.live_templates, 59u);
}

}  // namespace
