#include <gtest/gtest.h>

#include "util/strings.hpp"

namespace {

using namespace elsa::util;

TEST(Strings, SplitDropsEmpty) {
  const auto t = split("  a  bb   c ", " ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split("", " ").empty());
  EXPECT_TRUE(split("   ", " ").empty());
}

TEST(Strings, SplitMultipleDelims) {
  const auto t = split("a\tb c", " \t");
  ASSERT_EQ(t.size(), 3u);
}

TEST(Strings, SplitKeepEmptyPreservesColumns) {
  const auto t = split_keep_empty("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"solo"}, "-"), "solo");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("FAILURE ciodb", "FAILURE"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
}

TEST(Strings, LooksNumericPositives) {
  EXPECT_TRUE(looks_numeric("12345"));
  EXPECT_TRUE(looks_numeric("0xdeadbeef"));
  EXPECT_TRUE(looks_numeric("10.0.3.77"));
  EXPECT_TRUE(looks_numeric("3:136"));
  EXPECT_TRUE(looks_numeric("-42"));
}

TEST(Strings, LooksNumericNegatives) {
  EXPECT_FALSE(looks_numeric("kernel"));
  EXPECT_FALSE(looks_numeric(""));
  EXPECT_FALSE(looks_numeric("restarted."));
  EXPECT_FALSE(looks_numeric("r00-m0"));  // hmm: r,m letters vs digits
}

TEST(Strings, LooksNumericUppercaseHex) {
  EXPECT_TRUE(looks_numeric("0XAB"));
  EXPECT_TRUE(looks_numeric("0xAb12"));
  EXPECT_TRUE(looks_numeric("1A2B3C"));
  EXPECT_TRUE(looks_numeric("DEAD1"));
  EXPECT_FALSE(looks_numeric("0XAG"));
  EXPECT_FALSE(looks_numeric("0X"));
  EXPECT_FALSE(looks_numeric("0x"));
}

TEST(Strings, LooksNumericHexLetterWords) {
  // Words spelled only with a-f letters need a real digit to count.
  EXPECT_FALSE(looks_numeric("cafe"));
  EXPECT_FALSE(looks_numeric("detected"));
  EXPECT_FALSE(looks_numeric("FACADE"));
  EXPECT_FALSE(looks_numeric("bad"));
  EXPECT_TRUE(looks_numeric("cafe1"));
}

TEST(Strings, LooksNumericHighBytes) {
  // Bytes >= 0x80 (UTF-8 or raw) are never digits or hex letters.
  EXPECT_FALSE(looks_numeric("\xc3\xa9"));
  EXPECT_FALSE(looks_numeric("0x\xff"));
  EXPECT_FALSE(looks_numeric("1\xb2\xb3"));   // 1 digit, 2 others
  EXPECT_TRUE(looks_numeric("123\xb2"));       // 3 digits, 1 other
  EXPECT_TRUE(looks_numeric("12ab\xe9"));      // 4 numeric, 1 other
  EXPECT_FALSE(looks_numeric("\xb9\xb2\xb3"));  // superscripts in Latin-1
}

TEST(Strings, TokenizeAgreesWithSplitAndLooksNumeric) {
  for (const char* s :
       {"", " \t ", "a", "  job 4711\ttimed  out ", "0xAB 0x cafe 12ab\xe9",
        "r00-m0 10.0.3.77 3:136 -42 \xc3\xa9 d+ *"}) {
    SCOPED_TRACE(s);
    Token buf[16];
    const std::size_t n = tokenize(s, buf, 16);
    const auto words = split(s, " \t");
    ASSERT_EQ(n, words.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(buf[i].text(), words[i]);
      EXPECT_EQ(buf[i].numeric, looks_numeric(words[i])) << words[i];
    }
  }
}

TEST(Strings, TokenizeStopsAtCapacity) {
  Token buf[2];
  ASSERT_EQ(tokenize("one 2 three four", buf, 2), 2u);
  EXPECT_EQ(buf[0].text(), "one");
  EXPECT_FALSE(buf[0].numeric);
  EXPECT_EQ(buf[1].text(), "2");
  EXPECT_TRUE(buf[1].numeric);
  EXPECT_EQ(tokenize("one", buf, 0), 0u);
}

TEST(Strings, HumanDuration) {
  EXPECT_EQ(human_duration(5.0), "5s");
  EXPECT_EQ(human_duration(90.0), "1.5m");
  EXPECT_EQ(human_duration(5400.0), "1.5h");
}

}  // namespace
