// Online outlier-detector tests: the counting sliding median (property
// checked against the generic structure), spike/occurrence/dropout
// detection, the replacement strategy under sustained bursts (paper Fig 3),
// and episode debouncing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "elsa/outlier.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace elsa::core;
using elsa::util::Rng;
using elsa::util::SlidingMedian;

class CountingMedianProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CountingMedianProperty, MatchesLowerMedianReference) {
  const std::size_t window = GetParam();
  Rng rng(window + 555);
  CountingSlidingMedian fast(window);
  std::vector<double> xs;
  for (int i = 0; i < 1500; ++i) {
    const double x = std::floor(rng.uniform(0.0, 30.0));
    xs.push_back(x);
    fast.push(x);
    // Reference: the lower median (order statistic at (n-1)/2) over the
    // trailing window — the convention CountingSlidingMedian implements.
    const std::size_t lo = xs.size() >= window ? xs.size() - window : 0;
    std::vector<double> w(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                          xs.end());
    std::sort(w.begin(), w.end());
    ASSERT_DOUBLE_EQ(fast.median(), w[(w.size() - 1) / 2]) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, CountingMedianProperty,
                         ::testing::Values(1, 3, 8, 63, 512));

// Random interleavings of push and push_zeros(k), k up to three windows,
// against the lower median of an explicit trailing window. Mostly zeros
// with bursts, and values past kMaxValue, as real bucket counts look.
class RunLengthWindowProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunLengthWindowProperty, PushZerosMatchesLowerMedianReference) {
  const std::size_t window = GetParam();
  Rng rng(window * 7 + 31);
  CountingSlidingMedian fast(window);
  std::deque<double> ref;
  std::vector<double> scratch;
  const int steps = window > 1000 ? 300 : 1500;
  for (int i = 0; i < steps; ++i) {
    if (rng.bernoulli(0.3)) {
      const std::size_t k = 1 + rng.below(3 * window);
      fast.push_zeros(k);
      for (std::size_t j = 0; j < std::min(k, window); ++j) ref.push_back(0);
    } else {
      double x = 0.0;
      const double u = rng.uniform();
      if (u < 0.05) x = 1e4;  // clamps to kMaxValue
      else if (u < 0.5) x = std::floor(rng.uniform(0.0, 30.0));
      fast.push(x);
      ref.push_back(std::min<double>(x, CountingSlidingMedian::kMaxValue));
    }
    while (ref.size() > window) ref.pop_front();
    scratch.assign(ref.begin(), ref.end());
    const auto mid =
        scratch.begin() + static_cast<std::ptrdiff_t>((scratch.size() - 1) / 2);
    std::nth_element(scratch.begin(), mid, scratch.end());
    ASSERT_EQ(fast.size(), ref.size()) << "step " << i;
    ASSERT_DOUBLE_EQ(fast.median(), *mid) << "step " << i;
    ASSERT_LE(fast.runs(), std::min(window, fast.size())) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, RunLengthWindowProperty,
                         ::testing::Values(1, 3, 8, 63, 512, 8640));

TEST(CountingMedian, SilentWindowIsOneRun) {
  CountingSlidingMedian m(8640);
  m.push(3.0);
  m.push_zeros(100'000);  // clamped to the window
  EXPECT_EQ(m.size(), 8640u);
  EXPECT_EQ(m.runs(), 1u);
  EXPECT_DOUBLE_EQ(m.median(), 0.0);
  m.push_zeros(0);
  EXPECT_EQ(m.size(), 8640u);
}

TEST(CountingMedian, RunsLongerThanTheCountFieldSplit) {
  // A window past the 20-bit run count: a zero run that long is stored as
  // two runs, and evicting across the split stays exact.
  const std::size_t window = (std::size_t{1} << 20) + 4;
  CountingSlidingMedian m(window);
  m.push(5.0);
  m.push_zeros(window);
  EXPECT_EQ(m.size(), window);
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_DOUBLE_EQ(m.median(), 0.0);
  // Sevens displace zeros one by one; the lower median turns 7 once the
  // zeros no longer reach index (window - 1) / 2.
  const std::size_t turn = window - (window - 1) / 2;
  for (std::size_t i = 1; i <= turn; ++i) {
    m.push(7.0);
    ASSERT_DOUBLE_EQ(m.median(), i < turn ? 0.0 : 7.0) << i;
  }
  EXPECT_EQ(m.runs(), 3u);  // what is left of both zero runs, the sevens
  // Three zeros in, three zeros out: the multiset and median stay.
  m.push_zeros(3);
  EXPECT_EQ(m.size(), window);
  EXPECT_DOUBLE_EQ(m.median(), 7.0);
  m.push_zeros(window);
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_DOUBLE_EQ(m.median(), 0.0);
}

TEST(CountingMedian, ClampsLargeValues) {
  CountingSlidingMedian m(3);
  m.push(1e9);
  m.push(1e9);
  m.push(1e9);
  EXPECT_DOUBLE_EQ(m.median(), CountingSlidingMedian::kMaxValue);
  m.push(-5.0);
  EXPECT_GE(m.median(), 0.0);
}

SignalProfile silent_profile() {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Silent;
  p.spike_delta = 0.5;
  return p;
}

SignalProfile noise_profile(double median, double delta) {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Noise;
  p.median = median;
  p.spike_delta = delta;
  return p;
}

SignalProfile periodic_profile(std::size_t period, double mean) {
  SignalProfile p;
  p.cls = elsa::sigkit::SignalClass::Periodic;
  p.median = mean;
  p.mean = mean;
  p.period = period;
  p.spike_delta = 4.0;
  p.dropout_window = 3 * period;
  p.dropout_min_count = 0.25 * mean * static_cast<double>(p.dropout_window);
  return p;
}

TEST(OnlineDetector, SilentSignalAnyOccurrenceIsOutlier) {
  OnlineDetector det(silent_profile(), 100);
  for (int i = 0; i < 50; ++i) {
    const auto r = det.feed(0.0);
    ASSERT_EQ(r.kind, OutlierKind::None);
  }
  const auto r = det.feed(1.0);
  EXPECT_EQ(r.kind, OutlierKind::Occurrence);
  EXPECT_TRUE(r.onset);
}

TEST(OnlineDetector, NoiseSpikeDetectedAboveDelta) {
  OnlineDetector det(noise_profile(2.0, 5.0), 100);
  for (int i = 0; i < 60; ++i) det.feed(2.0);
  EXPECT_EQ(det.feed(4.0).kind, OutlierKind::None);   // within delta
  EXPECT_EQ(det.feed(20.0).kind, OutlierKind::Spike); // way above
}

TEST(OnlineDetector, DebounceReportsOneOnsetPerEpisode) {
  OnlineDetector det(noise_profile(1.0, 3.0), 100);
  for (int i = 0; i < 30; ++i) det.feed(1.0);
  int onsets = 0;
  for (int i = 0; i < 5; ++i) {
    const auto r = det.feed(50.0);
    EXPECT_EQ(r.kind, OutlierKind::Spike);
    onsets += r.onset;
  }
  EXPECT_EQ(onsets, 1);
  // Episode ends, a new one starts.
  det.feed(1.0);
  EXPECT_TRUE(det.feed(50.0).onset);
}

TEST(OnlineDetector, NoDebounceReportsEveryBucket) {
  DetectorOptions opts;
  opts.debounce = false;
  OnlineDetector det(noise_profile(1.0, 3.0), 100, opts);
  for (int i = 0; i < 30; ++i) det.feed(1.0);
  int onsets = 0;
  for (int i = 0; i < 5; ++i) onsets += det.feed(50.0).onset;
  EXPECT_EQ(onsets, 5);
}

TEST(OnlineDetector, ReplacementKeepsBaselineDuringLongBurst) {
  // With replacement, a long fault burst cannot drag the median up; the
  // detector keeps flagging (paper's replacement strategy). Small window so
  // the no-replacement variant saturates quickly.
  DetectorOptions with, without;
  without.replacement = false;
  OnlineDetector a(noise_profile(1.0, 3.0), 16, with);
  OnlineDetector b(noise_profile(1.0, 3.0), 16, without);
  for (int i = 0; i < 20; ++i) {
    a.feed(1.0);
    b.feed(1.0);
  }
  int flagged_with = 0, flagged_without = 0;
  for (int i = 0; i < 40; ++i) {
    flagged_with += a.feed(30.0).kind == OutlierKind::Spike;
    flagged_without += b.feed(30.0).kind == OutlierKind::Spike;
  }
  EXPECT_EQ(flagged_with, 40);          // baseline intact
  EXPECT_LT(flagged_without, 30);       // burst swallowed its own baseline
}

TEST(OnlineDetector, DropoutDetectedWhenPeriodicGoesQuiet) {
  const auto prof = periodic_profile(/*period=*/3, /*mean=*/1.0);
  OnlineDetector det(prof, 100);
  // Healthy phase: one event every 3 buckets.
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  // Silence.
  bool dropout = false;
  for (int i = 0; i < 12; ++i) {
    const auto r = det.feed(0.0);
    if (r.kind == OutlierKind::Dropout) dropout = true;
  }
  EXPECT_TRUE(dropout);
}

TEST(OnlineDetector, DropoutOnsetDebounced) {
  const auto prof = periodic_profile(3, 1.0);
  OnlineDetector det(prof, 100);
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  int onsets = 0;
  for (int i = 0; i < 20; ++i) onsets += det.feed(0.0).onset;
  EXPECT_EQ(onsets, 1);
}

TEST(OnlineDetector, DropoutRecoversWhenTrafficReturns) {
  const auto prof = periodic_profile(3, 1.0);
  OnlineDetector det(prof, 100);
  for (int i = 0; i < 60; ++i) det.feed(i % 3 == 0 ? 3.0 : 0.0);
  for (int i = 0; i < 20; ++i) det.feed(0.0);
  // Traffic resumes; after a window of healthy counts no dropout reported.
  OutlierKind last = OutlierKind::Dropout;
  for (int i = 0; i < 30; ++i) last = det.feed(i % 3 == 0 ? 3.0 : 0.0).kind;
  EXPECT_NE(last, OutlierKind::Dropout);
}

// The spike path as specified, one sample at a time: every feed reads the
// lower median of an explicit trailing window (seeded with the profile
// median) and pushes the raw or replaced value, clamped as the counting
// median clamps. OnlineDetector owes the pushes of zeros that cannot be
// spikes and pays them in runs; it must return the same Results.
struct ReferenceDetector {
  SignalProfile profile;
  DetectorOptions options;
  std::size_t window;
  std::deque<double> w;
  bool in_spike = false;

  ReferenceDetector(const SignalProfile& p, std::size_t n, DetectorOptions o)
      : profile(p), options(o), window(n) {
    push(p.median);
  }
  void push(double x) {
    const double kmax = CountingSlidingMedian::kMaxValue;
    w.push_back(!(x > 0.0) ? 0.0 : x >= kmax ? kmax : std::floor(x));
    if (w.size() > window) w.pop_front();
  }
  OnlineDetector::Result feed(double y) {
    std::vector<double> s(w.begin(), w.end());
    std::sort(s.begin(), s.end());
    const double med = s[(s.size() - 1) / 2];
    OnlineDetector::Result r;
    if (y - med > profile.spike_delta) {
      r.replacement = med;
      r.kind = profile.cls == elsa::sigkit::SignalClass::Silent
                   ? OutlierKind::Occurrence
                   : OutlierKind::Spike;
      r.onset = options.debounce ? !in_spike : true;
      in_spike = true;
      push(options.replacement ? med : y);
    } else {
      r.replacement = y;
      in_spike = false;
      push(y);
    }
    return r;
  }
};

struct OwedZerosCase {
  SignalProfile profile;
  bool replacement;
};

class OwedZerosEquivalence : public ::testing::TestWithParam<OwedZerosCase> {};

TEST_P(OwedZerosEquivalence, MatchesEagerReference) {
  const auto& c = GetParam();
  DetectorOptions opts;
  opts.replacement = c.replacement;
  const std::size_t window = 63;
  Rng rng(c.replacement ? 77 : 78);
  for (int trial = 0; trial < 20; ++trial) {
    OnlineDetector det(c.profile, window, opts);
    ReferenceDetector ref(c.profile, window, opts);
    for (int step = 0; step < 600; ++step) {
      // Zero runs up to three windows long between mostly small counts,
      // with rare bursts, as an idle template's buckets look.
      std::size_t zeros = 0;
      if (rng.bernoulli(0.4)) zeros = rng.below(3 * window);
      const double u = rng.uniform();
      double y = std::floor(rng.uniform(0.0, 6.0));
      if (u < 0.05) y = std::floor(rng.uniform(20.0, 200.0));
      for (std::size_t i = 0; i <= zeros; ++i) {
        const double x = i < zeros ? 0.0 : y;
        const auto a = det.feed(x);
        const auto b = ref.feed(x);
        ASSERT_EQ(a.kind, b.kind) << "trial " << trial << " step " << step;
        ASSERT_EQ(a.onset, b.onset) << "trial " << trial << " step " << step;
        ASSERT_DOUBLE_EQ(a.replacement, b.replacement)
            << "trial " << trial << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, OwedZerosEquivalence,
    ::testing::Values(OwedZerosCase{silent_profile(), true},
                      OwedZerosCase{silent_profile(), false},
                      OwedZerosCase{noise_profile(2.0, 3.0), true},
                      OwedZerosCase{noise_profile(2.0, 3.0), false},
                      OwedZerosCase{noise_profile(4.0, -0.5), true}));

TEST(OnlineDetector, NegativeSpikeDeltaFiresOnZeroBucket) {
  // With a negative threshold, dist = 0 - median = 0 exceeds it: a zero
  // bucket is an outlier, so its push cannot be owed. A NaN threshold
  // never fires, on a zero or on anything else.
  auto prof = silent_profile();
  prof.spike_delta = -0.5;
  OnlineDetector det(prof, 16);
  const auto r = det.feed(0.0);
  EXPECT_EQ(r.kind, OutlierKind::Occurrence);
  EXPECT_TRUE(r.onset);
  prof.spike_delta = std::nan("");
  OnlineDetector nan_det(prof, 16);
  EXPECT_EQ(nan_det.feed(0.0).kind, OutlierKind::None);
  EXPECT_EQ(nan_det.feed(50.0).kind, OutlierKind::None);
}

TEST(OnlineDetector, KindNames) {
  EXPECT_STREQ(to_string(OutlierKind::Spike), "spike");
  EXPECT_STREQ(to_string(OutlierKind::Dropout), "dropout");
  EXPECT_STREQ(to_string(OutlierKind::Occurrence), "occurrence");
  EXPECT_STREQ(to_string(OutlierKind::None), "none");
}

}  // namespace
