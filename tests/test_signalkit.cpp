// Signal-toolkit tests: sampling, FFT (round-trip, correctness on known
// spectra), autocorrelation, and the periodic/noise/silent classifier on
// synthetic signals of each class.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "signalkit/classify.hpp"
#include "signalkit/fft.hpp"
#include "signalkit/signal.hpp"
#include "util/rng.hpp"

namespace {

using namespace elsa::sigkit;
using elsa::util::Rng;

TEST(SignalSet, BucketsEvents) {
  SignalSet set(0, 100'000, 10'000, 2);
  EXPECT_EQ(set.samples(), 10u);
  set.add_event(0, 5'000);
  set.add_event(0, 9'999);
  set.add_event(0, 10'000);
  set.add_event(1, 99'999);
  set.add_event(1, 100'000);  // out of range, dropped
  set.add_event(7, 0);        // unknown type, dropped
  EXPECT_FLOAT_EQ(set.signal(0).v[0], 2.0f);
  EXPECT_FLOAT_EQ(set.signal(0).v[1], 1.0f);
  EXPECT_FLOAT_EQ(set.signal(1).v[9], 1.0f);
}

TEST(Signal, SliceAndIndexing) {
  Signal s;
  s.t0_ms = 1000;
  s.dt_ms = 10;
  s.v = {0, 1, 2, 3, 4};
  EXPECT_EQ(s.time_of(2), 1020);
  EXPECT_EQ(s.index_of(1025), 2);
  EXPECT_EQ(s.index_of(0), 0);       // clamped
  EXPECT_EQ(s.index_of(999999), 4);  // clamped
  const auto sub = s.slice(1, 3);
  EXPECT_EQ(sub.t0_ms, 1010);
  ASSERT_EQ(sub.v.size(), 2u);
  EXPECT_FLOAT_EQ(sub.v[0], 1.0f);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> v(3);
  EXPECT_THROW(fft(v), std::invalid_argument);
}

TEST(Fft, RoundTripRestoresInput) {
  Rng rng(4);
  std::vector<std::complex<double>> v(256);
  for (auto& c : v) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = v;
  fft(v);
  fft(v, /*inverse=*/true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-9);
  }
}

TEST(Fft, SineSpectrumPeaksAtFrequencyBin) {
  const std::size_t n = 512;
  const double k = 16;  // cycles over the window
  std::vector<std::complex<double>> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = {std::sin(2.0 * std::numbers::pi * k * static_cast<double>(i) /
                     static_cast<double>(n)),
            0.0};
  fft(v);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i <= n / 2; ++i)
    if (std::norm(v[i]) > std::norm(v[argmax])) argmax = i;
  EXPECT_EQ(argmax, 16u);
}

TEST(Fft, AutocorrelationOfPeriodicSignalPeaksAtPeriod) {
  const std::size_t n = 2048, period = 24;
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; i += period) x[i] = 1.0;
  const auto acf = autocorrelation(x, 100);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  EXPECT_GT(acf[period], 0.8);
  EXPECT_LT(acf[period / 2], 0.3);
}

TEST(Fft, AutocorrelationOfConstantIsZero) {
  // 0.1 and 3.7 have inexact means: the residue must not be normalised
  // into a spurious correlation of 1.
  for (const std::size_t n : {1u, 2u, 3u, 33u, 128u, 1000u}) {
    for (const double c : {0.0, 5.0, 0.1, 3.7, -2.25}) {
      const std::vector<double> x(n, c);
      for (const std::size_t lag :
           {std::size_t{0}, std::size_t{10}, n / 2, n + 5}) {
        const auto acf = autocorrelation(x, lag);
        ASSERT_EQ(acf.size(), std::min(lag, n - 1) + 1);
        for (double v : acf)
          ASSERT_EQ(v, 0.0) << "n=" << n << " c=" << c << " lag=" << lag;
      }
    }
  }
}

// Direct O(n * L) biased autocorrelation of the mean-removed series,
// normalised by lag 0 — the definition the FFT path must reproduce.
std::vector<double> direct_autocorrelation(const std::vector<double>& x,
                                           std::size_t max_lag) {
  const std::size_t n = x.size();  // n >= 1
  max_lag = std::min(max_lag, n - 1);
  std::vector<double> r(max_lag + 1, 0.0);
  double m = 0.0;
  for (double v : x) m += v;
  m /= static_cast<double>(n);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = x[i] - m;
  for (std::size_t k = 0; k <= max_lag; ++k)
    for (std::size_t i = 0; i + k < n; ++i) r[k] += c[i] * c[i + k];
  const double r0 = r[0];
  if (r0 <= 0.0) return std::vector<double>(max_lag + 1, 0.0);  // constant
  for (double& v : r) v /= r0;
  return r;
}

TEST(Fft, AutocorrelationMatchesDirectSumAtEveryLagWindow) {
  // The transform size follows n + max_lag + 1, so each lag window gets
  // its own padding; every one, down to the smallest transforms, must
  // agree with the direct sum.
  Rng rng(31);
  for (const std::size_t n :
       {1u, 2u, 3u, 31u, 32u, 33u, 1000u, 4097u, 34560u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = static_cast<double>(rng.poisson(1.5));
    // n + 5 exercises the clamp of max_lag to n - 1.
    for (const std::size_t lag :
         {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n + 5}) {
      const auto got = autocorrelation(x, lag);
      const auto want = direct_autocorrelation(x, lag);
      ASSERT_EQ(got.size(), std::min(lag, n - 1) + 1);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_NEAR(got[k], want[k], 1e-12)
            << "n=" << n << " max_lag=" << lag << " k=" << k;
    }
  }
}

// ---- classifier on the three synthetic classes of paper Fig 1 ----------

std::vector<double> synth_periodic(std::size_t n, std::size_t period,
                                   Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; i += period)
    x[std::min(n - 1, i + (rng.below(2)))] = 3.0 + rng.uniform(0, 1);
  return x;
}

std::vector<double> synth_noise(std::size_t n, Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (auto& v : x) v = static_cast<double>(rng.poisson(2.0));
  return x;
}

std::vector<double> synth_silent(std::size_t n, Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (int k = 0; k < 4; ++k) x[rng.below(n)] = 1.0;
  return x;
}

class ClassifierSeeds : public ::testing::TestWithParam<int> {};

TEST_P(ClassifierSeeds, ThreeClassesSeparate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto p = classify_signal(synth_periodic(4096, 30, rng));
  EXPECT_EQ(p.cls, SignalClass::Periodic) << "seed " << GetParam();
  EXPECT_NEAR(static_cast<double>(p.period), 30.0, 2.0);

  const auto nz = classify_signal(synth_noise(4096, rng));
  EXPECT_EQ(nz.cls, SignalClass::Noise);

  const auto s = classify_signal(synth_silent(4096, rng));
  EXPECT_EQ(s.cls, SignalClass::Silent);
  EXPECT_LT(s.occupancy, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierSeeds, ::testing::Range(1, 9));

TEST(Classifier, EmptySignalIsSilent) {
  const auto r = classify_signal(std::vector<double>{});
  EXPECT_EQ(r.cls, SignalClass::Silent);
}

TEST(Classifier, ToString) {
  EXPECT_STREQ(to_string(SignalClass::Periodic), "periodic");
  EXPECT_STREQ(to_string(SignalClass::Noise), "noise");
  EXPECT_STREQ(to_string(SignalClass::Silent), "silent");
}

}  // namespace
