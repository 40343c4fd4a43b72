#include "signalkit/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace elsa::sigkit {

namespace {

/// x * y for finite operands: the four products and two sums that
/// std::complex's operator* (via __muldc3) returns when nothing is inf or
/// NaN, without the library call or its recovery branch.
std::complex<double> mul(std::complex<double> x, std::complex<double> y) {
  return {x.real() * y.real() - x.imag() * y.imag(),
          x.real() * y.imag() + x.imag() * y.real()};
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  if (n == 0) return;
  if ((n & (n - 1)) != 0)
    throw std::invalid_argument("fft: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // One twiddle table per stage, shared by every block of that stage.
  std::vector<std::complex<double>> tw(n / 2);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      tw[k] = w;
      w = mul(w, wlen);
    }
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double>* lo = a.data() + i;
      std::complex<double>* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = lo[k];
        const std::complex<double> v = mul(hi[k], tw[k]);
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

// elsa-deterministic: the ACF that classify_signal reads each profile's
// class and period from, both folded by core::model_digest.
std::vector<double> autocorrelation(const std::vector<double>& x,
                                    std::size_t max_lag) {
  const std::size_t n = x.size();
  max_lag = std::min(max_lag, n > 0 ? n - 1 : 0);
  std::vector<double> r(max_lag + 1, 0.0);
  if (n == 0) return r;
  // A constant series is all zeros once its mean is removed; testing it
  // directly avoids normalising by a rounding residue of the mean.
  if (std::all_of(x.begin(), x.end(), [&](double v) { return v == x[0]; }))
    return r;

  double sum = 0.0;
  for (double v : x) sum += v;
  const double m = sum / static_cast<double>(n);
  // Circular correlation over N points equals the linear one at lag k when
  // N >= n + k, so lags [0, max_lag] need only n + max_lag + 1 points.
  const std::size_t nfft = next_pow2(n + max_lag + 1);
  std::vector<std::complex<double>> buf(nfft, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) buf[i] = {x[i] - m, 0.0};
  fft(buf);
  for (auto& c : buf) c = std::norm(c);
  fft(buf, /*inverse=*/true);

  const double r0 = buf[0].real();
  if (r0 <= 0.0) return r;
  for (std::size_t k = 0; k <= max_lag; ++k) r[k] = buf[k].real() / r0;
  return r;
}

}  // namespace elsa::sigkit
