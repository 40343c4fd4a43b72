// Radix-2 FFT and FFT-based autocorrelation, used by the signal classifier
// to find dominant periodicities (paper Fig 1: periodic vs noise classes).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace elsa::sigkit {

/// In-place iterative radix-2 Cooley–Tukey. `data.size()` must be a power
/// of two (use next_pow2 + zero padding); throws otherwise. Assumes finite
/// input: the butterfly multiplies without std::complex's inf/NaN recovery.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

std::size_t next_pow2(std::size_t n);

/// Biased autocorrelation r[k] for k in [0, max_lag], normalised so
/// r[0] == 1 (all-zero and constant input yield all-zero output). Computed
/// via FFT of the mean-removed series — O(n log n). `max_lag` is clamped to
/// n - 1; the series is zero-padded to next_pow2(n + max_lag + 1) points,
/// enough for the circular correlation to equal the linear one at every
/// returned lag, so short lag windows get a short transform.
std::vector<double> autocorrelation(const std::vector<double>& x,
                                    std::size_t max_lag);

}  // namespace elsa::sigkit
