// Per-signal characterisation produced by the offline phase (paper §III.A/B):
// the signal's class, its normal level, and the outlier thresholds derived
// from training data. The online outlier detector is configured exclusively
// from this profile — "we use predefined thresholds for each signal,
// specified automatically in the preprocessing step" (§III.B.1).
#pragma once

#include <cstddef>
#include <vector>

#include "signalkit/classify.hpp"

namespace elsa::core {

/// Longest dropout window a profile may carry: one week of 10 s buckets.
/// Training stays far below it (dropout_periods x the 2 h longest period);
/// load_model rejects a model past it, so a detector's dropout ring is
/// bounded whatever file it was loaded from.
inline constexpr std::size_t kMaxDropoutWindow = 60'480;

struct SignalProfile {
  sigkit::SignalClass cls = sigkit::SignalClass::Silent;
  double median = 0.0;       ///< training median of bucket counts
  double mad = 0.0;          ///< training MAD of bucket counts
  /// Spike gate: a bucket is an outlier when (count - running median) exceeds
  /// this delta.
  double spike_delta = 0.5;
  /// Dropout detection (periodic signals only): rolling window length in
  /// samples (at most kMaxDropoutWindow) and the minimum expected count;
  /// 0 disables.
  std::size_t dropout_window = 0;
  double dropout_min_count = 0.0;
  /// Detected base period in samples (periodic signals only).
  std::size_t period = 0;
  /// Mean bucket count over training (for docs and dropout expectation).
  double mean = 0.0;
};

struct ProfileConfig {
  sigkit::ClassifierConfig classifier;
  /// Spike gate = max(spike_sigmas * 1.4826 * MAD, spike_min_delta).
  double spike_sigmas = 4.0;
  double spike_min_delta = 2.5;
  /// Dropout window = dropout_periods * detected period.
  double dropout_periods = 3.0;
  /// Dropout triggers when window sum < dropout_fraction * expected.
  double dropout_fraction = 0.25;
  /// Dropouts are only meaningful when the expected count per window is at
  /// least this (aggregated many-emitter signals never qualify — one quiet
  /// emitter cannot be seen in the aggregate, as DESIGN.md discusses).
  double dropout_min_expected = 2.0;
};

/// Characterise one signal from its training samples.
SignalProfile build_profile(const std::vector<double>& train,
                            const ProfileConfig& cfg = {});

}  // namespace elsa::core
