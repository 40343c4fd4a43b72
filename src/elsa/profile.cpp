#include "elsa/profile.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace elsa::core {

// elsa-deterministic: every field it sets is serialised into the model
// that core::model_digest fingerprints.
SignalProfile build_profile(const std::vector<double>& train,
                            const ProfileConfig& cfg) {
  SignalProfile p;
  if (train.empty()) return p;

  const auto cls = sigkit::classify_signal(train, cfg.classifier);
  p.cls = cls.cls;
  p.period = cls.period;
  p.median = util::median(train);
  p.mad = util::mad(train);
  double sum = 0.0;
  for (double v : train) sum += v;
  p.mean = sum / static_cast<double>(train.size());

  switch (p.cls) {
    case sigkit::SignalClass::Silent:
      // Any occurrence is an anomaly.
      p.spike_delta = 0.5;
      break;
    case sigkit::SignalClass::Noise:
    case sigkit::SignalClass::Periodic:
      p.spike_delta = std::max(cfg.spike_sigmas * 1.4826 * p.mad,
                               cfg.spike_min_delta);
      break;
  }

  if (p.cls == sigkit::SignalClass::Periodic && p.period > 0) {
    const std::size_t window = std::min(
        static_cast<std::size_t>(cfg.dropout_periods *
                                 static_cast<double>(p.period)),
        kMaxDropoutWindow);
    const double expected = p.mean * static_cast<double>(window);
    if (expected >= cfg.dropout_min_expected) {
      p.dropout_window = window;
      p.dropout_min_count = cfg.dropout_fraction * expected;
    }
  }
  return p;
}

}  // namespace elsa::core
