#include "signalkit/classify.hpp"

#include <algorithm>

#include "signalkit/fft.hpp"

namespace elsa::sigkit {

const char* to_string(SignalClass c) {
  switch (c) {
    case SignalClass::Periodic: return "periodic";
    case SignalClass::Noise: return "noise";
    case SignalClass::Silent: return "silent";
  }
  return "?";
}

// elsa-deterministic: the class and period it returns are folded by
// core::model_digest, so equal samples must give equal decisions.
ClassifyResult classify_signal(const std::vector<double>& x,
                               const ClassifierConfig& cfg) {
  ClassifyResult r;
  if (x.empty()) return r;

  std::size_t nonzero = 0;
  for (double v : x)
    if (v != 0.0) ++nonzero;
  r.occupancy = static_cast<double>(nonzero) / static_cast<double>(x.size());
  if (r.occupancy <= cfg.silent_occupancy) {
    r.cls = SignalClass::Silent;
    return r;
  }

  const std::size_t max_lag = std::min(cfg.max_period, x.size() / 2);
  auto acf = autocorrelation(x, max_lag);
  // Real heartbeats jitter by a sample or two, smearing the ACF peak over
  // neighbouring lags; a narrow triangular smoothing restores it.
  if (acf.size() > 4) {
    std::vector<double> smooth(acf.size());
    for (std::size_t k = 1; k + 1 < acf.size(); ++k)
      smooth[k] = 0.25 * acf[k - 1] + 0.5 * acf[k] + 0.25 * acf[k + 1];
    smooth[0] = acf[0];
    smooth.back() = acf.back();
    acf = std::move(smooth);
  }
  // Find the dominant peak beyond trivial short-lag correlation. Require a
  // local maximum so a slowly decaying ACF (bursty noise) does not read as
  // periodic. An exactly periodic train peaks at every multiple of its
  // period, so take the EARLIEST local max comparable to the global one —
  // that is the fundamental.
  double global_peak = 0.0;
  for (std::size_t k = std::max<std::size_t>(cfg.min_period, 2);
       k + 1 < acf.size(); ++k)
    if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1])
      global_peak = std::max(global_peak, acf[k]);
  for (std::size_t k = std::max<std::size_t>(cfg.min_period, 2);
       k + 1 < acf.size(); ++k) {
    if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
        acf[k] >= 0.85 * global_peak) {
      r.acf_peak = acf[k];
      r.period = k;
      break;
    }
  }
  r.cls = r.acf_peak >= cfg.periodic_acf_threshold ? SignalClass::Periodic
                                                   : SignalClass::Noise;
  if (r.cls != SignalClass::Periodic) r.period = 0;
  return r;
}

}  // namespace elsa::sigkit
