// Traced replay of the offline phase, one public function per stage, on
// the artefacts train_offline keeps in the model (train_outliers,
// train_events, seeds). Each stage gets its own span; the replay must
// reproduce train_offline's seeds and (via the model digest) its templates,
// profiles, severities and annotated chains exactly.
#include <algorithm>

#include "bench.hpp"
#include "elsa/model_io.hpp"

namespace elsabench {

namespace {

bool same_seeds(const std::vector<sigkit::PairCorrelation>& x,
                const std::vector<sigkit::PairCorrelation>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const auto& a, const auto& b) {
                      return a.a == b.a && a.b == b.b && a.delay == b.delay &&
                             a.support == b.support &&
                             a.confidence == b.confidence &&
                             a.significance == b.significance;
                    });
}

}  // namespace

OfflineReplay replay_offline(const Load& load, const core::OfflineModel& model,
                             const core::PipelineConfig& cfg, Tracer& tr) {
  Span all(tr, "train.replay");
  const simlog::Trace& trace = load.trace;
  core::OfflineModel re = model;
  OfflineReplay out;

  std::vector<std::uint32_t> tids;
  {
    Span s(tr, "helo.classify");
    re.helo = helo::TemplateMiner();
    for (const auto& rec : trace.records) {
      if (rec.time_ms >= load.train_end_ms) break;
      tids.push_back(re.helo.classify(rec.message));
    }
  }
  const std::size_t T = re.helo.size();
  out.train_records = tids.size();

  Span sig(tr, "elsa.train.signals");
  sigkit::SignalSet signals(trace.t_begin_ms, load.train_end_ms, cfg.dt_ms, T);
  for (std::size_t i = 0; i < tids.size(); ++i)
    signals.add_event(tids[i], trace.records[i].time_ms);
  sig.close();

  {
    Span s(tr, "elsa.train.profile");
    for (std::size_t t = 0; t < T && t < re.profiles.size(); ++t)
      re.profiles[t] =
          core::build_profile(signals.signal(t).as_doubles(), cfg.profile);
    re.tmpl_severity =
        core::majority_severity(T, tids, trace.records, tids.size());
  }

  {
    Span s(tr, "elsa.train.outliers");
    std::vector<sigkit::OutlierStream> streams(T);
    for (std::size_t t = 0; t < T && t < re.profiles.size(); ++t) {
      core::OnlineDetector det(re.profiles[t], cfg.engine.median_window,
                               cfg.engine.detector);
      const auto& v = signals.signal(t).v;
      for (std::size_t i = 0; i < v.size(); ++i) {
        const auto r = det.feed(v[i]);
        if (r.kind != core::OutlierKind::None && r.onset)
          streams[t].push_back(static_cast<std::int32_t>(i));
      }
    }
    if (streams != model.train_outliers) out.mismatch = "outlier streams";
  }

  std::vector<sigkit::PairCorrelation> seeds;
  {
    Span s(tr, "signalkit.xcorr");
    sigkit::XcorrConfig xc = cfg.xcorr;
    xc.total_samples = signals.samples();
    seeds = sigkit::correlate_all(model.train_outliers, xc, cfg.threads);
  }
  if (out.mismatch.empty() && !same_seeds(seeds, model.seeds))
    out.mismatch = "xcorr seeds";

  {
    Span s(tr, "elsa.train.grite");
    core::GriteConfig gc = cfg.grite;
    gc.total_samples = signals.samples();
    gc.threads = cfg.threads;
    re.chains = core::mine_gradual_itemsets(model.train_outliers, model.seeds,
                                            gc);
  }
  {
    Span s(tr, "elsa.train.location");
    re.non_error_chains =
        core::annotate_failure_items(re.chains, re.tmpl_severity);
    core::LocationConfig lc;
    lc.tolerance = cfg.grite.tolerance;
    core::annotate_locations(re.chains, model.train_events, trace.topology,
                             lc);
  }
  if (out.mismatch.empty() &&
      (re.non_error_chains != model.non_error_chains ||
       core::model_digest(re) != core::model_digest(model)))
    out.mismatch = "model digest (templates, profiles or chains)";
  out.identical = out.mismatch.empty();
  return out;
}

}  // namespace elsabench
