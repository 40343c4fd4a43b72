// Correctness references: the single-engine alarm replay the sharded
// service is compared against, and the batch miner fold the MinerService's
// final model digest must equal.
#include <algorithm>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "elsa/model_io.hpp"
#include "mining/miner.hpp"

namespace elsabench {

Reference reference_replay(const Load& load, const core::OfflineModel& model,
                           Tracer& tr) {
  Span all(tr, "check.reference");
  // Same template ids as the service: classify_const, with unseen messages
  // mapped to the one reserved id PredictionService uses.
  const auto unknown = static_cast<std::uint32_t>(
      std::max(model.helo.size(), model.profiles.size()));
  std::vector<std::uint32_t> tids(load.window.size());
  {
    Span s(tr, "helo.classify_const");
    for (std::size_t i = 0; i < load.window.size(); ++i) {
      const std::uint32_t t = model.helo.classify_const(load.window[i]->message);
      tids[i] = t == helo::TemplateMiner::kNoTemplate ? unknown : t;
    }
  }
  core::OnlineEngine engine(load.trace.topology, model.chains, model.profiles,
                            service_config().engine);
  {
    Span s(tr, "elsa.engine.feed");
    for (std::size_t i = 0; i < load.window.size(); ++i)
      engine.feed(*load.window[i], tids[i]);
    engine.finish(load.trace.t_end_ms);
  }
  Reference ref;
  ref.predictions = engine.predictions();
  ref.stats = engine.stats();
  ref.classify_const_seconds = tr.seconds("helo.classify_const");
  ref.feed_seconds = tr.seconds("elsa.engine.feed");
  return ref;
}

std::size_t alarms_diverged(std::vector<core::Prediction> a,
                            std::vector<core::Prediction> b) {
  // Alarm identity: everything a prediction says, in one total order.
  const auto key = [](const core::Prediction& p) {
    return std::tie(p.trigger_time_ms, p.predicted_time_ms, p.tmpl,
                    p.chain_id, p.nodes, p.scope, p.lead_ms);
  };
  const auto less = [&](const core::Prediction& x, const core::Prediction& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  std::size_t only_a = 0, only_b = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    if (j == b.end() || (i != a.end() && less(*i, *j))) {
      ++only_a;
      ++i;
    } else if (i == a.end() || less(*j, *i)) {
      ++only_b;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return only_a + only_b;
}

BatchMine batch_mine(const Load& load, Tracer& tr) {
  Span all(tr, "check.batch_mine");
  BatchMine out;
  helo::TemplateMiner classifier;
  std::vector<serve::ClassifiedEvent> events;
  events.reserve(load.window.size());
  {
    Span s(tr, "helo.classify");
    for (const simlog::LogRecord* rec : load.window)
      events.push_back({rec->time_ms, rec->node_id,
                        classifier.classify(rec->message),
                        static_cast<std::uint8_t>(rec->severity)});
  }
  std::stable_sort(events.begin(), events.end(), mining::canonical_less);
  mining::OnlineMiner miner;  // the MinerService's default MinerConfig
  {
    Span s(tr, "mining.fold");
    for (const auto& e : events) miner.fold(e);
  }
  core::OfflineModel model;
  {
    Span s(tr, "mining.build_model");
    model = miner.build_model(&classifier);
  }
  std::ostringstream state;
  {
    Span s(tr, "mining.save_state");
    miner.save_state(state);
  }
  out.digest = core::model_digest(model);
  out.events = events.size();
  out.templates = classifier.size();
  out.chains = model.chains.size();
  out.state_bytes = state.str().size();
  out.classify_seconds = tr.seconds("helo.classify");
  out.fold_seconds = tr.seconds("mining.fold");
  out.build_seconds = tr.seconds("mining.build_model");
  out.save_seconds = tr.seconds("mining.save_state");
  return out;
}

}  // namespace elsabench
