#include "elsa/online.hpp"

#include <algorithm>

namespace elsa::core {

double EngineStats::mean_analysis_ms() const {
  if (analysis_window_ms.empty()) return 0.0;
  double s = 0.0;
  for (float v : analysis_window_ms) s += v;
  return s / static_cast<double>(analysis_window_ms.size());
}

double EngineStats::max_analysis_ms() const {
  double m = 0.0;
  for (float v : analysis_window_ms) m = std::max(m, static_cast<double>(v));
  return m;
}

ModelState ModelState::build(std::vector<Chain> chains,
                             std::vector<SignalProfile> profiles) {
  ModelState m;
  m.chains = std::move(chains);
  m.profiles = std::move(profiles);
  m.early_prefix_counts.assign(m.chains.size(), 0);
  for (std::size_t c = 0; c < m.chains.size(); ++c) {
    const Chain& chain = m.chains[c];
    if (!chain.predictive()) continue;
    const std::int32_t fail_delay =
        chain.items[static_cast<std::size_t>(chain.failure_item)].delay;
    for (std::size_t j = 0;
         j < static_cast<std::size_t>(chain.failure_item); ++j) {
      m.triggers[chain.items[j].signal].push_back({c, j});
      if (fail_delay - chain.items[j].delay >= 2) ++m.early_prefix_counts[c];
    }
  }
  return m;
}

OnlineEngine::OnlineEngine(const topo::Topology& topo,
                           std::vector<Chain> chains,
                           std::vector<SignalProfile> profiles,
                           EngineConfig cfg)
    : topo_(topo),
      owned_(std::make_unique<const ModelState>(
          ModelState::build(std::move(chains), std::move(profiles)))),
      model_(owned_.get()),
      cfg_(cfg) {
  chain_fires_.assign(model_->chains.size(), 0);
  pending_.resize(model_->chains.size());
  detectors_.reserve(model_->profiles.size());
  for (const auto& p : model_->profiles)
    detectors_.emplace_back(p, cfg_.median_window, cfg_.detector);
  slots_.resize(detectors_.size());
}

void OnlineEngine::swap_model(const ModelState* m) {
  model_ = m;
  // Chain ids are indexes into the new model's chain vector: pending
  // partial matches and fire counts keyed by the old ids are void.
  pending_.assign(model_->chains.size(), {});
  chain_fires_.assign(model_->chains.size(), 0);
  // Detector histories survive for templates both models know — the
  // observed signal stream did not change, only the rules reading it. New
  // templates get fresh detectors from the new model's profiles.
  for (std::size_t t = detectors_.size(); t < model_->profiles.size(); ++t)
    detectors_.emplace_back(model_->profiles[t], cfg_.median_window,
                            cfg_.detector);
  slots_.resize(detectors_.size());
}

void OnlineEngine::ensure_detector(std::uint32_t tmpl) {
  while (detectors_.size() <= tmpl) {
    // Event type first seen online (new software version, new component):
    // treat as a silent signal until the next offline phase characterises it.
    SignalProfile p;
    p.cls = sigkit::SignalClass::Silent;
    p.spike_delta = 0.5;
    // elsa-lint: allow(realtime-allocates): grows once per never-seen
    // template id — a model-size event, not a per-record one.
    detectors_.emplace_back(p, cfg_.median_window, cfg_.detector);
    // elsa-lint: allow(realtime-allocates): same model-size growth.
    slots_.emplace_back();
  }
}

// elsa-realtime: the per-record ingest hot loop — only reused scratch and
// bounded accumulators grow, each behind a reasoned allow at its site.
// elsa-deterministic: output depends only on the records and the model.
void OnlineEngine::feed(const simlog::LogRecord& rec, std::uint32_t tmpl) {
  ++stats_.records;

  if (cfg_.raw_event_matching) {
    // DM baseline: every record is a potential rule antecedent. A record
    // behind the latest one seen is clamped forward so the trigger sample
    // and queue clock never move backwards.
    std::int64_t t_ms = rec.time_ms;
    if (started_ && t_ms < last_time_ms_) {
      ++stats_.out_of_order;
      t_ms = last_time_ms_;
    } else {
      last_time_ms_ = t_ms;
      started_ = true;
    }
    double service = cfg_.cost.per_event_ms;
    const auto it = model_->triggers.find(tmpl);
    std::size_t fanout = it == model_->triggers.end() ? 0 : it->second.size();
    service += static_cast<double>(fanout) * cfg_.cost.per_chain_trigger_ms;
    server_free_ms_ =
        std::max(server_free_ms_, static_cast<double>(t_ms)) + service;
    if (fanout > 0) {
      ++stats_.raw_triggers;
      scratch_nodes_.clear();
      // elsa-lint: allow(realtime-allocates): one int into a reused
      // scratch buffer — capacity survives clear(), steady state is free.
      if (rec.node_id >= 0) scratch_nodes_.push_back(rec.node_id);
      const std::int32_t sample =
          static_cast<std::int32_t>(t_ms / cfg_.dt_ms);
      for (const Trigger& tr : it->second)
        trigger_chain(tr, sample, t_ms,
                      static_cast<std::int64_t>(server_free_ms_),
                      scratch_nodes_);
    }
    return;
  }

  if (!started_) {
    bucket_start_ms_ = rec.time_ms / cfg_.dt_ms * cfg_.dt_ms;
    started_ = true;
  }
  // A record that arrives after its bucket closed (small skew from a
  // concurrent ingest path) is attributed to the open bucket: its count
  // still contributes to the signal, one sample late at worst.
  std::int64_t t_ms = rec.time_ms;
  if (t_ms < bucket_start_ms_) {
    ++stats_.out_of_order;
    t_ms = bucket_start_ms_;
  }
  close_buckets_through(t_ms);

  // Queue cost of ingesting the record itself.
  server_free_ms_ =
      std::max(server_free_ms_, static_cast<double>(t_ms)) +
      cfg_.cost.per_event_ms;

  ensure_detector(tmpl);
  Slot& slot = slots_[tmpl];
  ++slot.count;
  const auto seen = slot.nodes.begin() + slot.n_nodes;
  if (rec.node_id >= 0 && slot.n_nodes < slot.nodes.size() &&
      std::find(slot.nodes.begin(), seen, rec.node_id) == seen)
    slot.nodes[slot.n_nodes++] = rec.node_id;
}

void OnlineEngine::close_buckets_through(std::int64_t t_ms) {
  while (started_ && t_ms >= bucket_start_ms_ + cfg_.dt_ms) close_one_bucket();
}

void OnlineEngine::close_one_bucket() {
  const std::int64_t bucket_end = bucket_start_ms_ + cfg_.dt_ms;
  ++stats_.buckets;

  double work_ms = 0.0;
  scratch_onsets_.clear();

  for (std::uint32_t tmpl = 0; tmpl < detectors_.size(); ++tmpl) {
    // Called through a reference so that elsa-lint resolves the call.
    OnlineDetector& det = detectors_[tmpl];
    const auto r = det.feed(static_cast<double>(slots_[tmpl].count));
    if (r.kind != OutlierKind::None && r.onset) {
      ++stats_.outlier_onsets;
      // elsa-lint: allow(realtime-allocates): amortised — grows to the peak
      // onsets-per-bucket once, then is reused forever.
      scratch_onsets_.push_back(tmpl);
      work_ms += cfg_.cost.per_outlier_ms;
      const auto trig = model_->triggers.find(tmpl);
      if (trig != model_->triggers.end())
        work_ms += static_cast<double>(trig->second.size()) *
                   cfg_.cost.per_chain_trigger_ms;
    }
  }

  if (!scratch_onsets_.empty()) {
    // The outlier batch enters the analysis queue when the bucket closes.
    const double completion =
        std::max(server_free_ms_, static_cast<double>(bucket_end)) + work_ms;
    server_free_ms_ = completion;
    const double window = completion - static_cast<double>(bucket_end);
    // elsa-lint: allow(realtime-allocates): the §VI.A per-bucket metric —
    // one float per outlier-bearing bucket, an output the caller reads.
    stats_.analysis_window_ms.push_back(static_cast<float>(window));

    for (const std::uint32_t tmpl : scratch_onsets_) {
      const auto trig = model_->triggers.find(tmpl);
      if (trig == model_->triggers.end()) continue;
      // A dropout onset on an idle template carries no nodes.
      const Slot& slot = slots_[tmpl];
      // elsa-lint: allow(realtime-allocates): at most eight ids into the
      // reused scratch buffer; capacity survives assign().
      scratch_nodes_.assign(slot.nodes.begin(),
                            slot.nodes.begin() + slot.n_nodes);
      const std::int32_t sample =
          static_cast<std::int32_t>((bucket_end - cfg_.dt_ms) / cfg_.dt_ms);
      for (const Trigger& tr : trig->second)
        trigger_chain(tr, sample, bucket_end,
                      static_cast<std::int64_t>(completion), scratch_nodes_);
    }
  }

  for (Slot& slot : slots_) {
    slot.count = 0;
    slot.n_nodes = 0;
  }
  bucket_start_ms_ = bucket_end;
}

void OnlineEngine::trigger_chain(const Trigger& tr, std::int32_t sample,
                                 std::int64_t trigger_ms,
                                 std::int64_t issue_ms,
                                 const std::vector<std::int32_t>& nodes) {
  const Chain& chain = model_->chains[tr.chain_id];
  if (model_->early_prefix_counts[tr.chain_id] < cfg_.min_prefix_matches ||
      cfg_.min_prefix_matches <= 1) {
    emit(tr.chain_id, tr.item_index, trigger_ms, issue_ms, nodes);
    return;
  }

  auto& pend = pending_[tr.chain_id];
  // Drop stale partials (older than the chain span plus slack).
  const std::int32_t horizon = chain.span() + 2 * cfg_.tolerance + 6;
  std::erase_if(pend, [&](const Pending& p) {
    return sample - p.sample > horizon;
  });

  // Does this observation confirm an earlier prefix item?
  const std::int32_t my_delay = chain.items[tr.item_index].delay;
  for (std::size_t i = 0; i < pend.size(); ++i) {
    const Pending& p = pend[i];
    if (p.item_index >= tr.item_index) continue;
    const std::int32_t expected =
        my_delay - chain.items[p.item_index].delay;
    const std::int32_t tol =
        cfg_.tolerance +
        static_cast<std::int32_t>(0.08 * static_cast<double>(expected));
    if (std::abs((sample - p.sample) - expected) > tol) continue;
    // Confirmed: merge observed locations, alarm from the later item.
    std::vector<std::int32_t> merged = p.nodes;
    for (const std::int32_t n : nodes)
      if (std::find(merged.begin(), merged.end(), n) == merged.end())
        // elsa-lint: allow(realtime-allocates): merging two <=8-id
        // location sets on the rare confirmed-prefix path.
        merged.push_back(n);
    pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(i));
    emit(tr.chain_id, tr.item_index, trigger_ms, issue_ms, merged);
    return;
  }
  // First sighting: remember it and wait for corroboration.
  // elsa-lint: allow(realtime-allocates): bounded pending set — at most 64
  // partial matches are remembered per chain.
  if (pend.size() < 64) pend.push_back({sample, tr.item_index, nodes});
}

void OnlineEngine::emit(std::size_t chain_id, std::size_t item_index,
                        std::int64_t trigger_ms, std::int64_t issue_ms,
                        const std::vector<std::int32_t>& nodes) {
  const Chain& chain = model_->chains[chain_id];
  ++chain_fires_[chain_id];

  Prediction p;
  p.trigger_time_ms = trigger_ms;
  p.issue_time_ms = issue_ms;
  const std::int32_t remaining =
      chain.items[static_cast<std::size_t>(chain.failure_item)].delay -
      chain.items[item_index].delay;
  p.lead_ms = static_cast<std::int64_t>(remaining) * cfg_.dt_ms;
  p.predicted_time_ms = trigger_ms + p.lead_ms;
  p.tmpl = chain.items[static_cast<std::size_t>(chain.failure_item)].signal;
  p.chain_id = chain_id;
  p.confidence = chain.confidence;
  if (cfg_.use_location) {
    p.nodes = nodes;
    p.scope = chain.location.scope == topo::Scope::None
                  ? topo::Scope::Node
                  : chain.location.scope;
  } else {
    p.scope = topo::Scope::System;
  }

  // Dedupe: same predicted template, overlapping time window, overlapping
  // location -> one prediction.
  const std::int64_t window_ms = cfg_.dedupe_window_samples * cfg_.dt_ms;
  for (auto it = predictions_.rbegin(); it != predictions_.rend(); ++it) {
    if (trigger_ms - it->trigger_time_ms > window_ms) break;
    if (it->tmpl != p.tmpl) continue;
    if (std::llabs(it->predicted_time_ms - p.predicted_time_ms) > window_ms)
      continue;
    // Location overlap.
    bool overlap = it->nodes.empty() || p.nodes.empty();
    if (!overlap) {
      const auto wide = static_cast<int>(std::max(it->scope, p.scope));
      for (const std::int32_t a : it->nodes) {
        for (const std::int32_t b : p.nodes) {
          if (static_cast<int>(topo_.common_scope(a, b)) <= wide) {
            overlap = true;
            break;
          }
        }
        if (overlap) break;
      }
    }
    if (overlap) {
      ++stats_.duplicates_suppressed;
      return;
    }
  }

  // elsa-lint: allow(realtime-allocates): the engine's output accumulator
  // — one Prediction per emitted alarm, read back by the caller.
  predictions_.push_back(std::move(p));
  ++stats_.predictions_emitted;
}

void OnlineEngine::finish(std::int64_t t_end_ms) {
  if (!cfg_.raw_event_matching) close_buckets_through(t_end_ms);
  std::size_t used = 0;
  for (const std::size_t f : chain_fires_)
    if (f > 0) ++used;
  stats_.chains_used = used;
}

}  // namespace elsa::core
