#include "mining/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "elsa/model_io.hpp"

namespace elsa::mining {

MinerService::MinerService(const topo::Topology& topo, MinerServiceConfig cfg)
    : live_(cfg.classifier),
      hub_(std::make_unique<const core::ModelState>(
          core::ModelState::build({}, {}))),
      publish_every_(cfg.publish_every) {
  // Mirror the sharded engine's reader-slot clamp so ring index == shard
  // index == hub reader slot.
  const std::size_t shards = std::min(
      std::max<std::size_t>(1, cfg.serve.shards), serve::ModelHub::kMaxReaders);
  cfg.serve.shards = shards;
  rings_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    rings_.push_back(std::make_unique<serve::SpscRing<serve::ClassifiedEvent>>(
        cfg.ring_capacity));
  miner_ = OnlineMiner(cfg.miner);

  cfg.serve.live_classifier = &live_;
  cfg.serve.hub = &hub_;
  cfg.serve.event_tap = this;
  service_ = std::make_unique<serve::PredictionService>(topo, empty_model_,
                                                        cfg.serve);
  metrics_ = &service_->raw_metrics();

  // Watermark domain: only shards some partition key actually routes to.
  // An unreachable shard's clock never advances; including it would pin
  // the watermark at -inf and starve the fold until finish().
  reachable_.assign(shards, false);
  reachable_[service_->shard_of(-1)] = true;
  for (std::int32_t n = 0; n < topo.total_nodes(); ++n)
    reachable_[service_->shard_of(n)] = true;
  shard_clock_.assign(shards, std::numeric_limits<std::int64_t>::min());
  pending_.resize(shards);

  pump_ = std::thread([this] { pump_loop(); });
}

MinerService::~MinerService() {
  if (!finished_) {
    // Abandoned teardown: unblock any worker parked in a ring push first
    // (its publish becomes a no-op), then retire the pump. service_ (the
    // last-declared member) destroys before the rings it may still touch.
    for (auto& r : rings_) r->close();
    stop_.store(true, std::memory_order_release);
  }
  if (pump_.joinable()) pump_.join();
}

// elsa-realtime: runs on the shard worker inside the classify hot loop —
// one SPSC push (whose bounded spin is allowed at its site), nothing else.
void MinerService::publish(std::size_t shard, const serve::ClassifiedEvent& e) {
  // Blocking push: the mined stream is lossless. Returns 0 only when the
  // ring was closed by an abandoning destructor — then losing the event is
  // the point.
  if (shard < rings_.size()) rings_[shard]->push(e);
}

std::int64_t MinerService::watermark() const {
  std::int64_t w = std::numeric_limits<std::int64_t>::max();
  for (std::size_t s = 0; s < shard_clock_.size(); ++s)
    if (reachable_[s]) w = std::min(w, shard_clock_[s]);
  return w;
}

void MinerService::drain_rings(bool& any) {
  for (std::size_t s = 0; s < rings_.size(); ++s) {
    while (auto ev = rings_[s]->try_pop()) {
      // Per-shard streams are time-monotone (one producer, trace order),
      // so the newest arrival IS the shard clock.
      shard_clock_[s] = ev->time_ms;
      pending_[s].push_back(*ev);
      any = true;
    }
  }
}

// elsa-deterministic: the watermark fold is the online leg of the
// online==batch digest gate — shard count and arrival jitter must not
// reach the fold order (hence the canonical stable_sort below).
void MinerService::fold_below(std::int64_t watermark_ms) {
  scratch_.clear();
  for (std::vector<serve::ClassifiedEvent>& p : pending_) {
    // Time-monotone queue => the foldable events are a prefix. Strictly
    // below the watermark: an event AT the watermark may still gain
    // same-time siblings on the shard that defines it.
    const auto split = std::lower_bound(
        p.begin(), p.end(), watermark_ms,
        [](const serve::ClassifiedEvent& e, std::int64_t t) {
          return e.time_ms < t;
        });
    scratch_.insert(scratch_.end(), p.begin(), split);
    p.erase(p.begin(), split);
  }
  if (scratch_.empty()) return;
  // Canonical order. Exact duplicates keep their per-shard FIFO order
  // (stable), and equal keys can only coexist within one shard — the
  // router maps a (time, node) deterministically — so the merged sequence
  // is independent of the shard count.
  std::stable_sort(scratch_.begin(), scratch_.end(), canonical_less);
  for (const serve::ClassifiedEvent& e : scratch_) {
    miner_.fold(e);
    if (publish_every_ != 0 && miner_.folded() % publish_every_ == 0)
      publish_model();
  }
  if (metrics_) metrics_->on_miner_event(scratch_.size());
}

// elsa-deterministic: every interim publish digests into publish_digest_
// (32a218226f958d79 in the CI gate) — bytes must be fold-history-only.
void MinerService::publish_model() {
  // Interim publishes carry no classifier (the producer thread owns the
  // live HELO miner; the hub only needs chains + profiles) — the batch leg
  // replicates exactly this, so the digests still line up.
  core::OfflineModel m = miner_.build_model(nullptr);
  const std::uint64_t d = core::model_digest(m);
  publish_digest_ = chain_publish_digest(publish_digest_, d);
  ++publishes_;
  hub_.publish(std::make_unique<const core::ModelState>(
      core::ModelState::build(std::move(m.chains), std::move(m.profiles))));
  if (metrics_) metrics_->on_model_publish();
}

void MinerService::pump_loop() {
  for (;;) {
    bool any = false;
    drain_rings(any);
    if (any) {
      fold_below(watermark());
      continue;
    }
    // acquire: pairs with the release store in finish()/the destructor —
    // once observed, every event published before the stop is visible, so
    // the final sweep below cannot miss one.
    if (stop_.load(std::memory_order_acquire)) {
      drain_rings(any);
      fold_below(std::numeric_limits<std::int64_t>::max());
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void MinerService::finish(std::int64_t t_end_ms) {
  if (finished_) return;
  finished_ = true;
  // After service finish() returns every event has been published (the
  // drain loops run to completion, and ring pushes block rather than
  // drop) …
  service_->finish(t_end_ms);
  // … so stop-then-join guarantees the pump's final sweep folds them all.
  stop_.store(true, std::memory_order_release);
  if (pump_.joinable()) pump_.join();
  // Pump gone: the fold state is quiescent and the producer is done with
  // the live classifier — embed it in the final model.
  final_model_ = miner_.build_model(&live_);
  final_digest_ = core::model_digest(final_model_);
}

}  // namespace elsa::mining
