#include "advisor/service.hpp"

#include <algorithm>
#include <chrono>

namespace elsa::advisor {

AdvisorService::AdvisorService(const topo::Topology& topo,
                               const core::OfflineModel& model,
                               AdvisorServiceConfig cfg)
    : advisor_(cfg.advisor, std::max(1, topo.nodes_per_nodecard() *
                                            topo.nodecards_per_midplane())) {
  const std::size_t shards = cfg.serve.shards == 0 ? 1 : cfg.serve.shards;
  rings_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    rings_.push_back(std::make_unique<serve::SpscRing<core::Prediction>>(
        cfg.ring_capacity));
  cfg.serve.tap = this;
  service_ =
      std::make_unique<serve::PredictionService>(topo, model, cfg.serve);
  // Bind the metrics before any prediction can flow: producers cannot
  // submit until this constructor returns, and the pump starts below.
  metrics_ = &service_->raw_metrics();
  advisor_.set_metrics(metrics_);
  pump_ = std::thread([this] { pump_loop(); });
}

AdvisorService::~AdvisorService() {
  // relaxed store would do for the flag alone; release pairs with the
  // pump's acquire so its final sweep sees everything published so far.
  stop_.store(true, std::memory_order_release);
  if (pump_.joinable()) pump_.join();
  // service_ tears down after this body; any prediction its draining
  // workers still publish lands in rings_ (destroyed after service_) and
  // is simply never pumped — the advisor was abandoned, not finished.
}

// elsa-realtime: runs on the shard worker inside the prediction hot loop —
// one ring offer plus drop accounting, never a lock or an allocation.
void AdvisorService::publish(std::size_t shard, const core::Prediction& p) {
  // The engine never runs more shards than there are rings.
  if (rings_[shard]->offer(p) != 0) return;
  if (metrics_) metrics_->on_advisor_drop();
}

std::uint64_t AdvisorService::dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

void AdvisorService::pump_loop() {
  for (;;) {
    bool any = false;
    for (auto& r : rings_)
      while (auto p = r->try_pop()) {
        advisor_.on_prediction(*p);
        any = true;
      }
    if (any) continue;
    // acquire: pairs with the release store in finish()/the destructor —
    // once observed, every publish that happened before the stop is
    // visible, so one final sweep below cannot miss a prediction.
    if (stop_.load(std::memory_order_acquire)) {
      for (auto& r : rings_)
        while (auto p = r->try_pop()) advisor_.on_prediction(*p);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void AdvisorService::finish(std::int64_t t_end_ms) {
  if (finished_) return;
  finished_ = true;
  // After service finish() returns, every prediction has been published
  // (drain_shard ran to completion on every shard) …
  service_->finish(t_end_ms);
  // … so stop-then-join guarantees the pump's final sweep consumes them
  // all: release pairs with the acquire load in pump_loop.
  stop_.store(true, std::memory_order_release);
  if (pump_.joinable()) pump_.join();
}

}  // namespace elsa::advisor
