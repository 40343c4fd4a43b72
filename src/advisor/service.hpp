// AdvisorService: a PredictionService with the checkpoint advisor closed
// over it. It registers itself as the serve path's PredictionTap, hands
// each shard's predictions through a private lock-free serve::SpscRing (one
// per shard — the tap contract guarantees one producer per shard index), and
// a single pump thread feeds them to the CheckpointAdvisor. The predict
// hot path therefore never blocks on advisor work: a full ring drops the
// event and counts it (advisor_dropped in the metrics scrape; the
// deterministic-replay tests assert zero drops at the default capacity).
//
//   producers -> PredictionService -> shard workers
//                                        | publish(shard, p)   offer
//                                   SpscRing[shard]
//                                        | try_pop             pump thread
//                                  CheckpointAdvisor -> CheckpointSchedule
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "advisor/advisor.hpp"
#include "serve/service.hpp"
#include "serve/spsc_ring.hpp"

namespace elsa::advisor {

struct AdvisorServiceConfig {
  /// Base serving configuration; its `tap` field is overwritten with the
  /// advisor's own hook.
  serve::ServiceConfig serve;
  AdvisorConfig advisor;
  /// Per-shard ring capacity, in predictions (rounded up to a power of
  /// two). Generous by default: a drop costs schedule fidelity (and
  /// determinism), so the rings are sized for the full between-sweeps
  /// burst of a shard.
  std::size_t ring_capacity = 4096;
};

class AdvisorService final : public serve::PredictionTap {
 public:
  AdvisorService(const topo::Topology& topo, const core::OfflineModel& model,
                 AdvisorServiceConfig cfg = {});
  ~AdvisorService() override;

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// The underlying serving endpoint (submit records here).
  serve::PredictionService& service() { return *service_; }
  const serve::PredictionService& service() const { return *service_; }

  CheckpointAdvisor& advisor() { return advisor_; }
  const CheckpointAdvisor& advisor() const { return advisor_; }

  /// PredictionTap: wait-free per-shard hand-off (shard workers call this).
  void publish(std::size_t shard, const core::Prediction& p) override;

  /// Finish the service (drain + merge), then drain the advisor: after
  /// this returns every published prediction has reached the advisor and
  /// the pump thread has exited. Idempotent.
  void finish(std::int64_t t_end_ms);

  /// Predictions lost to a full ring (0 in a healthy run): the sum of the
  /// rings' own drop counters.
  std::uint64_t dropped() const;

  /// Advisor snapshot (canonical order; see CheckpointSchedule).
  CheckpointSchedule schedule() const { return advisor_.schedule(); }

 private:
  void pump_loop();

  CheckpointAdvisor advisor_;
  std::vector<std::unique_ptr<serve::SpscRing<core::Prediction>>> rings_;
  serve::ServeMetrics* metrics_ = nullptr;  ///< service_'s, cached for publish
  std::unique_ptr<serve::PredictionService> service_;
  // elsa-atomic: release-acquire-flag — finish()'s release store is the
  // pump thread's acquire-loaded exit signal.
  std::atomic<bool> stop_{false};
  std::thread pump_;
  bool finished_ = false;  ///< controlling thread only
};

}  // namespace elsa::advisor
