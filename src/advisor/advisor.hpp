// CheckpointAdvisor: the prediction->action half of the paper's story.
// §VI.B prices prediction quality in checkpoint waste recovered; this
// module spends that quality online. It consumes the serve path's
// prediction stream (through AdvisorService's tap, or fed directly in
// tests), keeps a per-partition failure-rate estimate with exponential
// decay, and recomputes each partition's checkpoint interval with the
// recall-adjusted optimum from ckpt::waste_model — plus proactive
// "checkpoint now" directives on high-confidence, sufficient-lead alarms,
// rate-limited and hysteresis-damped so false-alarm bursts cannot thrash
// the schedule.
//
// Partitions are global midplane indices (the paper's §V locality unit and
// the sharding unit of serve::ShardedEngine). Every piece of mutable state
// is strictly per-partition, and per-partition prediction order is the
// engine's deterministic per-shard FIFO — so for location-confined chains
// the emitted CheckpointSchedule is byte-identical across runs and shard
// counts. Directive and update timestamps are *trace* time (prediction
// issue times), never wall time, which is the other half of determinism.
//
// Estimator math: alarms arrive at rate F·N/P (F failures/min, recall N,
// precision P — every predicted failure is an alarm, and precision says a
// fraction (1-P) of alarms are false), so the mean inter-alarm gap g gives
// MTTF ≈ g·N/P — and N/P is exactly the alarm-episodes-per-failure ratio,
// which a window with known ground truth measures directly and more
// faithfully than the offline prior (AdvisorConfig::episodes_per_failure).
// The gap EWMA decays old behaviour; alarms closer together
// than `episode_merge_ms` are one episode (chain re-fires about one
// incident) and extend it instead of cratering the estimate. The interval
// then follows eq. 4: T = sqrt(2·C·MTTF/(1-N)), clamped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/waste_model.hpp"
#include "elsa/online.hpp"
#include "simlog/record.hpp"
#include "util/thread_annotations.hpp"

namespace elsa::serve {
class ServeMetrics;
}

namespace elsa::advisor {

struct AdvisorConfig {
  /// Checkpoint cost model, minutes (paper Table IV units). `mttf` is the
  /// prior per-partition MTTF used before the first estimate exists.
  ckpt::CkptParams params{1.0, 5.0, 1.0, 1440.0};
  /// Offline-evaluated predictor quality feeding the MTTF estimator
  /// (alarm rate -> failure rate, see file comment).
  double precision = 0.92;
  double recall = 0.45;
  /// Calibrated alarm-episodes-per-failure ratio: when > 0 the estimator
  /// uses MTTF = gap * episodes_per_failure directly instead of deriving
  /// the ratio from the precision/recall prior. Measure it on a window
  /// with known ground truth (training episodes / training failures —
  /// `elsa advise` does this automatically); the prior is only as good as
  /// its assumption that the deployed model hits its offline numbers.
  double episodes_per_failure = -1.0;
  /// Recall credited by eq. 4 when stretching the interval. The eq. 4
  /// derivation assumes every predicted failure is proactively
  /// checkpointed, but the directive gate (confidence, lead, rate limit)
  /// covers fewer — crediting the predictor's full recall over-stretches
  /// the interval and the extra lost work cancels the proactive savings
  /// at small checkpoint costs. Negative = credit `recall` unchanged.
  double interval_recall = 0.25;
  /// EWMA weight of the newest inter-alarm gap; <= 0 selects the
  /// cumulative running mean (weight 1/n on the n-th episode), which has
  /// the lowest variance but never forgets — partitions whose failure
  /// rate drifts between windows stay mispriced forever. 0.1 is the
  /// replay-tuned balance: enough memory to average out gap noise, enough
  /// decay to track a drifting rate.
  double gap_alpha = 0.1;
  /// Relative MTTF move required before a new interval is published.
  double mttf_hysteresis = 0.20;
  /// Estimate clamps, minutes: a burst cannot drive the interval to zero,
  /// a quiet spell cannot push it to infinity.
  double mttf_min = 30.0;
  double mttf_max = 30.0 * 24.0 * 60.0;
  /// Published-interval clamps, minutes.
  double min_interval_min = 5.0;
  double max_interval_min = 24.0 * 60.0;
  /// Directive gate: confidence and promised lead an alarm needs.
  double directive_confidence = 0.5;
  std::int64_t min_lead_ms = 60 * 1000;
  /// Per-partition directive rate limit (trace time).
  std::int64_t directive_spacing_ms = 10 * 60 * 1000;
  /// Alarms closer than this are one episode: they extend it without
  /// entering the gap EWMA.
  std::int64_t episode_merge_ms = 5 * 60 * 1000;
  /// score(): a directive hits if a same-partition failure falls within
  /// [issue, max(predicted, issue) + hit_slack_ms].
  std::int64_t hit_slack_ms = 45 * 60 * 1000;
};

/// Eq. 4 interval for an arbitrary checkpoint cost `C` (minutes) at an
/// MTTF estimate, clamped to the config's bounds — the exact mapping the
/// advisor applies at its own cost (params.C). Consumers re-derive
/// intervals for other Table IV cost points from one est_mttf stream.
double interval_for_cost(const AdvisorConfig& cfg, double C, double mttf_min);

/// One proactive "checkpoint now" order.
struct Directive {
  std::int64_t issue_time_ms = 0;
  std::int64_t predicted_time_ms = 0;
  std::int32_t partition = 0;
  std::size_t chain_id = 0;
  double confidence = 0.0;
  bool scored = false;  ///< score() has judged it
  bool hit = false;     ///< a real failure fell inside the window
};

/// One published interval recomputation.
struct IntervalUpdate {
  std::int64_t time_ms = 0;
  std::int32_t partition = 0;
  double est_mttf_min = 0.0;   ///< the clamped estimate behind the interval
  double interval_min = 0.0;   ///< eq. 4 at est_mttf, clamped
};

/// Per-partition schedule state as of the snapshot.
struct PartitionSchedule {
  std::int32_t partition = 0;
  std::uint64_t alarms = 0;       ///< predictions consumed
  std::uint64_t episodes = 0;     ///< gap-EWMA samples accepted
  double est_mttf_min = 0.0;      ///< current estimate (0 = none yet)
  double interval_min = 0.0;      ///< interval currently in force
};

/// The advisor's full observable output — the determinism artifact. The
/// scrape in ServeMetrics carries the counters; this carries everything,
/// in a canonical order (to_string() is byte-stable given equal inputs).
struct CheckpointSchedule {
  double initial_interval_min = 0.0;  ///< in force before any update
  std::vector<PartitionSchedule> partitions;  ///< sorted by partition
  std::vector<IntervalUpdate> updates;        ///< sorted, total key
  std::vector<Directive> directives;          ///< sorted, total key
  std::uint64_t events = 0;      ///< predictions consumed
  std::uint64_t suppressed = 0;  ///< directives rate-limited away
  std::uint64_t hits = 0;        ///< scored directives that matched a fault
  std::uint64_t misses = 0;      ///< scored directives that did not

  /// Canonical multi-line rendering; byte-identical for equal schedules.
  std::string to_string() const;
  /// FNV-1a 64 over to_string(), the one-line reproducibility receipt.
  std::uint64_t digest() const;
};

class CheckpointAdvisor {
 public:
  /// `nodes_per_midplane` maps node ids to partitions exactly like
  /// serve::ShardedEngine maps them to shards (global midplane index; the
  /// system scope node -1 rides partition 0). Pass a ServeMetrics to
  /// mirror the counters into the serve scrape; may be null.
  CheckpointAdvisor(AdvisorConfig cfg, std::int32_t nodes_per_midplane,
                    serve::ServeMetrics* metrics = nullptr);

  CheckpointAdvisor(const CheckpointAdvisor&) = delete;
  CheckpointAdvisor& operator=(const CheckpointAdvisor&) = delete;

  /// Late metrics binding for owners whose ServeMetrics outlives but is
  /// constructed after the advisor (AdvisorService). Call before the first
  /// on_prediction; not synchronized.
  void set_metrics(serve::ServeMetrics* metrics) { metrics_ = metrics; }

  /// Partition a node id routes to: its global midplane index, or the
  /// reserved system partition -1 for the system scope sentinel. Keeping
  /// system-scope alarms out of midplane 0's estimator matters: they would
  /// otherwise crater its MTTF estimate and over-checkpoint one midplane.
  std::int32_t partition_of(std::int32_t node_id) const;

  /// Consume one prediction (AdvisorService's pump thread; tests call it
  /// directly). Thread-safe, but per-partition order is the caller's
  /// responsibility (the tap contract provides it).
  void on_prediction(const core::Prediction& p) ELSA_EXCLUDES(mu_);

  /// Judge every unscored directive against ground truth: a directive
  /// hits when a same-partition fault fails inside
  /// [issue, max(predicted, issue) + hit_slack]; each fault is consumed by
  /// at most one directive (greedy in canonical directive order).
  /// Faults before `from_ms` (the training window) are ignored.
  void score(const std::vector<simlog::GroundTruthFault>& faults,
             std::int64_t from_ms) ELSA_EXCLUDES(mu_);

  /// Interval in force before the first update, minutes (eq. 4 at the
  /// configured prior MTTF, clamped).
  double initial_interval_min() const;

  /// Snapshot in canonical order (see CheckpointSchedule).
  CheckpointSchedule schedule() const ELSA_EXCLUDES(mu_);

  const AdvisorConfig& config() const { return cfg_; }

 private:
  struct Partition {
    std::uint64_t alarms = 0;
    std::uint64_t episodes = 0;
    std::int64_t last_alarm_ms = 0;
    bool saw_alarm = false;
    std::int64_t last_directive_ms = 0;
    bool saw_directive = false;
    double gap_ewma_min = 0.0;     ///< valid once episodes > 0
    double published_mttf = 0.0;   ///< 0 = nothing published yet
    double interval_min = 0.0;     ///< current interval (0 = initial)
  };

  Partition& slot(std::int32_t partition) ELSA_REQUIRES(mu_);

  const AdvisorConfig cfg_;
  const std::int32_t nodes_per_midplane_;
  serve::ServeMetrics* metrics_ = nullptr;
  const double initial_interval_min_;

  // Rank kAdvisor (above the serve engine/metrics ranks): nothing is
  // ever acquired while it is held — the metrics hooks called under it are
  // pure relaxed atomics.
  mutable util::Mutex mu_{"advisor::CheckpointAdvisor::mu_",
                          util::lockrank::kAdvisor};
  std::vector<Partition> parts_ ELSA_GUARDED_BY(mu_);  ///< index = partition
  std::vector<IntervalUpdate> updates_ ELSA_GUARDED_BY(mu_);
  std::vector<Directive> directives_ ELSA_GUARDED_BY(mu_);
  std::uint64_t events_ ELSA_GUARDED_BY(mu_) = 0;
  std::uint64_t suppressed_ ELSA_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ ELSA_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ELSA_GUARDED_BY(mu_) = 0;
};

}  // namespace elsa::advisor
