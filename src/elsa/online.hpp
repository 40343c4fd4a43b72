// Online prediction engine (paper §VI, Fig 8): consumes the live record
// stream, maintains the per-signal online outlier detectors, matches chain
// prefixes, and emits located, time-bounded failure predictions.
//
// The engine also carries an analysis-time model. The paper's measurements
// (observation window -> analysis time -> visible prediction window) are
// central to its evaluation: predictions that complete after the failure
// are worthless. Modern hardware runs this C++ implementation orders of
// magnitude faster than the 2012 toolchain the paper measured, so the
// engine simulates a single-server work queue with calibrated per-event /
// per-outlier service costs (constants documented in DESIGN.md); every
// prediction's issue time includes the queueing delay. Real wall-clock
// execution time is measured separately by the benchmarks.
//
// A bucket's activity is kept in one dense slot per template, so feeding a
// record allocates nothing. Closing a bucket feeds every detector its count;
// an idle template's zero costs its detector a compare and an increment
// (OnlineDetector owes the zero to its median window and pays it in one
// run the next time the median is read, which is exact: DESIGN.md §21).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "elsa/chain.hpp"
#include "elsa/outlier.hpp"
#include "simlog/record.hpp"
#include "topology/topology.hpp"

namespace elsa::core {

/// Calibrated service costs for the analysis-queue simulation.
struct AnalysisCostModel {
  double per_event_ms = 3.0;           ///< every incoming record
  double per_outlier_ms = 120.0;       ///< each outlier onset's bookkeeping
  double per_chain_trigger_ms = 40.0;  ///< each candidate chain inspected
};

struct EngineConfig {
  std::int64_t dt_ms = 10'000;
  std::size_t median_window = 8640;  ///< 1 day at 10 s sampling
  std::int32_t tolerance = 3;
  /// Attach learned location scopes to predictions. Off for the DM
  /// baseline, whose method class provides no location information —
  /// its predictions are system-wide.
  bool use_location = true;
  /// Match chains against raw template occurrences instead of outliers
  /// (the DM baseline's online behaviour).
  bool raw_event_matching = false;
  /// Suppress a prediction duplicating (template, overlapping window,
  /// overlapping location) within this many samples.
  std::int64_t dedupe_window_samples = 30;
  /// Sequence confirmation: a chain whose prefix (items before the failure
  /// item) holds at least this many items emits a prediction only after
  /// that many prefix items are observed at consistent delays. Chains with
  /// shorter prefixes emit on their first item. This is the structural
  /// precision advantage of multi-event chains over bare pairs: one stray
  /// precursor cannot raise an alarm when the learned sequence expects
  /// corroboration. 1 = emit on any prefix item (the ablation baseline).
  int min_prefix_matches = 2;
  AnalysisCostModel cost;
  DetectorOptions detector;
};

struct Prediction {
  std::int64_t trigger_time_ms = 0;    ///< when the symptom was observable
  std::int64_t issue_time_ms = 0;      ///< trigger + analysis-queue delay
  std::int64_t predicted_time_ms = 0;  ///< expected failure time
  std::uint32_t tmpl = 0;              ///< predicted failure event type
  std::vector<std::int32_t> nodes;     ///< base locations (empty = system)
  topo::Scope scope = topo::Scope::Node;  ///< expansion around `nodes`
  std::size_t chain_id = 0;
  double confidence = 0.0;
  /// Lead margin the chain promises, ms (failure delay minus trigger item
  /// delay); the evaluation slack scales with it.
  std::int64_t lead_ms = 0;
};

/// One (chain, prefix item) pair a signal can trigger.
struct ChainTrigger {
  std::size_t chain_id;
  std::size_t item_index;
};

/// The immutable rule model an OnlineEngine predicts from: chains,
/// per-signal profiles, and the derived trigger/prefix indexes. Built once
/// (offline, or by the incremental miner in src/mining) and never mutated
/// afterwards — engines only ever read it, which is what makes the RCU-style
/// hot swap in serve/model_handle.hpp sound: a published ModelState is
/// frozen, readers share it without synchronisation.
struct ModelState {
  std::vector<Chain> chains;
  std::vector<SignalProfile> profiles;

  /// Chain triggers indexed by signal id (derived from `chains`).
  std::unordered_map<std::uint32_t, std::vector<ChainTrigger>> triggers;
  /// Per chain: number of prefix items that precede the failure item by a
  /// useful margin (>= 2 samples). Confirmation is only demanded when at
  /// least EngineConfig::min_prefix_matches such items exist — waiting for
  /// a corroborating item that arrives together with the failure would
  /// forfeit the lead.
  std::vector<int> early_prefix_counts;

  /// Build the derived indexes from a chain/profile set.
  static ModelState build(std::vector<Chain> chains,
                          std::vector<SignalProfile> profiles);
};

struct EngineStats {
  std::size_t records = 0;
  std::size_t buckets = 0;
  /// Records that arrived after their bucket had already closed (or, in raw
  /// matching mode, behind the latest record seen). They are clamped to the
  /// open bucket / latest time instead of being dropped: out-of-order
  /// arrival is the norm for a concurrent ingest path, and a slightly
  /// mis-bucketed count is far better than a hole in the signal.
  std::size_t out_of_order = 0;
  std::size_t outlier_onsets = 0;
  std::size_t raw_triggers = 0;
  std::size_t predictions_emitted = 0;
  std::size_t duplicates_suppressed = 0;
  /// Analysis window (ms) per outlier-bearing bucket: the §VI.A metric.
  std::vector<float> analysis_window_ms;
  double mean_analysis_ms() const;
  double max_analysis_ms() const;
  /// Distinct chains that fired at least once ("Seq Used" in Table III).
  std::size_t chains_used = 0;
};

class OnlineEngine {
 public:
  OnlineEngine(const topo::Topology& topo, std::vector<Chain> chains,
               std::vector<SignalProfile> profiles, EngineConfig cfg);

  /// Feed one record. `tmpl` is the event type id assigned by the online
  /// HELO classifier. Records should be roughly time-ordered; a record
  /// arriving behind the open bucket (normal for a concurrent ingest path)
  /// is clamped onto the open bucket and counted in
  /// `EngineStats::out_of_order` rather than corrupting closed history.
  void feed(const simlog::LogRecord& rec, std::uint32_t tmpl);

  /// Flush trailing buckets up to the end of the observation period.
  void finish(std::int64_t t_end_ms);

  /// Replace the rule model the engine predicts from. `m` must stay alive
  /// (and unmutated) until the next swap_model() call returns — exactly the
  /// grace-period contract serve::RcuHub enforces. Detector histories are
  /// kept for templates both models know (the observed signal is signal
  /// regardless of which rules consume it) and extended for templates only
  /// the new model names; partially-matched chain prefixes and per-chain
  /// fire counts are reset — chain ids are meaningless across models.
  void swap_model(const ModelState* m);

  const std::vector<Prediction>& predictions() const { return predictions_; }
  const EngineStats& stats() const { return stats_; }
  const std::vector<Chain>& chains() const { return model_->chains; }
  /// Per-chain fire counts (for the Table III "Seq Used" column).
  const std::vector<std::size_t>& chain_fires() const { return chain_fires_; }

 private:
  using Trigger = ChainTrigger;

  /// A partially observed chain occurrence awaiting confirmation.
  struct Pending {
    std::int32_t sample = 0;       ///< sample of the matched item
    std::size_t item_index = 0;
    std::vector<std::int32_t> nodes;
  };

  /// One template's activity in the open bucket.
  struct Slot {
    std::uint32_t count = 0;
    std::uint32_t n_nodes = 0;
    /// The first eight distinct node ids seen in the bucket.
    std::array<std::int32_t, 8> nodes{};
  };

  void ensure_detector(std::uint32_t tmpl);
  void close_buckets_through(std::int64_t t_ms);
  void close_one_bucket();
  /// Handle one observed (chain, item) trigger: emit immediately for
  /// single-prefix chains, otherwise match against / extend the pending
  /// occurrences. `sample` is the bucket index of the observation.
  void trigger_chain(const Trigger& tr, std::int32_t sample,
                     std::int64_t trigger_ms, std::int64_t issue_ms,
                     const std::vector<std::int32_t>& nodes);
  void emit(std::size_t chain_id, std::size_t item_index,
            std::int64_t trigger_ms, std::int64_t issue_ms,
            const std::vector<std::int32_t>& nodes);

  topo::Topology topo_;
  /// Model built by the legacy (chains, profiles) constructor. Engines fed
  /// through swap_model() never touch it after the first swap.
  std::unique_ptr<const ModelState> owned_;
  /// The model currently predicted from — `owned_.get()` until swap_model()
  /// repoints it. Never null.
  const ModelState* model_;
  EngineConfig cfg_;

  // Per template id, in step: the detector and the open bucket's activity.
  std::vector<OnlineDetector> detectors_;
  std::vector<Slot> slots_;
  std::int64_t bucket_start_ms_ = 0;
  bool started_ = false;
  /// Latest record time seen (raw matching mode's ordering reference).
  std::int64_t last_time_ms_ = 0;

  /// Pending partial matches, indexed by chain id.
  std::vector<std::vector<Pending>> pending_;

  // Analysis-queue state.
  double server_free_ms_ = 0.0;

  // Reused scratch buffers: feed() runs per record and close_one_bucket()
  // per bucket; after warm-up neither allocates.
  std::vector<std::int32_t> scratch_nodes_;
  /// Template ids with an onset in the bucket being closed.
  std::vector<std::uint32_t> scratch_onsets_;

  std::vector<Prediction> predictions_;
  std::vector<std::size_t> chain_fires_;
  EngineStats stats_;
};

}  // namespace elsa::core
