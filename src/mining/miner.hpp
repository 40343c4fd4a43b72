// Online incremental correlation mining (LogMaster-style): the streaming
// replacement for the offline retrain. The miner folds the live classified
// event stream — (time, node, template, severity) tuples tapped off the
// serving path — into bounded decayed-count state, and can materialise a
// rule model (2- and 3-item correlation chains with GRITE-compatible delay
// arithmetic) at any fold boundary. Models are published into the serving
// engines through the RCU-style ModelHub (serve/model_handle.hpp), so the
// predict path swaps rules without ever blocking.
//
// Determinism is the load-bearing property: folding the SAME event sequence
// yields byte-identical state, and build_model() emits chains in a fixed
// order with fixed floating-point arithmetic — so an online run (any shard
// count) and a batch run over the canonically sorted trace produce equal
// model digests. The `elsa mine --check` CI gate is built on exactly this.
//
// Memory is bounded by construction: per-template stats grow with the HELO
// template set (itself bounded), the pairing lookback is a fixed ring of
// `lookback` slots threaded per template (O(templates + lookback), see
// DESIGN.md §20), and the candidate pair map is capped with deterministic
// lowest-weight eviction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "elsa/pipeline.hpp"
#include "serve/tap.hpp"

namespace elsa::mining {

struct MinerConfig {
  /// Pairing window: an event only correlates with events at most this far
  /// back. Matches the data-mining baseline's fixed window by default.
  std::int64_t window_ms = 240'000;
  /// Sample interval chain delays are expressed in (the pipeline's dt).
  std::int64_t dt_ms = 10'000;
  /// Exponential decay half-life, in folded events; 0 disables decay
  /// (plain cumulative counts — what the online≡batch gate replays with).
  double half_life_events = 0.0;
  /// Most recent events an arriving event is paired against (per-event
  /// lookback cap; the window_ms gate applies on top). Below 2^32.
  std::size_t lookback = 64;
  /// Candidate pair-map cap. On overflow the map is shrunk to 7/8 of the
  /// cap by evicting the lowest decayed-count pairs (ties broken by key),
  /// deterministically.
  std::size_t max_pairs = 65'536;
  /// Rule gates (decayed counts compared against these).
  double min_support = 4.0;
  double min_confidence = 0.20;
  /// GRITE delay-consistency slack for 3-item chains — the SAME formula as
  /// the offline miner (grite_effective_tolerance), applied byte-identically.
  std::int32_t tolerance = 3;
  double tolerance_frac = 0.08;
  /// Drop a 2-chain subsumed by a 3-chain over the same (antecedent,
  /// failure) whose support is at least this fraction of its own;
  /// 0 disables.
  double subsume_support_ratio = 0.6;
};

/// Canonical order of classified events: (time, node, template, severity).
/// The online pump sorts each watermark batch with it and the batch leg
/// sorts the whole trace with it — the shared total order that makes the
/// two fold sequences identical.
bool canonical_less(const serve::ClassifiedEvent& a,
                    const serve::ClassifiedEvent& b);

class OnlineMiner {
 public:
  /// Throws std::invalid_argument when cfg.lookback does not fit a slot
  /// index (>= 2^32).
  explicit OnlineMiner(MinerConfig cfg = {});

  /// Fold one classified event. Events must arrive in canonical order
  /// (the pump/batch legs guarantee it); folding is deterministic — the
  /// same sequence always produces byte-identical state.
  void fold(const serve::ClassifiedEvent& e);

  /// Events folded so far (the publish-boundary clock).
  std::uint64_t folded() const { return folded_; }

  /// Distinct template ids seen (dense upper bound).
  std::size_t templates() const { return tstats_.size(); }

  /// Live candidate pairs (bounded by MinerConfig::max_pairs).
  std::size_t pairs() const { return pairs_.size(); }

  /// Materialise the current rule model: correlation chains ending in a
  /// failure-majority template, Silent signal profiles (matching the
  /// engine's on-demand detector synthesis, so a mid-run hot swap never
  /// changes detector behaviour), and per-template majority severities.
  /// `classifier` is copied into the model when non-null (pass null for
  /// interim publishes — the hub only needs chains+profiles — and the
  /// final classifier once the stream is closed). Deterministic: equal
  /// state => byte-identical model text.
  core::OfflineModel build_model(const helo::TemplateMiner* classifier) const;

  /// Serialise the complete fold state (versioned text, hexfloat doubles:
  /// save → load → continue folding is byte-equal to never pausing).
  void save_state(std::ostream& os) const;
  /// Restore state saved by save_state (config is NOT persisted: the
  /// caller constructs with the same MinerConfig). Throws
  /// std::runtime_error on malformed input, and on state this config could
  /// not have produced: more recent rows than `lookback`, recent rows out
  /// of time order, template ids >= the template count, a self pair, a
  /// duplicate pair key or more than `max_pairs` pairs. No count allocates
  /// more than the input holds or the config allows.
  void load_state(std::istream& is);

  const MinerConfig& config() const { return cfg_; }

 private:
  struct TemplateStat {
    double count = 0.0;       ///< decayed occurrence count
    std::uint64_t last = 0;   ///< fold index of the last decay application
    std::uint64_t sev[5] = {0, 0, 0, 0, 0};  ///< raw severity histogram
  };
  struct PairStat {
    double count = 0.0;         ///< decayed co-occurrence count
    double delay_sum = 0.0;     ///< decayed sum of delays, in samples
    std::uint64_t last = 0;
  };
  /// Lookback window: a ring of `lookback` slots, oldest at ring_head_.
  /// Each slot links to the next-newer slot of the same template, so an
  /// arrival visits each antecedent template once, walking its slots in
  /// window order (DESIGN.md §20).
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  struct Slot {
    std::int64_t time_ms;
    std::uint32_t tmpl;
    std::uint32_t next;  ///< next-newer slot of `tmpl`, or kNoSlot
  };
  /// One template's thread through the ring.
  struct Lane {
    std::uint32_t oldest = kNoSlot;
    std::uint32_t newest = kNoSlot;
    std::uint32_t pos = 0;  ///< index in present_ while oldest != kNoSlot
  };

  /// Decay factor for a stat last touched at fold index `last`.
  double decay_to_now(std::uint64_t last) const;
  void evict_pairs();
  void push_recent(std::int64_t time_ms, std::uint32_t tmpl);
  void pop_recent();
  /// Pair keys in ascending order, re-sorted only when the key set changed
  /// since the last call (fold inserted or evicted a pair, or a load).
  const std::vector<std::uint64_t>& sorted_keys() const;
  /// Majority severity of a template (ties break toward the lower level).
  simlog::Severity majority_severity(const TemplateStat& t) const;

  MinerConfig cfg_;
  std::uint64_t folded_ = 0;
  std::int64_t first_time_ms_ = 0;
  std::int64_t last_time_ms_ = 0;
  std::vector<TemplateStat> tstats_;
  std::vector<Slot> ring_;         ///< cfg_.lookback slots
  std::size_t ring_head_ = 0;      ///< oldest occupied slot
  std::size_t ring_size_ = 0;
  std::vector<Lane> lanes_;        ///< per template, sized like tstats_
  std::vector<std::uint32_t> present_;  ///< templates with a slot in ring_
  /// key = antecedent << 32 | consequent.
  std::unordered_map<std::uint64_t, PairStat> pairs_;
  /// build_model/save_state cache: the sorted key set of pairs_ and
  /// whether it is stale. Single-threaded like the rest of the miner.
  mutable std::vector<std::uint64_t> keys_;
  mutable bool keys_stale_ = false;
};

/// Result of one publish-boundary replay (batch leg of the CI gate).
struct BatchMineResult {
  core::OfflineModel model;          ///< final model (classifier embedded)
  std::uint64_t model_digest = 0;    ///< digest of `model`
  std::uint64_t publish_digest = 0;  ///< chained digest of interim publishes
  std::uint64_t publishes = 0;       ///< interim publish count
};

/// Fold `events` — already canonically sorted — through a fresh miner,
/// replicating the service's publish cadence: after every `publish_every`
/// folds (0 = never) an interim model is built with an EMPTY classifier and
/// its digest chained into `publish_digest`, exactly as MinerService does.
/// The reference the online≡batch gate compares against.
BatchMineResult batch_mine(const std::vector<serve::ClassifiedEvent>& events,
                           const MinerConfig& cfg, std::size_t publish_every,
                           const helo::TemplateMiner& classifier);

/// Chain one model digest into a running publish-stream digest (FNV-1a over
/// the digest's 8 little-endian bytes, seeded with the previous value).
std::uint64_t chain_publish_digest(std::uint64_t stream, std::uint64_t model);

}  // namespace elsa::mining
