// Shared declarations of the ELSA benchmark. The benchmark drives the
// system only through its public entry points — core::train_offline,
// serve::PredictionService (submit / finish / taps), mining::MinerService —
// from one generator thread that is also the service's single producer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "elsa/pipeline.hpp"
#include "mining/service.hpp"
#include "serve/service.hpp"
#include "simlog/record.hpp"

namespace elsabench {

using namespace elsa;
using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Shards every workload serves with: one producer plus two shard workers
/// (plus the miner pump on bgl-mine) fit a 4-core machine.
inline constexpr std::size_t kShards = 2;

struct WorkloadSpec {
  std::string name;
  bool mercury = false;     ///< Mercury-like campaign, else BG/L-like
  double days = 0.0;        ///< campaign length
  double train_days = 0.0;  ///< offline window; 0 = no model (miner)
  double speedup = 1.0;     ///< paced pass: trace time / wall time
  bool mine = false;        ///< serve through MinerService
  std::uint64_t default_seed = 0;
  std::uint64_t heldout_seed = 0;
  /// Multiplier on the campaign's NFS-storm arrival rate.
  double storm_rate_scale = 1.0;
};

/// Look a workload up by name; null if unknown. `tiny` shrinks the campaign
/// to a few days for the self-test.
const WorkloadSpec* find_workload(const std::string& name, bool tiny);

/// The load generator's output: the campaign and the replay window, built
/// once before any timing starts.
struct Load {
  simlog::Trace trace;
  std::int64_t train_end_ms = 0;  ///< first replayed record time bound
  std::vector<const simlog::LogRecord*> window;  ///< replayed, trace order
  /// Window indices routed to each shard, in submission order.
  std::vector<std::vector<std::uint32_t>> per_shard;
  // Input properties.
  double repeat_share = 0.0;         ///< exact-message repeats in the window
  std::size_t peak_per_second = 0;   ///< most records in one trace-second
};

Load make_load(const WorkloadSpec& spec, std::uint64_t seed);

/// Coarse span recorder: name, start, end, parent. Spans are kept in
/// memory and written out once; per-record layers are recorded as one
/// aggregate span around their loop, never one span per record.
class Tracer {
 public:
  /// Open a span under the innermost open one; returns its id.
  int begin(const char* name);
  /// Close span `id`; returns its duration in seconds.
  double end(int id);
  /// Duration in seconds of the last closed span named `name` (0 if none).
  double seconds(const char* name) const;
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  struct Record {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Span() { if (id_ >= 0) t_.end(id_); }
  double close() { const double s = t_.end(id_); id_ = -1; return s; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// The benchmark's serving configuration (zero-cost engine model, the
/// service defaults otherwise).
serve::ServiceConfig service_config();
/// MinerService around `serve`, publishing a model every 4096 folds.
mining::MinerServiceConfig miner_config(const serve::ServiceConfig& serve);

/// What one replay pass observed.
struct PassResult {
  double seconds = 0.0;         ///< first submit -> finish() returned
  double submit_seconds = 0.0;  ///< the submit loop alone
  double finish_seconds = 0.0;  ///< finish() alone
  std::size_t submitted = 0;
  std::uint64_t failed = 0;     ///< shed + quarantined + unconserved
  double rss_growth_mb = 0.0;
  double heap_growth_mb = 0.0;
  serve::MetricsSnapshot m;
  std::vector<core::Prediction> predictions;  ///< merged (offline model only)
  std::vector<std::uint64_t> processed;       ///< per shard
  std::size_t ring_depth_max = 0;             ///< sampled (traced only)
  // Paced pass only.
  std::vector<double> submit_us;  ///< due -> submit returned, per record
  std::vector<double> alarm_ms;   ///< closing record due -> tap, per alarm
  std::size_t alarms_untimed = 0; ///< issued by finish(): no closing record
  double max_lateness_ms = 0.0;   ///< generator lateness at submit start
  std::vector<double> queue_us;   ///< submit returned -> EventTap (traced)
  // Miner only.
  std::uint64_t mined_digest = 0;
  std::uint64_t folded = 0;
  std::uint64_t publishes = 0;
  core::OfflineModel final_model;  ///< kept from one pass for layer replay
};

struct PassOptions {
  bool paced = false;
  bool traced = false;     ///< attach the queue tap and the depth sampler
  bool keep_model = false; ///< miner: copy the final model out
};

/// Replay the whole window once through a fresh service (or MinerService
/// when `model` is null).
PassResult run_pass(const WorkloadSpec& spec, const Load& load,
                    const core::OfflineModel* model, const PassOptions& opt);

/// Single-engine reference replay and its layer split.
struct Reference {
  std::vector<core::Prediction> predictions;
  core::EngineStats stats;
  double classify_const_seconds = 0.0;
  double feed_seconds = 0.0;
};
Reference reference_replay(const Load& load, const core::OfflineModel& model,
                           Tracer& tr);

/// Size of the symmetric difference of two alarm lists.
std::size_t alarms_diverged(std::vector<core::Prediction> a,
                            std::vector<core::Prediction> b);

/// Batch leg of the miner check: fresh mutating classifier over the whole
/// trace, canonical sort, fold, build, save.
struct BatchMine {
  std::uint64_t digest = 0;
  std::size_t events = 0;
  std::size_t templates = 0;
  std::size_t chains = 0;
  std::size_t state_bytes = 0;
  double classify_seconds = 0.0;
  double fold_seconds = 0.0;
  double build_seconds = 0.0;
  double save_seconds = 0.0;
};
BatchMine batch_mine(const Load& load, Tracer& tr);

/// Offline stages replayed on the model's kept artefacts.
struct OfflineReplay {
  bool identical = false;  ///< seeds and model digest match train_offline
  std::size_t train_records = 0;  ///< records the HELO stage classified
  std::string mismatch;    ///< what differed, if anything
};
OfflineReplay replay_offline(const Load& load, const core::OfflineModel& model,
                             const core::PipelineConfig& cfg, Tracer& tr);

/// Value at quantile q (0..1) of `v` (nearest rank; reorders `v`).
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

}  // namespace elsabench
