// Replay passes. The calling thread is the load generator and the
// service's single producer (submit classifies on the caller's thread).
//
//   max-rate  closed loop: submit blocks on a full shard ring, so the pass
//             measures the service's capacity.
//   paced     open loop: record i is due at t0 + (time_ms - first) / speedup
//             and is timed from its due time, so generator lateness and
//             backpressure stalls count against the records behind them.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"

namespace elsabench {

namespace {

/// Resident set size of this process, in MB.
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

/// Wall-clock time each alarm reached the tap. Wait-free: appends into
/// per-shard storage reserved up front; per-shard calls are serialized by
/// the tap contract, and everything is read after finish() joined the
/// workers.
class AlarmTap final : public serve::PredictionTap {
 public:
  struct Seen {
    std::int64_t trigger_ms;
    std::int64_t at_ns;
  };
  struct alignas(64) PerShard {
    std::vector<Seen> seen;
    std::size_t dropped = 0;
  };

  explicit AlarmTap(std::size_t capacity) : per_(kShards) {
    for (auto& p : per_) p.seen.reserve(capacity);
  }

  void publish(std::size_t shard, const core::Prediction& p) override {
    const std::int64_t at = now_ns();
    if (shard >= per_.size()) return;
    PerShard& s = per_[shard];
    if (s.seen.size() < s.seen.capacity())
      s.seen.push_back({p.trigger_time_ms, at});
    else
      ++s.dropped;
  }

  std::vector<PerShard> per_;
};

/// Time each classified record reached its shard engine: the k-th event of
/// shard s is the k-th record submitted to shard s (per-shard FIFO).
class QueueTap final : public serve::EventTap {
 public:
  struct alignas(64) PerShard {
    std::vector<std::int64_t> at_ns;
    std::size_t next = 0;
  };

  explicit QueueTap(const Load& load) : per_(kShards) {
    for (std::size_t s = 0; s < kShards; ++s)
      per_[s].at_ns.assign(load.per_shard[s].size(), 0);
  }

  void publish(std::size_t shard, const serve::ClassifiedEvent&) override {
    const std::int64_t at = now_ns();
    if (shard >= per_.size()) return;
    PerShard& s = per_[shard];
    if (s.next < s.at_ns.size()) s.at_ns[s.next] = at;
    ++s.next;
  }

  std::vector<PerShard> per_;
};

/// Samples the shard ring depths while a pass runs and keeps the maximum.
class DepthSampler {
 public:
  explicit DepthSampler(const serve::PredictionService& svc)
      : thread_([this, &svc] {
          // relaxed: plain stop flag; join() is the synchronization point.
          while (!stop_.load(std::memory_order_relaxed)) {
            for (const std::size_t d : svc.shard_depths())
              max_ = std::max(max_, d);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~DepthSampler() { stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  std::size_t stop() {
    // relaxed: plain stop flag; join() is the synchronization point.
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return max_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::size_t max_ = 0;
  std::thread thread_;
};

}  // namespace

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.shards = kShards;
  return cfg;
}

mining::MinerServiceConfig miner_config(const serve::ServiceConfig& serve) {
  mining::MinerServiceConfig cfg;
  cfg.serve = serve;
  cfg.publish_every = 4096;
  return cfg;
}

PassResult run_pass(const WorkloadSpec& spec, const Load& load,
                    const core::OfflineModel* model, const PassOptions& opt) {
  const std::size_t n = load.window.size();
  serve::ServiceConfig cfg = service_config();
  AlarmTap alarms(1u << 16);
  std::optional<QueueTap> queue;
  if (opt.paced) cfg.tap = &alarms;
  if (opt.traced && model != nullptr) {
    queue.emplace(load);
    cfg.event_tap = &*queue;
  }

  // Freed memory of earlier passes goes back to the OS first.
  malloc_trim(0);
  const double rss0 = rss_mb();
  const double heap0 = heap_mb();

  std::unique_ptr<mining::MinerService> miner;
  std::unique_ptr<serve::PredictionService> own;
  serve::PredictionService* svc = nullptr;
  if (model != nullptr) {
    own = std::make_unique<serve::PredictionService>(load.trace.topology,
                                                     *model, cfg);
    svc = own.get();
  } else {
    miner = std::make_unique<mining::MinerService>(load.trace.topology,
                                                   miner_config(cfg));
    svc = &miner->service();
  }
  std::optional<DepthSampler> sampler;
  if (opt.traced) sampler.emplace(*svc);

  PassResult r;
  std::vector<std::int64_t> returned_ns;
  if (opt.traced) returned_ns.assign(n, 0);
  if (opt.paced) r.submit_us.assign(n, 0.0);

  const std::int64_t first_ms = n > 0 ? load.window.front()->time_ms : 0;
  const double ns_per_trace_ms = 1e6 / spec.speedup;
  const auto due_of = [&](std::int64_t t0, std::int64_t time_ms) {
    return t0 + static_cast<std::int64_t>(
                    static_cast<double>(time_ms - first_ms) * ns_per_trace_ms);
  };

  const std::int64_t t0 = now_ns() + (opt.paced ? 1'000'000 : 0);
  std::int64_t max_late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const simlog::LogRecord& rec = *load.window[i];
    std::int64_t due = 0;
    if (opt.paced) {
      due = due_of(t0, rec.time_ms);
      std::int64_t start = now_ns();
      while (start < due) start = now_ns();
      max_late = std::max(max_late, start - due);
    }
    svc->submit(rec);
    if (opt.paced || opt.traced) {
      const std::int64_t ret = now_ns();
      if (opt.paced) r.submit_us[i] = static_cast<double>(ret - due) * 1e-3;
      if (opt.traced) returned_ns[i] = ret;
    }
  }
  const std::int64_t t_submitted = now_ns();
  if (miner)
    miner->finish(load.trace.t_end_ms);
  else
    svc->finish(load.trace.t_end_ms);
  const std::int64_t t_finished = now_ns();
  if (sampler) r.ring_depth_max = sampler->stop();

  // What the pass still holds after freed memory is handed back: the
  // service, engine and miner state it grew.
  malloc_trim(0);
  r.rss_growth_mb = rss_mb() - rss0;
  r.heap_growth_mb = heap_mb() - heap0;
  r.seconds = static_cast<double>(t_finished - t0) * 1e-9;
  r.submit_seconds = static_cast<double>(t_submitted - t0) * 1e-9;
  r.finish_seconds = static_cast<double>(t_finished - t_submitted) * 1e-9;
  r.submitted = n;
  r.m = svc->metrics();
  const std::uint64_t accounted = r.m.records_out + r.m.quarantined + r.m.shed;
  const std::uint64_t unconserved =
      accounted > r.m.ingested ? accounted - r.m.ingested
                               : r.m.ingested - accounted;
  r.failed = r.m.shed + r.m.quarantined + unconserved +
             (n > r.m.ingested ? n - r.m.ingested : 0);
  r.processed = svc->shard_processed();
  r.max_lateness_ms = static_cast<double>(max_late) * 1e-6;
  if (model != nullptr) r.predictions = svc->predictions();
  if (miner) {
    r.mined_digest = miner->final_digest();
    r.folded = miner->folded();
    r.publishes = miner->publishes();
    if (opt.keep_model) r.final_model = miner->final_model();
  }

  if (opt.paced) {
    // An alarm fires when its trigger bucket closes, i.e. when the shard
    // engine is fed the first record of that shard at or past the
    // bucket's end (= trigger_time_ms). Alarms finish() flushes have no
    // such record and are counted apart.
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto& idx = load.per_shard[s];
      for (const auto& seen : alarms.per_[s].seen) {
        const auto it = std::lower_bound(
            idx.begin(), idx.end(), seen.trigger_ms,
            [&](std::uint32_t i, std::int64_t t) {
              return load.window[i]->time_ms < t;
            });
        if (it == idx.end()) {
          ++r.alarms_untimed;
          continue;
        }
        const std::int64_t due = due_of(t0, load.window[*it]->time_ms);
        r.alarm_ms.push_back(static_cast<double>(seen.at_ns - due) * 1e-6);
      }
      r.alarms_untimed += alarms.per_[s].dropped;
    }
  }
  if (queue) {
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto& idx = load.per_shard[s];
      const auto& at = queue->per_[s].at_ns;
      for (std::size_t k = 0; k < idx.size() && k < queue->per_[s].next; ++k)
        r.queue_us.push_back(static_cast<double>(at[k] - returned_ns[idx[k]]) *
                             1e-3);
    }
  }
  return r;
}

}  // namespace elsabench
