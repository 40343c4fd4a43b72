// Workload table and the load generator. Everything here runs before the
// first timed record: the campaign, the replay window, the router shard of
// each record (a pure function of the topology), and the input properties
// a later claim may cite.
#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "bench.hpp"
#include "simlog/scenario.hpp"

namespace elsabench {

namespace {

// Why each workload exists (also in BENCHMARK.json and elsabench/README.md):
//   mercury-storm  NFS storms overload the shards in the paced pass, so
//                  ring backlog and engine drain set alarm latency; the
//                  shard-invariance defect is large here. Storms arrive 6x
//                  as often as in the stock Mercury scenario: at the stock
//                  rate some seeds learn no storm chain, or issue too few
//                  storm alarms to reach the tail, and their alarm tail
//                  falls from ~3.5 ms to ~0.1 ms.
//   bgl-mine       no offline model: the mutating classifier and the miner
//                  pump with model hot-swaps; classify_const is bypassed.
// The speedups hold each paced pass to about a third of the max-rate
// capacity of a calm machine (~220k against ~700k records/s), so only
// bursts queue, even while the machine runs at half speed. Near capacity
// the producer falls behind for most of a pass in a slow spell, and the
// median submit latency jumps from ~4 us to ~60 us. Mercury replays 8 days
// after its 4 training days, so a paced pass takes ~5 s and a run holds
// several.
const WorkloadSpec kWorkloads[] = {
    {"mercury-storm", true, 12.0, 4.0, 150'000.0, false, 2006, 2007, 6.0},
    {"bgl-mine", false, 28.0, 0.0, 400'000.0, true, 2012, 2013},
};

// Self-test sizes: the same code paths on a few days of trace.
const WorkloadSpec kTiny[] = {
    {"mercury-storm", true, 6.0, 3.0, 150'000.0, false, 2006, 2007, 6.0},
    {"bgl-mine", false, 3.0, 0.0, 400'000.0, true, 2012, 2013},
};

constexpr std::int64_t kDayMs = 86'400'000;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name, bool tiny) {
  for (const auto& w : tiny ? kTiny : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

Load make_load(const WorkloadSpec& spec, std::uint64_t seed) {
  auto sc = spec.mercury ? simlog::make_mercury_scenario(seed, spec.days)
                         : simlog::make_bluegene_scenario(seed, spec.days);
  simlog::FaultCatalog faults;
  for (simlog::FaultType f : sc.generator.faults().all()) {
    if (f.name == "nfs_outage") f.rate_per_day *= spec.storm_rate_scale;
    faults.add(std::move(f));
  }
  const simlog::TraceGenerator generator(sc.generator.topology(),
                                         sc.generator.catalog(),
                                         std::move(faults));
  Load load;
  load.trace = generator.generate(sc.config);
  load.train_end_ms = load.trace.t_begin_ms +
                      static_cast<std::int64_t>(spec.train_days *
                                                static_cast<double>(kDayMs));

  // Routing is a pure function of topology and shard count; ask a service
  // of the benchmark's shape where each record will go.
  const core::OfflineModel no_model;
  const serve::PredictionService router(load.trace.topology, no_model,
                                        service_config());
  load.per_shard.assign(kShards, {});
  std::unordered_set<std::string_view> seen;
  std::size_t repeats = 0;
  std::int64_t cur_second = -1;
  std::size_t in_second = 0;
  for (const auto& rec : load.trace.records) {
    if (rec.time_ms < load.train_end_ms) continue;
    const std::size_t s = router.shard_of(rec.node_id);
    load.per_shard[s].push_back(static_cast<std::uint32_t>(load.window.size()));
    load.window.push_back(&rec);
    if (!seen.insert(rec.message).second) ++repeats;
    const std::int64_t sec = rec.time_ms / 1000;
    in_second = sec == cur_second ? in_second + 1 : 1;
    cur_second = sec;
    load.peak_per_second = std::max(load.peak_per_second, in_second);
  }
  if (!load.window.empty())
    load.repeat_share = static_cast<double>(repeats) /
                        static_cast<double>(load.window.size());
  return load;
}

}  // namespace elsabench
