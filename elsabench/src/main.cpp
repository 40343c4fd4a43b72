// The ELSA benchmark: one workload, one seed, one run.
//
//   elsabench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--tiny 1] [--perturb-reference 1]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that times calls into each module's public functions and prints the
// per-layer metrics (and writes the span file to --spans). Both runs check
// the outputs. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// --tiny shrinks every campaign to a few days (self-test);
// --perturb-reference adds to the reference one alarm the service cannot
// have issued (self-test: the divergence check must then count it).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>

#include "bench.hpp"

namespace elsabench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") { a.seed = std::strtoull(v, nullptr, 10); have_seed = true; }
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--tiny") a.tiny = std::strcmp(v, "0") != 0;
    else if (k == "--perturb-reference") a.perturb = std::strcmp(v, "0") != 0;
    else if (k == "--spans") a.spans = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && a.seconds > 0;
}

/// Every metric a run computes, printed by name with its unit; the final
/// JSON line carries the subset its mode reports.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      std::printf("  %-26s not finite\n", name.c_str());
      finite_ = false;
      value = 0.0;
    } else {
      std::printf("  %-26s %14.6g %-10s %s\n", name.c_str(), value,
                  unit.c_str(), note.c_str());
    }
    values_[name] = {value, unit};
  }

  bool finite() const { return finite_; }

  void json(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<const char*>& names) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const char* n : names) {
      const auto it = values_.find(n);
      const double v = it == values_.end() ? 0.0 : it->second.first;
      const std::string unit = it == values_.end() ? "?" : it->second.second;
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", n, v, unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  bool finite_ = true;
};

// The metric sets of the two modes (names and units match BENCHMARK.json).
const std::vector<const char*> kEndToEnd = {
    "setup_s", "replay_rps", "submit_p50_us", "heap_growth_mb"};
const std::vector<const char*> kPerLayer = {
    "helo.classify_const_ns", "helo.classify_ns",      "helo.templates",
    "serve.submit_self_ns",   "serve.finish_ms",       "serve.queue_us_p50",
    "serve.queue_us_p99",     "serve.ring_depth_max",  "serve.imbalance",
    "serve.shed",             "serve.quarantined",     "serve.alarms_diverged",
    "elsa.engine.feed_ns",    "elsa.engine.buckets",   "elsa.engine.onsets",
    "elsa.engine.predictions", "elsa.engine.dupes",    "elsa.engine.emit_ratio",
    "elsa.train.signals_s",   "elsa.train.profile_s",  "elsa.train.outliers_s",
    "elsa.train.grite_s",     "elsa.train.location_s", "signalkit.xcorr_s",
    "mining.fold_ns",         "mining.build_model_ms", "mining.publishes",
    "mining.model_swaps",     "mining.state_bytes",    "mining.save_state_ms",
    "bench.trace_overhead"};

/// Warm-up: a short slice of the window through a throwaway service, so
/// the timed passes start with the allocator, caches and clocks warm.
void warm_up(const Load& load, const core::OfflineModel* model) {
  const std::size_t n = std::min<std::size_t>(load.window.size(), 32768);
  if (n == 0) return;
  const std::int64_t end_ms = load.window[n - 1]->time_ms + 1;
  if (model != nullptr) {
    serve::PredictionService svc(load.trace.topology, *model, service_config());
    for (std::size_t i = 0; i < n; ++i) svc.submit(*load.window[i]);
    svc.finish(end_ms);
  } else {
    mining::MinerService ms(load.trace.topology,
                            miner_config(service_config()));
    for (std::size_t i = 0; i < n; ++i) ms.service().submit(*load.window[i]);
    ms.finish(end_ms);
  }
}

double rps(const PassResult& p) {
  return p.seconds > 0 ? static_cast<double>(p.submitted) / p.seconds : 0.0;
}

double imbalance(const std::vector<std::uint64_t>& processed) {
  if (processed.empty()) return 0.0;
  const double total = static_cast<double>(
      std::accumulate(processed.begin(), processed.end(), std::uint64_t{0}));
  const double peak = static_cast<double>(
      *std::max_element(processed.begin(), processed.end()));
  return total > 0 ? peak / (total / static_cast<double>(processed.size()))
                   : 0.0;
}

/// What one paced pass measured; its per-record vectors are dropped once
/// summarised.
struct PacedStats {
  double submit_p50_us = 0.0;
  double submit_p99_us = 0.0;
  double alarm_p50_ms = 0.0;
  double alarm_tail_ms = 0.0;
  int tail_pct = 0;          ///< whole percentile the tail is read at
  std::size_t alarms = 0;    ///< alarms timed
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
};

PacedStats summarize(PassResult& p) {
  PacedStats s;
  s.submit_p50_us = quantile(p.submit_us, 0.50);
  s.submit_p99_us = quantile(p.submit_us, 0.99);
  s.alarms = p.alarm_ms.size();
  // Tail: the highest whole percentile with at least ten alarms beyond it.
  s.tail_pct = std::max(
      50, static_cast<int>(std::floor(
              100.0 * (1.0 - 10.0 / static_cast<double>(s.alarms)))));
  s.alarm_p50_ms = quantile(p.alarm_ms, 0.50);
  s.alarm_tail_ms = quantile(p.alarm_ms, s.tail_pct / 100.0);
  s.queue_p50_us = quantile(p.queue_us, 0.50);
  s.queue_p99_us = quantile(p.queue_us, 0.99);
  p.submit_us = {};
  p.alarm_ms = {};
  p.queue_us = {};
  return s;
}

/// Median over rounds of one paced-pass statistic.
template <typename F>
double median_of(const std::vector<PacedStats>& v, F f) {
  std::vector<double> x;
  for (const auto& s : v) x.push_back(f(s));
  return median(std::move(x));
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload, args.tiny);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s  seed %llu  (default %llu, held-out %llu)  %s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(spec->default_seed),
              static_cast<unsigned long long>(spec->heldout_seed),
              args.trace ? "traced" : "untraced");
  Tracer tr;
  bool correct = true;
  const auto fail = [&](const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct = false;
  };

  // ---- load generation (not timed as set-up) ---------------------------
  Load load;
  {
    Span s(tr, "load.generate");
    load = make_load(*spec, args.seed);
  }
  const std::size_t n = load.window.size();
  if (n == 0) {
    std::fprintf(stderr, "empty replay window\n");
    return 1;
  }

  // ---- set-up: offline training (or miner start), service, warm-up ------
  const core::PipelineConfig pcfg;
  core::OfflineModel model;
  const core::OfflineModel* model_ptr = spec->mine ? nullptr : &model;
  // At least three set-ups and at least one second of them, so a cheap
  // set-up (the miner's) is a median of many and stays steady.
  std::vector<double> setup;
  double setup_total = 0.0;
  while (setup.empty() ||
         (!args.trace && (setup.size() < 3 || setup_total < 1.0) &&
          setup.size() < 64)) {
    Span s(tr, "setup");
    if (!spec->mine) {
      Span t(tr, "setup.train_offline");
      model = core::train_offline(load.trace, load.train_end_ms,
                                  core::Method::Hybrid, pcfg);
    }
    {
      Span w(tr, "setup.warm_up");
      warm_up(load, model_ptr);
    }
    setup.push_back(s.close());
    setup_total += setup.back();
  }

  // ---- timed rounds ------------------------------------------------------
  // Every round has one max-rate pass (plus, traced, one with the layer
  // taps attached) and one paced pass. Rounds repeat until the run's time
  // budget cannot fit another, and every metric is the median over its
  // passes, so one slow spell of a shared machine moves it little.
  const std::int64_t budget_end =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<PassResult> plain, traced, paced;
  std::vector<PacedStats> pstats;
  for (std::size_t round = 0;; ++round) {
    const std::int64_t round_start = now_ns();
    PassOptions opt;
    {
      Span s(tr, "pass.max_rate");
      opt.keep_model = spec->mine && plain.empty();
      plain.push_back(run_pass(*spec, load, model_ptr, opt));
      opt.keep_model = false;
    }
    if (args.trace) {
      Span s(tr, "pass.max_rate.traced");
      opt.traced = true;
      traced.push_back(run_pass(*spec, load, model_ptr, opt));
      traced.back().queue_us = {};  // only its throughput is used
    }
    {
      Span s(tr, "pass.paced");
      opt.paced = true;
      opt.traced = args.trace;
      paced.push_back(run_pass(*spec, load, model_ptr, opt));
      pstats.push_back(summarize(paced.back()));
    }
    std::printf("round %zu max-rate: %.0f records/s, heap +%.3f MB, rss "
                "+%.2f MB\n",
                round + 1, rps(plain.back()), plain.back().heap_growth_mb,
                plain.back().rss_growth_mb);
    const PacedStats& ps = pstats.back();
    std::printf("round %zu paced: submit p50 %.3f us p99 %.3f us, alarm p50 "
                "%.4f ms p%d %.4f ms\n",
                round + 1, ps.submit_p50_us, ps.submit_p99_us, ps.alarm_p50_ms,
                ps.tail_pct, ps.alarm_tail_ms);
    const std::int64_t now = now_ns();
    if (budget_end - now < now - round_start) break;
  }

  // ---- correctness checks -----------------------------------------------
  std::uint64_t attempted = 0, failed = 0, shed = 0, quarantined = 0;
  std::vector<const PassResult*> all;
  for (const auto* v : {&plain, &traced, &paced})
    for (const auto& p : *v) all.push_back(&p);
  for (const PassResult* p : all) {
    attempted += p->submitted;
    failed += p->failed;
    shed += p->m.shed;
    quarantined += p->m.quarantined;
    if (!p->m.records_conserved() || p->m.ingested != p->submitted)
      fail("record conservation (ingested == records_out + quarantined + "
           "shed == submitted)");
  }
  double max_lateness_ms = 0.0;
  std::size_t untimed = 0;
  for (const auto& p : paced) {
    max_lateness_ms = std::max(max_lateness_ms, p.max_lateness_ms);
    untimed = std::max(untimed, p.alarms_untimed);
  }
  for (const auto& s : pstats)
    if (s.alarms == 0) fail("a paced pass timed no alarm");

  std::size_t diverged = 0;
  Reference ref;
  const core::OfflineModel* ref_model = nullptr;
  BatchMine bm;
  if (!spec->mine) {
    ref_model = &model;
    // The merged alarm list is deterministic at a fixed shard count: every
    // pass, paced or not, must issue the same alarms.
    for (const PassResult* p : all)
      if (alarms_diverged(p->predictions, plain.front().predictions) != 0)
        fail("alarms differ between passes at the same shard count");
  } else {
    bm = batch_mine(load, tr);
    for (const PassResult* p : all)
      if (p->mined_digest != bm.digest || p->folded != n)
        fail("MinerService final digest != batch fold of the sorted stream");
    std::printf("mined model digest %016llx (batch %016llx), %llu publishes\n",
                static_cast<unsigned long long>(plain.front().mined_digest),
                static_cast<unsigned long long>(bm.digest),
                static_cast<unsigned long long>(plain.front().publishes));
    // The layer split below replays the final mined model.
    if (args.trace) ref_model = &plain.front().final_model;
  }
  if (ref_model != nullptr) {
    ref = reference_replay(load, *ref_model, tr);
    if (args.perturb && !ref.predictions.empty()) {
      // Triggers fall on bucket ends, so no served alarm can match this one.
      core::Prediction extra = ref.predictions.front();
      extra.trigger_time_ms += 1;
      ref.predictions.push_back(std::move(extra));
    }
    if (!spec->mine)
      diverged = alarms_diverged(plain.front().predictions, ref.predictions);
  }

  // ---- input properties --------------------------------------------------
  const std::size_t templates =
      spec->mine ? bm.templates : model.helo.size();
  const std::size_t chains = spec->mine ? bm.chains : model.chains.size();
  std::printf("input: %zu records replayed (%zu in campaign), %zu templates, "
              "%zu chains, exact-repeat share %.4f, peak %zu records per "
              "trace-second, %zu alarms (%zu issued by finish), paced pass "
              "max generator lateness %.3f ms\n",
              n, load.trace.records.size(), templates, chains,
              load.repeat_share, load.peak_per_second,
              pstats.front().alarms + untimed, untimed, max_lateness_ms);
  std::printf("passes: %zu max-rate%s, %zu paced at %.0fx\n", plain.size(),
              args.trace ? " (+ as many traced)" : "", paced.size(),
              spec->speedup);

  Report rep;
  std::printf("metrics:\n");
  const std::string over_plain =
      "median of " + std::to_string(plain.size()) + " passes";
  const std::string over_paced =
      "median of " + std::to_string(paced.size()) + " paced passes";
  if (!args.trace) {
    std::vector<double> r, heap, rss;
    for (const auto& p : plain) {
      r.push_back(rps(p));
      heap.push_back(p.heap_growth_mb);
      rss.push_back(p.rss_growth_mb);
    }
    rep.add("setup_s", median(setup), "s",
            "median of " + std::to_string(setup.size()) + " set-ups");
    rep.add("replay_rps", median(r), "records/s", over_plain);
    rep.add("submit_p50_us",
            median_of(pstats, [](const PacedStats& s) { return s.submit_p50_us; }),
            "us", over_paced);
    rep.add("heap_growth_mb", median(heap), "MB", over_plain);
    // Printed, not bounded (see elsabench/README.md).
    rep.add("alarm_tail_ms",
            median_of(pstats, [](const PacedStats& s) { return s.alarm_tail_ms; }),
            "ms",
            "p" + std::to_string(pstats.front().tail_pct) + " of " +
                std::to_string(pstats.front().alarms) + " alarms per pass");
    rep.add("submit_p99_us",
            median_of(pstats, [](const PacedStats& s) { return s.submit_p99_us; }),
            "us", std::to_string(n) + " records per pass");
    rep.add("alarm_p50_ms",
            median_of(pstats, [](const PacedStats& s) { return s.alarm_p50_ms; }),
            "ms", over_paced);
    rep.add("rss_growth_mb", median(rss), "MB", over_plain);
    rep.add("records_failed",
            static_cast<double>(failed) / static_cast<double>(attempted),
            "share", std::to_string(failed) + " of " +
                         std::to_string(attempted) + " records");
    if (!spec->mine)
      rep.add("alarms_diverged", static_cast<double>(diverged), "count",
              std::to_string(plain.front().predictions.size()) +
                  " served vs " + std::to_string(ref.predictions.size()) +
                  " single-engine");
    else
      std::printf("  %-26s n/a (live hot-swapped model; checked by digest)\n",
                  "alarms_diverged");
  } else {
    // Offline stages, replayed on the model's kept artefacts.
    OfflineReplay off;
    if (!spec->mine) {
      off = replay_offline(load, model, pcfg, tr);
      if (!off.identical)
        fail("offline replay differs from train_offline: " + off.mismatch);
    }
    const double per_rec = 1e9 / static_cast<double>(n);
    const double cc_ns = ref.classify_const_seconds * per_rec;
    rep.add("helo.classify_const_ns", cc_ns, "ns");
    rep.add("helo.classify_ns",
            spec->mine ? bm.classify_seconds * 1e9 / static_cast<double>(n)
                       : tr.seconds("helo.classify") * 1e9 /
                             static_cast<double>(off.train_records),
            "ns", spec->mine ? "whole stream" : "training window");
    rep.add("helo.templates", static_cast<double>(templates), "count");
    std::vector<double> sub_s, fin_ms, r_plain, r_traced, depth;
    for (const auto& p : plain) {
      sub_s.push_back(p.submit_seconds);
      fin_ms.push_back(p.finish_seconds * 1e3);
      r_plain.push_back(rps(p));
    }
    for (const auto& p : traced) r_traced.push_back(rps(p));
    for (const auto& p : paced)
      depth.push_back(static_cast<double>(p.ring_depth_max));
    rep.add("serve.submit_self_ns", median(sub_s) * per_rec - cc_ns, "ns",
            "submit minus classify_const");
    rep.add("serve.finish_ms", median(fin_ms), "ms");
    rep.add("serve.queue_us_p50",
            median_of(pstats, [](const PacedStats& s) { return s.queue_p50_us; }),
            "us",
            spec->mine ? "n/a: the miner owns the event tap" : "paced pass");
    rep.add("serve.queue_us_p99",
            median_of(pstats, [](const PacedStats& s) { return s.queue_p99_us; }),
            "us");
    rep.add("serve.ring_depth_max", median(depth), "records", "paced pass");
    rep.add("serve.imbalance", imbalance(plain.front().processed), "ratio");
    rep.add("serve.shed", static_cast<double>(shed), "count");
    rep.add("serve.quarantined", static_cast<double>(quarantined), "count");
    rep.add("serve.alarms_diverged", static_cast<double>(diverged), "count");
    const auto& st = ref.stats;
    rep.add("elsa.engine.feed_ns", ref.feed_seconds * per_rec, "ns",
            "single-engine reference");
    rep.add("elsa.engine.buckets", static_cast<double>(st.buckets), "count");
    rep.add("elsa.engine.onsets", static_cast<double>(st.outlier_onsets),
            "count");
    rep.add("elsa.engine.predictions",
            static_cast<double>(st.predictions_emitted), "count");
    rep.add("elsa.engine.dupes", static_cast<double>(st.duplicates_suppressed),
            "count");
    const double emitted = static_cast<double>(st.predictions_emitted);
    const double tried = emitted + static_cast<double>(st.duplicates_suppressed);
    rep.add("elsa.engine.emit_ratio", tried > 0 ? emitted / tried : 0.0,
            "ratio");
    rep.add("elsa.train.signals_s", tr.seconds("elsa.train.signals"), "s");
    rep.add("elsa.train.profile_s", tr.seconds("elsa.train.profile"), "s");
    rep.add("elsa.train.outliers_s", tr.seconds("elsa.train.outliers"), "s");
    rep.add("elsa.train.grite_s", tr.seconds("elsa.train.grite"), "s");
    rep.add("elsa.train.location_s", tr.seconds("elsa.train.location"), "s");
    rep.add("signalkit.xcorr_s", tr.seconds("signalkit.xcorr"), "s");
    rep.add("mining.fold_ns",
            spec->mine ? bm.fold_seconds * 1e9 / static_cast<double>(bm.events)
                       : 0.0,
            "ns");
    rep.add("mining.build_model_ms", bm.build_seconds * 1e3, "ms");
    rep.add("mining.publishes", static_cast<double>(plain.front().publishes),
            "count");
    rep.add("mining.model_swaps",
            static_cast<double>(plain.front().m.model_swaps), "count");
    rep.add("mining.state_bytes", static_cast<double>(bm.state_bytes), "bytes");
    rep.add("mining.save_state_ms", bm.save_seconds * 1e3, "ms");
    const double up = median(r_plain), tp = median(r_traced);
    rep.add("bench.trace_overhead", up > 0 ? 1.0 - tp / up : 0.0, "share",
            "traced " + std::to_string(static_cast<long long>(tp)) +
                " vs untraced " + std::to_string(static_cast<long long>(up)) +
                " records/s");
    if (!args.spans.empty() && !tr.write_json(args.spans, spec->name, args.seed))
      fail("could not write the span file " + args.spans);
  }
  if (!rep.finite()) correct = false;
  rep.json(correct, attempted, failed, args.trace ? kPerLayer : kEndToEnd);
  return 0;
}

}  // namespace
}  // namespace elsabench

int main(int argc, char** argv) {
  elsabench::Args args;
  if (!elsabench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: elsabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--tiny 1] "
                 "[--perturb-reference 1]\n");
    return 2;
  }
  return elsabench::run(args);
}
