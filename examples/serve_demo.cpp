// Serving-layer walkthrough: the deployment shape the `src/serve/`
// subsystem adds on top of the paper's pipeline. An offline phase learns
// the model; the trace replayer then impersonates a live syslog feed,
// pushing the test period through the sharded prediction service at a
// large speed-up while this thread streams the alarms out, exactly as an
// operator console would. Finishes with the service's metrics report and
// a determinism check of the sharded run against a single engine.
//
//   ./build/examples/serve_demo [shards] [speedup] [duration_days] [seed]
//
// speedup is trace-seconds per wall-second; 0 replays as fast as possible.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "elsa/pipeline.hpp"
#include "serve/replayer.hpp"
#include "serve/service.hpp"
#include "serve/tap.hpp"
#include "simlog/scenario.hpp"
#include "util/ascii.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace elsa;

  const std::size_t shards = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const double speedup = argc > 2 ? std::atof(argv[2]) : 50'000.0;
  const double days = argc > 3 ? std::atof(argv[3]) : 8.0;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 2012;

  std::cout << "== elsa-serve demo ==\n";
  auto scenario = simlog::make_bluegene_scenario(seed, days, 40);
  const auto trace = scenario.generator.generate(scenario.config);
  const double train_days = std::min(scenario.train_days, days / 2.0);
  const std::int64_t train_end =
      trace.t_begin_ms + static_cast<std::int64_t>(train_days * 86'400'000.0);

  std::cout << "offline phase: learning from the first " << train_days
            << " days...\n";
  core::PipelineConfig cfg;
  const auto model =
      core::train_offline(trace, train_end, core::Method::Hybrid, cfg);
  std::cout << "  " << model.helo.size() << " event types, "
            << model.chains.size() << " chains\n\n";

  serve::ServiceConfig scfg;
  scfg.shards = shards;
  serve::AlarmFeed feed;
  scfg.tap = &feed;
  serve::PredictionService service(trace.topology, model, scfg);

  serve::ReplayOptions ro;
  ro.speedup = speedup;
  ro.from_ms = train_end;
  const serve::TraceReplayer replayer(trace, ro);

  std::cout << "serving " << shards << " shards at "
            << (speedup > 0 ? util::format_double(speedup, 0) + "x"
                            : std::string("max"))
            << " replay speed...\n";
  std::atomic<bool> done{false};
  std::size_t accepted = 0;
  std::thread producer([&] {
    accepted = replayer.replay_into(service);
    done.store(true);
  });

  std::vector<core::Prediction> alarms;
  std::size_t printed = 0;
  const auto drain = [&] {
    feed.poll(alarms);
    for (const auto& p : alarms) {
      if (printed >= 10) break;
      ++printed;
      std::cout << "[" << util::human_duration(
                       static_cast<double>(p.issue_time_ms) / 1000.0)
                << "] ALARM "
                << (p.nodes.empty() ? std::string("SYSTEM")
                                    : trace.topology.code(p.nodes.front()))
                << " in " << util::human_duration(
                       static_cast<double>(p.lead_ms) / 1000.0)
                << ": " << model.helo.at(p.tmpl).text().substr(0, 60) << "\n";
    }
    alarms.clear();
  };
  while (!done.load()) {
    drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  producer.join();
  service.finish(trace.t_end_ms);
  drain();

  std::cout << "\n" << service.metrics_report();
  std::cout << "\ndeterminism check vs a single engine... " << std::flush;
  core::OnlineEngine single(trace.topology, model.chains, model.profiles,
                            scfg.engine);
  for (const auto& rec : trace.records) {
    if (rec.time_ms < train_end) continue;
    single.feed(rec, service.classify(rec.message));
  }
  single.finish(trace.t_end_ms);
  std::cout << (single.predictions().size() == service.predictions().size()
                    ? "same alarm count"
                    : "DIFFERENT (non-location-confined chains present)")
            << " (" << service.predictions().size() << " sharded vs "
            << single.predictions().size() << " single)\n";
  return 0;
}
