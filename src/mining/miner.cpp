#include "mining/miner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "elsa/grite.hpp"
#include "elsa/model_io.hpp"

namespace elsa::mining {

namespace {

constexpr std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Bit-exact double round-trip: text hexfloat parsing is unreliable across
/// standard libraries, so state files carry the raw IEEE-754 bit pattern.
std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double bits_double(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

}  // namespace

bool canonical_less(const serve::ClassifiedEvent& a,
                    const serve::ClassifiedEvent& b) {
  if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
  if (a.node_id != b.node_id) return a.node_id < b.node_id;
  if (a.tmpl != b.tmpl) return a.tmpl < b.tmpl;
  return a.severity < b.severity;
}

OnlineMiner::OnlineMiner(MinerConfig cfg) : cfg_(cfg) {
  if (cfg_.lookback > kNoSlot)
    throw std::invalid_argument("OnlineMiner: lookback must be below 2^32");
  ring_.resize(cfg_.lookback);
}

double OnlineMiner::decay_to_now(std::uint64_t last) const {
  if (cfg_.half_life_events <= 0.0 || last >= folded_) return 1.0;
  return std::exp2(-static_cast<double>(folded_ - last) /
                   cfg_.half_life_events);
}

// elsa-deterministic: fold state is a pure function of the event sequence
// — the online==batch equivalence gate replays it event for event.
void OnlineMiner::fold(const serve::ClassifiedEvent& e) {
  if (folded_ == 0) first_time_ms_ = e.time_ms;
  ++folded_;
  last_time_ms_ = e.time_ms;

  if (e.tmpl >= tstats_.size()) {
    tstats_.resize(e.tmpl + 1);
    lanes_.resize(e.tmpl + 1);
  }
  TemplateStat& t = tstats_[e.tmpl];
  t.count = t.count * decay_to_now(t.last) + 1.0;
  t.last = folded_;
  t.sev[std::min<std::size_t>(e.severity, 4)] += 1;

  // Pair the arrival against the lookback window, one pass per antecedent
  // template: one map lookup per (antecedent -> this) pair, its updates
  // applied in window order. Only the first update can decay (it stamps
  // p.last = folded_, so later ones see k == 1.0 and x * 1.0 == x): the
  // plain adds below are the per-slot updates bit for bit. Pairs are
  // independent, so the template order cannot affect the result; eviction
  // is deferred past the loop to keep it that way.
  const double dt = static_cast<double>(cfg_.dt_ms);
  const auto in_window = [&](const Slot& s) {
    return e.time_ms - s.time_ms <= cfg_.window_ms;
  };
  for (const std::uint32_t a : present_) {
    if (a == e.tmpl) continue;
    std::uint32_t s = lanes_[a].oldest;
    while (s != kNoSlot && !in_window(ring_[s])) s = ring_[s].next;
    if (s == kNoSlot) continue;
    const auto [it, inserted] = pairs_.try_emplace(pair_key(a, e.tmpl));
    keys_stale_ = keys_stale_ || inserted;
    PairStat& p = it->second;
    const double k = decay_to_now(p.last);
    double count = p.count * k + 1.0;
    double delay_sum = p.delay_sum * k +
                       static_cast<double>(e.time_ms - ring_[s].time_ms) / dt;
    for (s = ring_[s].next; s != kNoSlot; s = ring_[s].next) {
      if (!in_window(ring_[s])) continue;
      count += 1.0;
      delay_sum += static_cast<double>(e.time_ms - ring_[s].time_ms) / dt;
    }
    p.count = count;
    p.delay_sum = delay_sum;
    p.last = folded_;
  }
  if (pairs_.size() > cfg_.max_pairs) evict_pairs();

  while (ring_size_ > 0 &&
         (ring_size_ >= cfg_.lookback ||
          ring_[ring_head_].time_ms < e.time_ms - cfg_.window_ms))
    pop_recent();
  if (cfg_.lookback > 0) push_recent(e.time_ms, e.tmpl);
}

void OnlineMiner::push_recent(std::int64_t time_ms, std::uint32_t tmpl) {
  std::size_t slot = ring_head_ + ring_size_;
  if (slot >= ring_.size()) slot -= ring_.size();
  const auto idx = static_cast<std::uint32_t>(slot);
  ring_[slot] = {time_ms, tmpl, kNoSlot};
  Lane& lane = lanes_[tmpl];
  if (lane.newest == kNoSlot) {
    lane.oldest = idx;
    lane.pos = static_cast<std::uint32_t>(present_.size());
    present_.push_back(tmpl);
  } else {
    ring_[lane.newest].next = idx;
  }
  lane.newest = idx;
  ++ring_size_;
}

void OnlineMiner::pop_recent() {
  // The oldest slot overall is the oldest of its template.
  const Slot& s = ring_[ring_head_];
  Lane& lane = lanes_[s.tmpl];
  lane.oldest = s.next;
  if (lane.oldest == kNoSlot) {
    lane.newest = kNoSlot;
    const std::uint32_t moved = present_.back();
    present_[lane.pos] = moved;
    lanes_[moved].pos = lane.pos;
    present_.pop_back();
  }
  if (++ring_head_ == ring_.size()) ring_head_ = 0;
  --ring_size_;
}

void OnlineMiner::evict_pairs() {
  // Shrink to 7/8 of the cap in one pass (amortises the sort): evict the
  // lowest current decayed counts, ties broken by key — fully determined
  // by the fold history, never by hash-map iteration order.
  const std::size_t target = cfg_.max_pairs - cfg_.max_pairs / 8;
  std::vector<std::pair<double, std::uint64_t>> weights;
  weights.reserve(pairs_.size());
  // elsa-lint: allow(det-unordered-escape): collect-then-sort — every
  // (weight, key) lands in `weights`, which is sorted before any use, so
  // hash order never reaches the eviction decision.
  for (const auto& [key, p] : pairs_)
    weights.emplace_back(p.count * decay_to_now(p.last), key);
  std::sort(weights.begin(), weights.end());
  const std::size_t evict = pairs_.size() - target;
  for (std::size_t i = 0; i < evict; ++i) pairs_.erase(weights[i].second);
  keys_stale_ = true;
}

const std::vector<std::uint64_t>& OnlineMiner::sorted_keys() const {
  if (!keys_stale_) return keys_;
  keys_.clear();
  keys_.reserve(pairs_.size());
  // elsa-lint: allow(det-unordered-escape): collect-then-sort — the keys
  // are sorted on the next line; callers walk the sorted order only.
  for (const auto& [key, p] : pairs_) keys_.push_back(key);
  std::sort(keys_.begin(), keys_.end());
  keys_stale_ = false;
  return keys_;
}

simlog::Severity OnlineMiner::majority_severity(const TemplateStat& t) const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < 5; ++s)
    if (t.sev[s] > t.sev[best]) best = s;
  return static_cast<simlog::Severity>(best);
}

// elsa-deterministic: equal fold state must serialise to equal bytes —
// model_digest over this output is the cross-shard acceptance check.
core::OfflineModel OnlineMiner::build_model(
    const helo::TemplateMiner* classifier) const {
  core::OfflineModel model;
  model.method = core::Method::DataMining;
  if (classifier != nullptr) model.helo = *classifier;
  model.train_begin_ms = first_time_ms_;
  model.train_end_ms = last_time_ms_;

  const std::size_t T = tstats_.size();
  model.profiles.assign(T, core::SignalProfile{});  // Silent, spike 0.5:
  // identical to the engine's on-demand detector synthesis, so swapping
  // this model in mid-run never alters detector behaviour.
  model.tmpl_severity.resize(T);
  std::vector<double> occ(T);
  for (std::size_t t = 0; t < T; ++t) {
    model.tmpl_severity[t] = majority_severity(tstats_[t]);
    occ[t] = tstats_[t].count * decay_to_now(tstats_[t].last);
  }

  // Sorted key walk: every emission decision below follows the sorted
  // (antecedent, consequent) order, never unordered_map iteration order —
  // equal state therefore always serialises to equal bytes.
  const std::vector<std::uint64_t>& keys = sorted_keys();
  std::vector<std::vector<std::uint32_t>> adj(T);
  for (const std::uint64_t key : keys)
    adj[static_cast<std::uint32_t>(key >> 32)].push_back(
        static_cast<std::uint32_t>(key));

  const auto eff = [this](const PairStat& p) {
    return p.count * decay_to_now(p.last);
  };
  const auto mean_delay = [](const PairStat& p) {
    // Decay scales count and delay_sum by the same factor, so the mean is
    // the raw quotient.
    return p.count > 0.0 ? p.delay_sum / p.count : 0.0;
  };
  const auto rounded_delay = [&](const PairStat& p) {
    return static_cast<std::int32_t>(
        std::max<long long>(1, std::llround(mean_delay(p))));
  };

  for (const std::uint64_t key : keys) {
    const auto a = static_cast<std::uint32_t>(key >> 32);
    const auto f = static_cast<std::uint32_t>(key);
    if (a == f || !simlog::is_failure_severity(model.tmpl_severity[f]))
      continue;
    const PairStat& af = pairs_.at(key);
    const double s_af = eff(af);
    if (s_af < cfg_.min_support || occ[a] <= 0.0) continue;
    const double conf = s_af / occ[a];
    if (conf < cfg_.min_confidence) continue;
    const std::int32_t th_af = rounded_delay(af);

    core::Chain two;
    two.items = {{a, 0}, {f, th_af}};
    two.support = static_cast<int>(std::llround(s_af));
    two.confidence = conf;
    two.significance = conf;

    // 3-item extensions a -> b -> f, GRITE delay-consistent: the measured
    // a->f delay must agree with theta_ab + theta_bf within the SAME slack
    // formula the offline miner uses.
    std::vector<core::Chain> threes;
    double best3 = 0.0;
    for (const std::uint32_t b : adj[a]) {
      if (b == f || b == a) continue;
      const auto bf_it = pairs_.find(pair_key(b, f));
      if (bf_it == pairs_.end()) continue;
      const PairStat& ab = pairs_.at(pair_key(a, b));
      const PairStat& bf = bf_it->second;
      const std::int32_t th_ab = rounded_delay(ab);
      const std::int32_t th_bf = rounded_delay(bf);
      if (th_ab >= th_af) continue;  // b must sit strictly inside the span
      if (!core::grite_delay_consistent(th_af, th_ab + th_bf, cfg_.tolerance,
                                        cfg_.tolerance_frac))
        continue;
      const double s3 = std::min({eff(ab), eff(bf), s_af});
      if (s3 < cfg_.min_support) continue;
      const double conf3 = s3 / occ[a];
      if (conf3 < cfg_.min_confidence) continue;
      core::Chain three;
      three.items = {{a, 0}, {b, th_ab}, {f, th_af}};
      three.support = static_cast<int>(std::llround(s3));
      three.confidence = conf3;
      three.significance = conf3;
      best3 = std::max(best3, s3);
      threes.push_back(std::move(three));
    }

    // Subsume: a strong 3-chain over the same (a, f) makes the bare pair
    // redundant.
    const bool keep2 = cfg_.subsume_support_ratio <= 0.0 ||
                       best3 < cfg_.subsume_support_ratio * s_af;
    if (keep2) model.chains.push_back(std::move(two));
    for (core::Chain& c : threes) model.chains.push_back(std::move(c));
  }

  model.non_error_chains =
      core::annotate_failure_items(model.chains, model.tmpl_severity);
  return model;
}

// elsa-deterministic: the state file is canonical — a save/load round trip
// must reproduce byte-identical saves whatever the map's hash order.
void OnlineMiner::save_state(std::ostream& os) const {
  os << "elsa-miner-state 1\n";
  os << "folded " << folded_ << " first " << first_time_ms_ << " last "
     << last_time_ms_ << "\n";
  os << "templates " << tstats_.size() << "\n";
  for (const TemplateStat& t : tstats_) {
    os << "t " << double_bits(t.count) << " " << t.last;
    for (std::size_t s = 0; s < 5; ++s) os << " " << t.sev[s];
    os << "\n";
  }
  os << "recent " << ring_size_ << "\n";
  for (std::size_t i = 0, slot = ring_head_; i < ring_size_; ++i) {
    os << "r " << ring_[slot].time_ms << " " << ring_[slot].tmpl << "\n";
    if (++slot == ring_.size()) slot = 0;
  }
  const std::vector<std::uint64_t>& keys = sorted_keys();
  os << "pairs " << keys.size() << "\n";
  for (const std::uint64_t key : keys) {
    const PairStat& p = pairs_.at(key);
    os << "p " << key << " " << double_bits(p.count) << " "
       << double_bits(p.delay_sum) << " " << p.last << "\n";
  }
  os << "end\n";
}

void OnlineMiner::load_state(std::istream& is) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("OnlineMiner::load_state: ") + what);
  };
  // A count may not promise more rows than the input holds: a row of `k`
  // fields takes at least 2k - 1 bytes. Only seekable streams can tell;
  // the others grow row by row, so a false count still fails on the
  // first missing row rather than allocating up front.
  const auto check_rows = [&is, &fail](std::uint64_t n, std::uint64_t fields,
                                       const char* what) {
    const auto here = is.tellg();
    if (here < 0) return;
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(here);
    if (end >= here && n > static_cast<std::uint64_t>(end - here) /
                               (2 * fields - 1))
      fail(what);
  };
  std::string word;
  int version = 0;
  if (!(is >> word >> version) || word != "elsa-miner-state" || version != 1)
    fail("bad header");
  std::uint64_t folded = 0;
  std::int64_t first = 0, last = 0;
  if (!(is >> word >> folded) || word != "folded") fail("bad folded");
  if (!(is >> word >> first) || word != "first") fail("bad first");
  if (!(is >> word >> last) || word != "last") fail("bad last");
  std::uint64_t n = 0;
  if (!(is >> word >> n) || word != "templates") fail("bad templates");
  if (n > kNoSlot) fail("template count exceeds the id space");
  check_rows(n, 8, "template count exceeds the input");
  std::vector<TemplateStat> tstats;
  while (tstats.size() < n) {
    TemplateStat t;
    std::uint64_t cnt = 0;
    if (!(is >> word >> cnt >> t.last) || word != "t") fail("bad template row");
    t.count = bits_double(cnt);
    for (std::size_t s = 0; s < 5; ++s)
      if (!(is >> t.sev[s])) fail("bad severity row");
    tstats.push_back(t);
  }
  const std::uint64_t templates = tstats.size();

  if (!(is >> word >> n) || word != "recent") fail("bad recent");
  if (n > cfg_.lookback) fail("more recent rows than lookback");
  check_rows(n, 3, "recent count exceeds the input");
  std::vector<Slot> recent;
  recent.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot r{0, 0, kNoSlot};
    if (!(is >> word >> r.time_ms >> r.tmpl) || word != "r")
      fail("bad recent row");
    if (r.tmpl >= templates) fail("recent template id out of range");
    if (!recent.empty() && r.time_ms < recent.back().time_ms)
      fail("recent rows out of time order");
    recent.push_back(r);
  }

  if (!(is >> word >> n) || word != "pairs") fail("bad pairs");
  if (n > cfg_.max_pairs) fail("more pairs than max_pairs");
  check_rows(n, 5, "pair count exceeds the input");
  std::unordered_map<std::uint64_t, PairStat> pairs;
  pairs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t key = 0, cnt = 0, dsum = 0;
    PairStat p;
    if (!(is >> word >> key >> cnt >> dsum >> p.last) || word != "p")
      fail("bad pair row");
    const std::uint64_t a = key >> 32, b = key & 0xffffffffu;
    if (a == b) fail("self pair");
    if (a >= templates || b >= templates) fail("pair template id out of range");
    p.count = bits_double(cnt);
    p.delay_sum = bits_double(dsum);
    if (!pairs.emplace(key, p).second) fail("duplicate pair key");
  }
  if (!(is >> word) || word != "end") fail("missing trailer");

  folded_ = folded;
  first_time_ms_ = first;
  last_time_ms_ = last;
  tstats_ = std::move(tstats);
  pairs_ = std::move(pairs);
  keys_stale_ = true;
  lanes_.assign(tstats_.size(), Lane{});
  present_.clear();
  ring_head_ = 0;
  ring_size_ = 0;
  for (const Slot& r : recent) push_recent(r.time_ms, r.tmpl);
}

// elsa-deterministic: the rolling publish-history digest the CI equivalence
// job compares across the online and batch legs.
std::uint64_t chain_publish_digest(std::uint64_t stream, std::uint64_t model) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((model >> (8 * i)) & 0xff);
  return stream == 0
             ? core::fnv1a_digest(std::string_view(bytes, 8))
             : core::fnv1a_digest(std::string_view(bytes, 8), stream);
}

// elsa-deterministic: the single-threaded reference leg of the
// online==batch gate — by construction a function of `events` alone.
BatchMineResult batch_mine(const std::vector<serve::ClassifiedEvent>& events,
                           const MinerConfig& cfg, std::size_t publish_every,
                           const helo::TemplateMiner& classifier) {
  BatchMineResult out;
  OnlineMiner miner(cfg);
  for (const serve::ClassifiedEvent& e : events) {
    miner.fold(e);
    if (publish_every != 0 && miner.folded() % publish_every == 0) {
      const std::uint64_t d =
          core::model_digest(miner.build_model(nullptr));
      out.publish_digest = chain_publish_digest(out.publish_digest, d);
      ++out.publishes;
    }
  }
  out.model = miner.build_model(&classifier);
  out.model_digest = core::model_digest(out.model);
  return out;
}

}  // namespace elsa::mining
