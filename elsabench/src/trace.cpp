// Span recorder and the small statistics helpers the benchmark shares.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hpp"

namespace elsabench {

int Tracer::begin(const char* name) {
  Record s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double Tracer::end(int id) {
  Record& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = now_ns();
  // Spans close innermost-first; tolerate a caller closing out of order.
  open_.erase(std::remove(open_.begin(), open_.end(), id), open_.end());
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double Tracer::seconds(const char* name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
    if (it->name == name && it->end_ns >= 0)
      return static_cast<double>(it->end_ns - it->start_ns) * 1e-9;
  return 0.0;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"unit\": \"us\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"parent\": " << s.parent
       << ", \"start\": " << (s.start_ns - t0) / 1000
       << ", \"end\": " << (s.end_ns < 0 ? -1 : (s.end_ns - t0) / 1000) << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace elsabench
