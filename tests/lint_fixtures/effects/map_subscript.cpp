// realtime-allocates: `map[key]` inserts a node when the key is missing, so
// subscripting a std::map or unordered_map member or local is container
// growth. A vector subscript, and a map read through find(), are not; nor
// is a vector named like another function's local map.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

class Buckets {
 public:
  // elsa-realtime: must not touch the heap.
  void count(std::uint32_t id) { ++by_id_[id]; }

  // elsa-realtime: same for an ordered map.
  void order(int key) { this->ordered_[key] = 1; }

  // elsa-realtime: dense slots and a lookup allocate nothing.
  int dense(std::uint32_t id) const {
    const auto it = by_id_.find(id);
    return slots_[id] + (it == by_id_.end() ? 0 : it->second);
  }

  int tally(int key);
  int first(const std::vector<int>& counts) const;

 private:
  std::unordered_map<std::uint32_t, int> by_id_;
  std::map<int, int> ordered_;
  std::vector<int> slots_;
};

// elsa-realtime: a local map's subscript allocates too.
int Buckets::tally(int key) {
  std::map<int, int> counts;
  return ++counts[key];
}

// elsa-realtime: `counts` here is a vector, not tally()'s map.
int Buckets::first(const std::vector<int>& counts) const { return counts[0]; }
