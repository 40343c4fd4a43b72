// Fixture: the static-mutable rule. The first two declarations reproduce
// the bench result-cache bug (function-local mutable static containers);
// the rest are the shapes the rule must NOT fire on.
#include <map>
#include <string>
#include <vector>

int lookup(int key) {
  static std::map<int, int> cache;  // BAD: mutable magic-static
  return cache[key];
}

const std::string& name_of(int id) {
  static std::map<int,
                  std::string> names;  // BAD: multi-line declaration
  return names[id];
}

double mean(int n) {
  static const std::map<int, double> table = {{1, 0.5}};  // ok: const
  auto it = table.find(n);
  return it == table.end() ? 0.0 : it->second;
}

struct Miner {
  // ok: a member *function* returning a container, not a variable
  // (a static helper like this one — the rule must not misread it).
  static std::vector<std::string> generalize(const std::string& msg);
};

int counter() {
  static int calls = 0;  // ok: not a std:: container (out of scope here)
  return ++calls;
}

std::vector<int> build() {
  std::vector<int> local;  // ok: not static
  return local;
}
