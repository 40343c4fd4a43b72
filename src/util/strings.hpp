// String helpers shared by the log generator (message formatting) and the
// HELO template miner (allocation-free tokenisation, numeric-token test).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace elsa::util {

/// Split on any of the given delimiter characters, dropping empty tokens.
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t");

/// Split preserving empty tokens (needed when message columns matter).
std::vector<std::string> split_keep_empty(std::string_view s, char delim);

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep = " ");

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// True if the token is entirely digits (possibly hex with 0x prefix),
/// a dotted decimal, or digit-dominated — HELO treats these as variables.
bool looks_numeric(std::string_view token);

/// One token of a tokenize()d string: a view into it, and its
/// looks_numeric() answer. Trivially constructible, so a caller's stack
/// buffer of them costs nothing until tokenize() fills it.
struct Token {
  const char* data;
  std::size_t size;
  bool numeric;
  std::string_view text() const { return {data, size}; }
};

/// Split on ' ' and '\t' like split(), but into the caller's `out` (at
/// most `capacity` tokens; the rest of `s` is ignored) in one pass that
/// also tallies each token for looks_numeric(). Returns the token count.
/// Allocates nothing; the tokens view `s`.
std::size_t tokenize(std::string_view s, Token* out, std::size_t capacity);

/// Render a duration in seconds as a compact human string ("54s", "9m",
/// "1.2h") for the report printers.
std::string human_duration(double seconds);

}  // namespace elsa::util
