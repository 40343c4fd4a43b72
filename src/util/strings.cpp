#include "util/strings.hpp"

#include <array>
#include <cstdint>
#include <cstdio>

namespace elsa::util {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_keep_empty(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

namespace {

// Byte classes of the numeric test, as ASCII ranges rather than <cctype>:
// the same answers as the "C" locale (bytes >= 0x80 are never digits or hex
// letters) without a locale lookup per byte. A table, so tallying a token
// takes no data-dependent branch.
enum : std::uint8_t { kOther, kDigit, kHexLetter, kSeparator };

constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  t['.'] = t[':'] = t['-'] = kDigit;
  for (int c = 'a'; c <= 'f'; ++c) t[c] = t[c - 'a' + 'A'] = kHexLetter;
  t[' '] = t['\t'] = kSeparator;
  return t;
}();

/// looks_numeric() from the token's tallies of kDigit and kHexLetter bytes.
bool numeric_verdict(std::string_view token, std::size_t digits,
                     std::size_t hex_letters) {
  const std::size_t others = token.size() - digits - hex_letters;
  // 0x-prefixed payloads are numeric whenever they are valid-ish hex: the
  // prefix's 'x' must be the only other byte.
  if (starts_with(token, "0x") || starts_with(token, "0X"))
    return token.size() > 2 && others == 1;
  // Otherwise require at least one real digit so ordinary words made of
  // a-f letters ("detected", "cafe") never read as numbers; hex letters
  // then count toward the numeric mass (addresses like 1a2b3c).
  if (digits == 0) return false;
  return others * 3 <= digits + hex_letters;
}

}  // namespace

bool looks_numeric(std::string_view token) {
  std::size_t digits = 0, hex_letters = 0;
  for (const char ch : token) {
    const std::uint8_t cls = kByteClass[static_cast<unsigned char>(ch)];
    digits += cls == kDigit;
    hex_letters += cls == kHexLetter;
  }
  return numeric_verdict(token, digits, hex_letters);
}

std::size_t tokenize(std::string_view s, Token* out, std::size_t capacity) {
  const char* p = s.data();
  const char* const end = p + s.size();
  std::size_t n = 0;
  while (n < capacity) {
    while (p != end && kByteClass[static_cast<unsigned char>(*p)] == kSeparator)
      ++p;
    if (p == end) break;
    const char* const begin = p;
    std::size_t digits = 0, hex_letters = 0;
    for (; p != end; ++p) {
      const std::uint8_t cls = kByteClass[static_cast<unsigned char>(*p)];
      if (cls == kSeparator) break;
      digits += cls == kDigit;
      hex_letters += cls == kHexLetter;
    }
    const std::string_view text(begin, static_cast<std::size_t>(p - begin));
    out[n++] = {begin, text.size(), numeric_verdict(text, digits, hex_letters)};
  }
  return n;
}

std::string human_duration(double seconds) {
  char buf[48];
  if (seconds < 60.0) {
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  }
  return buf;
}

}  // namespace elsa::util
