#include "lint_rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace elsa::lint {

namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Copy of `contents` with comments and string/char-literal interiors
/// blanked to spaces (newlines preserved), so token rules never fire on
/// documentation or test strings. Handles //, /*...*/, "...", '...' and
/// R"delim(...)delim"; digit separators (1'000'000) stay untouched.
std::string strip_code(const std::string& in) {
  enum class St : std::uint8_t { Normal, Line, Block, Str, Chr, Raw };
  St st = St::Normal;
  std::string out;
  out.reserve(in.size());
  std::string raw_close;  // ")delim\"" for the current raw string
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::Normal:
        if (c == '/' && n == '/') {
          st = St::Line;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::Block;
          out += "  ";
          ++i;
        } else if (c == 'R' && n == '"' && (i == 0 || !is_word(in[i - 1]))) {
          // Raw string: find the delimiter between " and (.
          std::size_t p = i + 2;
          std::string delim;
          while (p < in.size() && in[p] != '(') delim += in[p++];
          raw_close = ")" + delim + "\"";
          st = St::Raw;
          out += ' ';
          out += ' ';
          for (std::size_t k = i + 2; k <= p && k < in.size(); ++k)
            out += in[k] == '\n' ? '\n' : ' ';
          i = p;  // consumed through '('
        } else if (c == '"') {
          st = St::Str;
          out += ' ';
        } else if (c == '\'' && (i == 0 || !is_word(in[i - 1]))) {
          st = St::Chr;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case St::Line:
        if (c == '\n') {
          st = St::Normal;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case St::Block:
        if (c == '*' && n == '/') {
          st = St::Normal;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::Str:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = St::Normal;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::Chr:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::Normal;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::Raw:
        if (in.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t k = 0; k < raw_close.size(); ++k) out += ' ';
          i += raw_close.size() - 1;
          st = St::Normal;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

// ---------------------------------------------------------------------------
// Module layering

/// Allowed cross-module includes, lowest layer first. A module may always
/// include itself; anything else must be listed here. simlog/signalkit and
/// the other mid-layers can never see serve/, which keeps the serving tier
/// a pure consumer of the analysis core.
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"util", {}},
      {"topology", {"util"}},
      {"simlog", {"util", "topology"}},
      {"helo", {"util"}},
      {"signalkit", {"util"}},
      {"ckpt", {"util"}},
      {"elsa", {"util", "topology", "simlog", "helo", "signalkit"}},
      {"faultinject", {"util", "topology", "simlog"}},
      {"serve",
       {"util", "topology", "simlog", "helo", "signalkit", "elsa",
        "faultinject"}},
      {"advisor",
       {"util", "topology", "simlog", "helo", "signalkit", "ckpt", "elsa",
        "faultinject", "serve"}},
      {"mining",
       {"util", "topology", "simlog", "helo", "signalkit", "elsa",
        "faultinject", "serve"}},
  };
  return deps;
}

/// Module a path belongs to: the component after "src", else the first
/// component — empty when the path maps to no known module.
std::string module_of(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  const auto& deps = layer_deps();
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src" && deps.count(parts[i + 1])) return parts[i + 1];
  }
  if (parts.size() >= 2 && deps.count(parts.front())) return parts.front();
  return "";
}

// ---------------------------------------------------------------------------
// Suppression:  // elsa-lint: allow(<rule>): <reason>

struct Suppression {
  std::string rule;
  bool has_reason = false;
};

std::vector<Suppression> suppressions_on(const std::string& raw_line) {
  std::vector<Suppression> out;
  const std::string marker = "elsa-lint:";
  std::size_t pos = 0;
  while ((pos = raw_line.find(marker, pos)) != std::string::npos) {
    std::size_t p = pos + marker.size();
    while (p < raw_line.size() && raw_line[p] == ' ') ++p;
    const std::string allow = "allow(";
    if (raw_line.compare(p, allow.size(), allow) == 0) {
      p += allow.size();
      const std::size_t close = raw_line.find(')', p);
      if (close != std::string::npos) {
        Suppression s;
        s.rule = raw_line.substr(p, close - p);
        std::size_t q = close + 1;
        while (q < raw_line.size() && (raw_line[q] == ' ' || raw_line[q] == ':'))
          ++q;
        s.has_reason = raw_line.find(':', close) != std::string::npos &&
                       q < raw_line.size() && !trim(raw_line.substr(q)).empty();
        out.push_back(s);
      }
    }
    pos += marker.size();
  }
  return out;
}

/// True if line `idx` (0-based) or the 3 lines above carry a matching
/// allow() with a reason.
bool is_suppressed(const std::vector<std::string>& raw, std::size_t idx,
                   const std::string& rule) {
  const std::size_t lo = idx >= 3 ? idx - 3 : 0;
  for (std::size_t i = lo; i <= idx; ++i) {
    for (const Suppression& s : suppressions_on(raw[i])) {
      if (s.rule == rule && s.has_reason) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token scanning helpers

/// Find calls of `name` (optionally std:: or :: qualified, nothing else)
/// in a comment-stripped line; returns byte offsets of the identifier.
std::vector<std::size_t> find_banned_calls(const std::string& code,
                                           const std::string& name) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const std::size_t start = pos;
    const std::size_t end = pos + name.size();
    pos = end;
    if (end < code.size() && is_word(code[end])) continue;  // lgamma_r etc.
    // Must be a call: next non-space is '('.
    std::size_t p = end;
    while (p < code.size() && (code[p] == ' ' || code[p] == '\t')) ++p;
    if (p >= code.size() || code[p] != '(') continue;
    // Inspect the qualifier. Bare, std:: and global :: are the libc
    // entry points; any other qualifier (obj., other_ns::, ->) is a
    // different function and legal.
    if (start == 0) {
      hits.push_back(start);
      continue;
    }
    const char prev = code[start - 1];
    if (is_word(prev) || prev == '.') continue;  // member/part of identifier
    if (prev == '>') continue;                   // ptr->rand()
    if (prev == ':') {
      if (start < 2 || code[start - 2] != ':') continue;  // lone ':' — label?
      std::size_t q = start - 2;  // points at first ':' of "::"
      // Walk the qualifier identifier before "::".
      std::size_t qe = q;
      while (qe > 0 && is_word(code[qe - 1])) --qe;
      const std::string qual = code.substr(qe, q - qe);
      if (!qual.empty() && qual != "std") continue;  // other namespace
    }
    hits.push_back(start);
  }
  return hits;
}

/// Occurrences of `token` with word boundaries on both sides.
std::vector<std::size_t> find_token(const std::string& code,
                                    const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const std::size_t start = pos;
    const std::size_t end = pos + token.size();
    pos = end;
    if (start > 0 && is_word(code[start - 1])) continue;
    if (end < code.size() && is_word(code[end])) continue;
    hits.push_back(start);
  }
  return hits;
}

/// Containers whose function-local `static` instances have repeatedly
/// turned out to be hidden shared mutable state (the bench_common.hpp
/// result-cache bug): flagged unless declared const/constexpr.
const std::set<std::string>& mutable_container_names() {
  static const std::set<std::string> names = {
      "map",      "unordered_map", "multimap", "unordered_multimap",
      "set",      "unordered_set", "multiset", "unordered_multiset",
      "vector",   "deque",         "list",     "forward_list",
      "string",   "basic_string"};
  return names;
}

/// Detect `static std::<container>... name ...` declarations that are not
/// const-qualified and not function declarations. `window` is the
/// comment-stripped text starting at the byte after the `static` token
/// (may span several joined lines so multi-line declarations parse).
bool is_mutable_static_container(const std::string& window) {
  std::size_t p = 0;
  const auto skip_ws = [&] {
    while (p < window.size() &&
           (window[p] == ' ' || window[p] == '\t'))
      ++p;
  };
  const auto read_word = [&] {
    std::string w;
    while (p < window.size() && is_word(window[p])) w += window[p++];
    return w;
  };

  // Specifiers between `static` and the type. const/constexpr make the
  // object immutable after its (thread-safe) dynamic initialization.
  for (;;) {
    skip_ws();
    const std::size_t mark = p;
    const std::string w = read_word();
    if (w == "const" || w == "constexpr") return false;
    if (w == "inline" || w == "thread_local" || w == "volatile") continue;
    p = mark;
    break;
  }

  // The type must be std::<container>.
  if (window.compare(p, 5, "std::") != 0) return false;
  p += 5;
  const std::string container = read_word();
  if (!mutable_container_names().count(container)) return false;

  // Balance template arguments, treating ">>" as two closes.
  skip_ws();
  if (p < window.size() && window[p] == '<') {
    int depth = 0;
    while (p < window.size()) {
      if (window[p] == '<') ++depth;
      else if (window[p] == '>' && --depth == 0) { ++p; break; }
      ++p;
    }
    if (depth != 0) return false;  // declaration continues past the window
  }

  // `const` after the type also makes it immutable.
  for (;;) {
    skip_ws();
    const std::size_t mark = p;
    const std::string w = read_word();
    if (w == "const") return false;
    if (w.empty()) { p = mark; break; }
    // First word after the type: the declared name (references/pointers to
    // the container get no special treatment — skip any sigils first).
    p = mark;
    break;
  }
  while (p < window.size() &&
         (window[p] == '&' || window[p] == '*' || window[p] == ' '))
    ++p;
  const std::string name = read_word();
  if (name.empty()) return false;

  // An identifier followed by '(' is a function declaration returning the
  // container (`static std::vector<...> split(...)`) — a different thing
  // entirely.
  skip_ws();
  return p >= window.size() || window[p] != '(';
}

// ---------------------------------------------------------------------------
// Lock-graph analysis (lock-cycle / cv-wait-extra-lock / blocking-under-lock)
//
// A deliberately lexical whole-project pass: tokenize each file (comments
// and strings already stripped), track class/function/block scopes by
// brace nesting, and follow the held-lock set through every function body.
// Locks are identified as `Class::member` (or `file::name` for locals and
// free mutexes); acquisition edges come from three sources:
//   1. lexical nesting — a MutexLock (or .lock()) taken while another is
//      lexically held;
//   2. ELSA_REQUIRES on a function — its body starts with those locks held;
//   3. call sites — calling a method whose declaration carries
//      ELSA_EXCLUDES / ELSA_ACQUIRE (i.e. the callee takes that lock)
//      while a lock is held.
// Lambdas are *barriers*: a lambda body frequently runs on another thread
// (worker loops, deferred tasks), so locks held at the capture site are
// not considered held inside it.

/// One token: identifier-ish (identifiers, keywords, numbers) or a single
/// punctuation glyph ("::" and "->" kept whole). Preprocessor directive
/// lines are dropped entirely — include paths and macro bodies are not
/// acquisition events.
struct Tok {
  bool ident = false;
  std::string text;
  std::size_t line = 1;
};

std::vector<Tok> tokenize(const std::string& stripped) {
  std::vector<Tok> toks;
  std::size_t line = 1;
  bool directive = false;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      directive = false;
      continue;
    }
    if (directive) continue;
    if (c == '#') {
      directive = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') continue;
    if (is_word(c)) {
      std::string w;
      while (i < stripped.size() && is_word(stripped[i])) w += stripped[i++];
      --i;
      toks.push_back({true, std::move(w), line});
      continue;
    }
    const char n = i + 1 < stripped.size() ? stripped[i + 1] : '\0';
    if ((c == ':' && n == ':') || (c == '-' && n == '>')) {
      toks.push_back({false, std::string{c, n}, line});
      ++i;
      continue;
    }
    toks.push_back({false, std::string(1, c), line});
  }
  return toks;
}

bool is_control_kw(const std::string& t) {
  static const std::set<std::string> kw = {"if",   "while",  "for",  "switch",
                                          "do",   "else",   "try",  "catch",
                                          "case", "default", "return"};
  return kw.count(t) > 0;
}

bool is_annotation_macro(const std::string& t) {
  return t.rfind("ELSA_", 0) == 0;
}

struct Scope {
  enum Kind : std::uint8_t { kClass, kNamespace, kFunction, kLambda, kBlock };
  Kind kind = kBlock;
  std::string name;  ///< class name, or "Class::fn" / "fn" for functions
  std::string cls;   ///< enclosing class of a kFunction ("" for free fns)
  std::size_t sig_line = 0;   ///< line of the declaration's first token
  std::size_t open_line = 0;  ///< line of the opening brace
  std::size_t ann_floor = 0;  ///< line of the token before the declaration
  std::vector<std::string> requires_locks;  ///< raw ELSA_REQUIRES arg names
  // Pass-B payload:
  std::size_t held_floor = 0;
  std::vector<struct HeldLock> stash;  ///< kLambda barrier stash
};

struct HeldLock {
  std::string id;
  std::string file;
  std::size_t line = 0;
  std::size_t depth = 0;  ///< scopes.size() when acquired
  std::string var;        ///< MutexLock variable name ("" for direct locks)
};

/// Parse the identifier arguments of an annotation macro starting at the
/// "(" token `open`; returns raw names ("mu_", negations skipped).
std::vector<std::string> annotation_args(const std::vector<Tok>& t,
                                         std::size_t open) {
  std::vector<std::string> args;
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (!t[i].ident) {
      if (t[i].text == "(") ++depth;
      else if (t[i].text == ")" && --depth == 0) break;
      continue;
    }
    if (depth == 1) args.push_back(t[i].text);
  }
  return args;
}

/// Brace-scope walker shared by the two lock-graph passes. step(i) must be
/// called for every token in order; it maintains the scope stack, paren
/// depth and statement starts, and reports scope opens/closes.
class ScopeWalker {
 public:
  explicit ScopeWalker(const std::vector<Tok>& toks) : t_(toks) {}

  struct Event {
    bool opened = false;
    bool closed = false;
    Scope closed_scope;  ///< valid when closed
  };

  Event step(std::size_t i) {
    Event ev;
    const Tok& tk = t_[i];
    if (tk.ident) return ev;
    if (tk.text == "(") {
      ++paren_;
    } else if (tk.text == ")") {
      if (paren_ > 0) --paren_;
    } else if (tk.text == ";") {
      if (paren_ == 0) stmt_ = i + 1;
    } else if (tk.text == "{") {
      scopes_.push_back(classify(i));
      stmt_ = i + 1;
      ev.opened = true;
    } else if (tk.text == "}") {
      if (!scopes_.empty()) {
        ev.closed = true;
        ev.closed_scope = std::move(scopes_.back());
        scopes_.pop_back();
      }
      stmt_ = i + 1;
    }
    return ev;
  }

  const std::vector<Scope>& scopes() const { return scopes_; }
  std::vector<Scope>& scopes() { return scopes_; }
  int paren() const { return paren_; }

  /// Innermost class name, if any.
  std::string ctx_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kFunction && !it->cls.empty()) return it->cls;
    }
    return "";
  }

  /// Fully qualified context (namespaces + classes, outermost first), e.g.
  /// "elsa::serve::SpscRing". An out-of-class member definition
  /// (`void X::fn() { ... }`) contributes its class the same way an
  /// in-class body does, so accesses in both spellings fuse to one id.
  std::string ctx_qualified() const {
    std::string q;
    const auto append = [&q](const std::string& part) {
      if (part.empty()) return;
      if (!q.empty()) q += "::";
      q += part;
    };
    bool saw_class = false;
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kNamespace) {
        append(s.name);
      } else if (s.kind == Scope::kClass) {
        append(s.name);
        saw_class = true;
      } else if (s.kind == Scope::kFunction && !s.cls.empty() && !saw_class) {
        // Out-of-class definition: the `X::` qualifier is the class scope.
        append(s.cls);
        saw_class = true;
      }
    }
    return q;
  }

  bool in_code() const {
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::kFunction || s.kind == Scope::kLambda) return true;
    }
    return false;
  }

 private:
  Scope classify(std::size_t open) const {
    Scope s;
    // A brace inside parentheses is expression context: a lambda body or a
    // braced initializer. Either way, a barrier scope.
    if (paren_ > 0) {
      s.kind = Scope::kLambda;
      return s;
    }
    const std::size_t lo = stmt_;
    if (lo >= open) return s;  // bare block
    // Annotation window bookkeeping for the effect pass: where the
    // declaration's tokens start/end, and a floor (the previous token's
    // line) so a marker above one function can never bleed into the next.
    s.sig_line = t_[lo].line;
    s.open_line = t_[open].line;
    s.ann_floor = lo > 0 ? t_[lo - 1].line : 0;
    // Control-flow statements own plain blocks.
    if (t_[lo].ident && is_control_kw(t_[lo].text)) return s;
    std::size_t first_paren = open;
    std::size_t last_class_ident = open;
    bool has_namespace = false;
    for (std::size_t i = lo; i < open; ++i) {
      const Tok& tk = t_[i];
      if (tk.ident && tk.text == "namespace") has_namespace = true;
      if (tk.ident && (tk.text == "class" || tk.text == "struct") &&
          (i == lo || !(t_[i - 1].ident && t_[i - 1].text == "enum")) &&
          i + 1 < open && t_[i + 1].ident) {
        // The name may be pushed right by an alignas-specifier:
        // `struct alignas(64) Cell {`.
        std::size_t j = i + 1;
        if (t_[j].text == "alignas" && j + 1 < open && !t_[j + 1].ident &&
            t_[j + 1].text == "(") {
          int d = 0;
          for (j = j + 1; j < open; ++j) {
            if (t_[j].ident) continue;
            if (t_[j].text == "(") ++d;
            else if (t_[j].text == ")" && --d == 0) { ++j; break; }
          }
        }
        if (j < open && t_[j].ident) last_class_ident = j;
      }
      // An alignas-specifier's parens are not a function parameter list.
      if (!tk.ident && tk.text == "(" && first_paren == open &&
          !(i > lo && t_[i - 1].ident && t_[i - 1].text == "alignas"))
        first_paren = i;
      // Lambda introducer: '[' at statement start or after (, comma, =,
      // return — but not '[[' attributes or array subscripts.
      if (!tk.ident && tk.text == "[") {
        const bool attr = i + 1 < open && !t_[i + 1].ident &&
                          t_[i + 1].text == "[";
        const bool intro =
            i == lo ||
            (!t_[i - 1].ident && (t_[i - 1].text == "(" ||
                                  t_[i - 1].text == "," ||
                                  t_[i - 1].text == "=")) ||
            (t_[i - 1].ident && t_[i - 1].text == "return");
        if (!attr && intro) {
          s.kind = Scope::kLambda;
          return s;
        }
      }
    }
    if (has_namespace) {
      s.kind = Scope::kNamespace;
      // Capture the (possibly nested, possibly anonymous) namespace name:
      // identifiers joined by "::" between `namespace` and the brace.
      for (std::size_t i = lo; i < open; ++i) {
        if (!(t_[i].ident && t_[i].text == "namespace")) continue;
        for (std::size_t j = i + 1; j < open; ++j) {
          if (t_[j].ident) {
            if (!s.name.empty()) s.name += "::";
            s.name += t_[j].text;
          } else if (t_[j].text != "::") {
            break;
          }
        }
        break;
      }
      return s;
    }
    if (last_class_ident < open && last_class_ident > lo &&
        first_paren > last_class_ident) {
      s.kind = Scope::kClass;
      s.name = t_[last_class_ident].text;
      return s;
    }
    if (first_paren < open && first_paren > lo && t_[first_paren - 1].ident) {
      s.kind = Scope::kFunction;
      const std::string fn = t_[first_paren - 1].text;
      if (first_paren >= 3 && !t_[first_paren - 2].ident &&
          t_[first_paren - 2].text == "::" && t_[first_paren - 3].ident) {
        s.cls = t_[first_paren - 3].text;
      } else {
        s.cls = ctx_class();
      }
      s.name = s.cls.empty() ? fn : s.cls + "::" + fn;
      // ELSA_REQUIRES on the definition: held on entry.
      for (std::size_t i = lo; i < open; ++i) {
        if (t_[i].ident && t_[i].text == "ELSA_REQUIRES" && i + 1 < open &&
            !t_[i + 1].ident && t_[i + 1].text == "(") {
          auto args = annotation_args(t_, i + 1);
          s.requires_locks.insert(s.requires_locks.end(), args.begin(),
                                  args.end());
        }
      }
      return s;
    }
    return s;  // plain / initializer block
  }

  const std::vector<Tok>& t_;
  std::vector<Scope> scopes_;
  int paren_ = 0;
  std::size_t stmt_ = 0;
};

struct LockDecl {
  std::string file;
  std::size_t line = 0;
};

/// Project-wide symbol tables feeding the body-analysis pass.
struct LockSymbols {
  std::map<std::string, LockDecl> locks;  ///< "Class::mu_" → decl site
  std::set<std::string> ring_vars;        ///< names of SpscRing variables
  std::set<std::string> cv_vars;          ///< names of CondVar variables
  std::set<std::string> lock_classes;     ///< classes owning ≥1 Mutex
  /// "Class::method" → lock ids the callee acquires (ELSA_EXCLUDES/ACQUIRE).
  std::map<std::string, std::set<std::string>> fn_acquires;
  /// "Class::method" → lock ids held on entry (ELSA_REQUIRES, declarations).
  std::map<std::string, std::set<std::string>> fn_requires;
  std::map<std::string, std::string> var_cls;  ///< var name → owning class
};

std::string lock_id_for(const LockSymbols& syms, const std::string& ctx_cls,
                        const std::string& file, const std::string& name) {
  if (!ctx_cls.empty()) {
    const std::string id = ctx_cls + "::" + name;
    if (syms.locks.count(id)) return id;
  }
  const std::string fid = file + "::" + name;
  if (syms.locks.count(fid)) return fid;
  return ctx_cls.empty() ? fid : ctx_cls + "::" + name;
}

struct RawAnnotation {
  enum Kind : std::uint8_t { kAcquires, kRequires } kind = kAcquires;
  std::string cls;
  std::string fn;
  std::string file;
  std::vector<std::string> args;
};

/// Pass A1: mutex/ring/condvar declarations and function annotations.
void collect_decls(const std::string& path, const std::vector<Tok>& t,
                   LockSymbols& syms, std::vector<RawAnnotation>& anns) {
  ScopeWalker w(t);
  std::string cand, cand_cls;
  for (std::size_t i = 0; i < t.size(); ++i) {
    w.step(i);
    const Tok& tk = t[i];
    if (!tk.ident) {
      if (tk.text == ";" || tk.text == "{" || tk.text == "}") cand.clear();
      continue;
    }
    // Mutex declaration: `Mutex name ;|{|(|=` (not `class Mutex`, not
    // `Mutex&` parameters, not special members like `Mutex(const Mutex&)`).
    if (tk.text == "Mutex" && i + 2 < t.size() && t[i + 1].ident &&
        t[i + 1].text != "Mutex" && !t[i + 2].ident &&
        (t[i + 2].text == ";" || t[i + 2].text == "{" ||
         t[i + 2].text == "(" || t[i + 2].text == "=") &&
        (i == 0 || !(t[i - 1].ident && (t[i - 1].text == "class" ||
                                        t[i - 1].text == "struct")))) {
      const std::string ctx = w.ctx_class();
      const std::string id = (ctx.empty() ? path : ctx) + "::" + t[i + 1].text;
      if (!syms.locks.count(id)) syms.locks[id] = {path, tk.line};
      if (!ctx.empty()) syms.lock_classes.insert(ctx);
    }
    // SpscRing<...> declaration → remember the variable name.
    if (tk.text == "SpscRing" && i + 1 < t.size() && !t[i + 1].ident &&
        t[i + 1].text == "<") {
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].ident) continue;
        if (t[j].text == "<") ++depth;
        else if (t[j].text == ">" && --depth == 0) { ++j; break; }
      }
      while (j < t.size() && !t[j].ident &&
             (t[j].text == "&" || t[j].text == "*"))
        ++j;
      if (j < t.size() && t[j].ident) syms.ring_vars.insert(t[j].text);
    }
    // CondVar declaration.
    if (tk.text == "CondVar" && i + 2 < t.size() && t[i + 1].ident &&
        t[i + 1].text != "CondVar" && !t[i + 2].ident && t[i + 2].text == ";" &&
        (i == 0 || !(t[i - 1].ident && t[i - 1].text == "class"))) {
      syms.cv_vars.insert(t[i + 1].text);
    }
    // Candidate function name for annotation attachment.
    if (i + 1 < t.size() && !t[i + 1].ident && t[i + 1].text == "(" &&
        !is_control_kw(tk.text) && !is_annotation_macro(tk.text)) {
      cand = tk.text;
      cand_cls = w.ctx_class();
      if (i >= 2 && !t[i - 1].ident && t[i - 1].text == "::" && t[i - 2].ident)
        cand_cls = t[i - 2].text;
    }
    if ((tk.text == "ELSA_EXCLUDES" || tk.text == "ELSA_ACQUIRE" ||
         tk.text == "ELSA_REQUIRES") &&
        i + 1 < t.size() && !t[i + 1].ident && t[i + 1].text == "(" &&
        !cand.empty()) {
      RawAnnotation a;
      a.kind = tk.text == "ELSA_REQUIRES" ? RawAnnotation::kRequires
                                          : RawAnnotation::kAcquires;
      a.cls = cand_cls;
      a.fn = cand;
      a.file = path;
      a.args = annotation_args(t, i + 1);
      anns.push_back(std::move(a));
    }
  }
}

/// Pass A2: variables typed as lock-owning classes (plain, pointer,
/// reference, unique_ptr<T>), so call sites can be resolved to classes.
void collect_vars(const std::string& path, const std::vector<Tok>& t,
                  LockSymbols& syms) {
  (void)path;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const Tok& tk = t[i];
    if (!tk.ident) continue;
    if (tk.text == "unique_ptr" && !t[i + 1].ident && t[i + 1].text == "<" &&
        i + 4 < t.size() && t[i + 2].ident &&
        syms.lock_classes.count(t[i + 2].text) && !t[i + 3].ident &&
        t[i + 3].text == ">" && t[i + 4].ident) {
      syms.var_cls[t[i + 4].text] = t[i + 2].text;
      continue;
    }
    if (!syms.lock_classes.count(tk.text)) continue;
    if (i > 0 && t[i - 1].ident &&
        (t[i - 1].text == "class" || t[i - 1].text == "struct"))
      continue;  // the definition / a forward declaration, not a variable
    std::size_t j = i + 1;
    while (j < t.size() && !t[j].ident &&
           (t[j].text == "*" || t[j].text == "&"))
      ++j;
    if (j >= t.size() || !t[j].ident) continue;
    // Only treat `Class [*&] ident` as a declaration when the next token
    // ends a declarator, to avoid eating arbitrary expressions.
    if (j + 1 < t.size() && !t[j + 1].ident &&
        (t[j + 1].text == ";" || t[j + 1].text == "=" ||
         t[j + 1].text == "," || t[j + 1].text == ")" ||
         t[j + 1].text == "{")) {
      syms.var_cls[t[j].text] = tk.text;
    }
  }
}

struct EdgeInfo {
  std::string file;
  std::size_t line = 0;  ///< where `to` is acquired while `from` is held
};

using EdgeMap = std::map<std::pair<std::string, std::string>, EdgeInfo>;

const std::set<std::string>& blocking_ring_methods() {
  static const std::set<std::string> m = {"push", "pop_wait"};
  return m;
}

const std::set<std::string>& blocking_free_calls() {
  static const std::set<std::string> m = {"sleep_for", "sleep_until",
                                          "getline", "fread", "fwrite"};
  return m;
}

/// Pass B: follow the held-lock set through one file's function bodies,
/// emitting graph edges and the site-anchored findings.
void analyze_file(const std::string& path, const std::vector<Tok>& t,
                  const std::vector<std::string>& raw_lines,
                  const LockSymbols& syms, EdgeMap& edges,
                  std::vector<Finding>& findings) {
  ScopeWalker w(t);
  std::vector<HeldLock> held;

  const auto resolve_name = [&](const std::string& name) {
    return lock_id_for(syms, w.ctx_class(), path, name);
  };

  const auto acquire = [&](const std::string& id, std::size_t line,
                           const std::string& var) {
    for (const HeldLock& h : held) {
      if (h.id == id) continue;  // re-entrancy is -Wthread-safety's beat
      const auto key = std::make_pair(h.id, id);
      if (!edges.count(key)) edges[key] = {path, line};
    }
    held.push_back({id, path, line, w.scopes().size(), var});
  };

  const auto release_var = [&](const std::string& var) {
    for (std::size_t k = held.size(); k-- > 0;) {
      if (held[k].var == var) {
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        return true;
      }
    }
    return false;
  };

  const auto release_id = [&](const std::string& id) {
    for (std::size_t k = held.size(); k-- > 0;) {
      if (held[k].id == id) {
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        return;
      }
    }
  };

  const auto report = [&](std::size_t line, const std::string& rule,
                          const std::string& message) {
    if (line > 0 && is_suppressed(raw_lines, line - 1, rule)) return;
    findings.push_back({path, line, rule, message});
  };

  const auto held_desc = [&]() {
    std::string d;
    for (const HeldLock& h : held) {
      if (!d.empty()) d += ", ";
      d += h.id + " (acquired " + h.file + ":" + std::to_string(h.line) + ")";
    }
    return d;
  };

  /// Call-site propagation: callee `cls::method` acquires locks per its
  /// annotations; holding anything across that call is an ordering edge.
  const auto call_edges = [&](const std::string& cls, const std::string& fn,
                              std::size_t line) {
    if (held.empty() || cls.empty()) return;
    const auto it = syms.fn_acquires.find(cls + "::" + fn);
    if (it == syms.fn_acquires.end()) return;
    for (const std::string& acq : it->second) {
      bool already = false;
      for (const HeldLock& h : held) already = already || h.id == acq;
      if (already) continue;
      for (const HeldLock& h : held) {
        const auto key = std::make_pair(h.id, acq);
        if (!edges.count(key)) edges[key] = {path, line};
      }
    }
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    ScopeWalker::Event ev = w.step(i);
    if (ev.opened) {
      Scope& s = w.scopes().back();
      if (s.kind == Scope::kLambda) {
        // Barrier: the body may run on another thread/later; locks held at
        // the capture site are not held inside.
        s.stash = std::move(held);
        held.clear();
      } else if (s.kind == Scope::kFunction) {
        std::vector<std::string> req = s.requires_locks;
        const auto it = syms.fn_requires.find(s.name);
        if (it != syms.fn_requires.end())
          req.insert(req.end(), it->second.begin(), it->second.end());
        for (const std::string& r : req) {
          const std::string id =
              lock_id_for(syms, s.cls.empty() ? w.ctx_class() : s.cls, path, r);
          bool have = false;
          for (const HeldLock& h : held) have = have || h.id == id;
          if (!have) held.push_back({id, path, t[i].line, w.scopes().size(), ""});
        }
      }
    }
    if (ev.closed) {
      const std::size_t depth = w.scopes().size();
      for (std::size_t k = held.size(); k-- > 0;) {
        if (held[k].depth > depth)
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
      }
      if (ev.closed_scope.kind == Scope::kLambda &&
          !ev.closed_scope.stash.empty()) {
        held.insert(held.begin(), ev.closed_scope.stash.begin(),
                    ev.closed_scope.stash.end());
      }
    }

    const Tok& tk = t[i];
    if (!tk.ident || !w.in_code()) continue;

    // MutexLock lk(expr);
    if (tk.text == "MutexLock" && i + 2 < t.size() && t[i + 1].ident &&
        !t[i + 2].ident && t[i + 2].text == "(") {
      std::string recv, last;
      int depth = 0;
      for (std::size_t j = i + 2; j < t.size(); ++j) {
        if (!t[j].ident) {
          if (t[j].text == "(") ++depth;
          else if (t[j].text == ")" && --depth == 0) break;
          else if (depth == 1 && (t[j].text == "." || t[j].text == "->") &&
                   !last.empty())
            recv = last;
          continue;
        }
        if (depth == 1) last = t[j].text;
      }
      if (!last.empty()) {
        std::string id;
        if (!recv.empty() && syms.var_cls.count(recv))
          id = syms.var_cls.at(recv) + "::" + last;
        else
          id = resolve_name(last);
        acquire(id, tk.line, t[i + 1].text);
      }
      continue;
    }

    // recv.method( / recv->method(
    if (i + 3 < t.size() && !t[i + 1].ident &&
        (t[i + 1].text == "." || t[i + 1].text == "->") && t[i + 2].ident &&
        !t[i + 3].ident && t[i + 3].text == "(") {
      const std::string& recv = tk.text;
      const std::string& method = t[i + 2].text;
      const std::size_t line = t[i + 2].line;
      if (method == "unlock") {
        if (!release_var(recv)) release_id(resolve_name(recv));
      } else if (method == "lock") {
        acquire(resolve_name(recv), line, "");
      } else if ((method == "wait" || method == "wait_for") &&
                 syms.cv_vars.count(recv)) {
        if (held.size() >= 2) {
          report(line, "cv-wait-extra-lock",
                 "condition wait on `" + recv + "` releases only its own "
                 "mutex, but this thread also holds: " + held_desc() +
                 " — waiters and notifiers of those locks can deadlock");
        }
      } else if ((method == "join" ||
                  (blocking_ring_methods().count(method) &&
                   syms.ring_vars.count(recv))) &&
                 !held.empty()) {
        report(line, "blocking-under-lock",
               "blocking call `" + recv + "." + method + "()` while holding " +
                   held_desc() +
                   " — a blocked callee wedges every contender of that lock");
      }
      if (!held.empty()) {
        std::string cls;
        if (syms.var_cls.count(recv)) cls = syms.var_cls.at(recv);
        call_edges(cls, method, line);
      }
      continue;
    }

    // Free/unqualified calls: blocking list + same-class callee edges.
    if (i + 1 < t.size() && !t[i + 1].ident && t[i + 1].text == "(" &&
        !is_control_kw(tk.text) && !is_annotation_macro(tk.text)) {
      if (blocking_free_calls().count(tk.text) && !held.empty()) {
        report(tk.line, "blocking-under-lock",
               "blocking call `" + tk.text + "()` while holding " +
                   held_desc() +
                   " — a blocked callee wedges every contender of that lock");
      }
      if (!held.empty()) {
        std::string cls = w.ctx_class();
        if (i >= 2 && !t[i - 1].ident && t[i - 1].text == "::" &&
            t[i - 2].ident)
          cls = t[i - 2].text;
        call_edges(cls, tk.text, tk.line);
      }
    }
  }
}

/// DFS cycle extraction over the acquisition graph; reports each distinct
/// cycle once (canonical rotation) with every edge's site.
std::vector<Finding> cycle_findings(
    const EdgeMap& edges,
    const std::map<std::string, std::vector<std::string>>& raw_by_file) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, info] : edges) {
    (void)info;
    adj[key.first].push_back(key.second);
    adj.try_emplace(key.second);
  }
  for (auto& [n, outs] : adj) {
    (void)n;
    std::sort(outs.begin(), outs.end());
  }

  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  std::vector<std::vector<std::string>> cycles;

  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    path.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        const auto it = std::find(path.begin(), path.end(), v);
        if (it != path.end()) cycles.emplace_back(it, path.end());
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (const auto& [n, outs] : adj) {
    (void)outs;
    if (color[n] == 0) dfs(n);
  }

  std::set<std::string> seen;
  std::vector<Finding> out;
  for (std::vector<std::string> cyc : cycles) {
    // Canonical rotation: start at the lexicographically smallest lock.
    const auto smallest = std::min_element(cyc.begin(), cyc.end());
    std::rotate(cyc.begin(), smallest, cyc.end());
    std::string key;
    for (const std::string& n : cyc) key += n + "|";
    if (!seen.insert(key).second) continue;

    bool suppressed = false;
    std::string desc = "lock-order cycle: " + cyc.front();
    EdgeInfo first_edge{};
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::string& from = cyc[i];
      const std::string& to = cyc[(i + 1) % cyc.size()];
      const EdgeInfo& e = edges.at({from, to});
      if (i == 0) first_edge = e;
      desc += " -> " + to + " (" + e.file + ":" + std::to_string(e.line) + ")";
      const auto rit = raw_by_file.find(e.file);
      if (rit != raw_by_file.end() && e.line > 0 &&
          is_suppressed(rit->second, e.line - 1, "lock-cycle"))
        suppressed = true;
    }
    if (suppressed) continue;
    out.push_back({first_edge.file, first_edge.line, "lock-cycle", desc});
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.message) <
           std::tie(b.file, b.line, b.message);
  });
  return out;
}

std::string include_target(const std::string& raw_line) {
  std::size_t p = raw_line.find_first_not_of(" \t");
  if (p == std::string::npos || raw_line[p] != '#') return "";
  ++p;
  while (p < raw_line.size() && (raw_line[p] == ' ' || raw_line[p] == '\t')) ++p;
  const std::string kw = "include";
  if (raw_line.compare(p, kw.size(), kw) != 0) return "";
  p += kw.size();
  while (p < raw_line.size() && (raw_line[p] == ' ' || raw_line[p] == '\t')) ++p;
  if (p >= raw_line.size() || raw_line[p] != '"') return "";
  const std::size_t close = raw_line.find('"', p + 1);
  if (close == std::string::npos) return "";
  return raw_line.substr(p + 1, close - p - 1);
}

// ---------------------------------------------------------------------------
// Atomics-protocol analysis (atomic-undeclared / acquire-release-unpaired /
// rmw-order-too-weak / fence-undocumented)
//
// A third whole-project pass, built like the lock-graph one: tokenize every
// src/-module file, find std::atomic field declarations with the scope
// walker (fusing identity as namespace::Class::field), read the declared
// "// elsa-atomic: <protocol>" off the surrounding raw lines, then classify
// every atomic member-operation call site (load/store/exchange/fetch_*/
// compare_exchange_*) by its memory_order arguments and check the
// project-wide pairing invariants against the declared protocols.

bool in_fixture_dir(const std::string& path);  // defined with tree_files below

const std::set<std::string>& atomic_protocol_set() {
  static const std::set<std::string> protos(atomic_protocols().begin(),
                                            atomic_protocols().end());
  return protos;
}

struct AtomicDecl {
  std::string id;        ///< qualified "ns::Class::field" (or "file::field")
  std::string field;     ///< bare field name
  std::string file;
  std::size_t line = 0;  ///< 1-based
  std::string protocol;  ///< parsed protocol name ("" when absent)
  bool annotated = false;  ///< an elsa-atomic: marker was present
  bool known = false;      ///< protocol is in atomic_protocols()
};

struct AtomicAccess {
  enum Kind : std::uint8_t { kLoad, kStore, kRmw, kCas } kind = kLoad;
  std::string decl_id;  ///< resolved AtomicDecl::id
  std::string file;
  std::size_t line = 0;
  std::vector<std::string> orders;  ///< memory_order_* idents, call order
};

bool is_atomic_op(const std::string& name, AtomicAccess::Kind* kind) {
  if (name == "load") { *kind = AtomicAccess::kLoad; return true; }
  if (name == "store") { *kind = AtomicAccess::kStore; return true; }
  if (name == "exchange" || name.rfind("fetch_", 0) == 0) {
    if (name == "exchange" || name == "fetch_add" || name == "fetch_sub" ||
        name == "fetch_and" || name == "fetch_or" || name == "fetch_xor") {
      *kind = AtomicAccess::kRmw;
      return true;
    }
    return false;
  }
  if (name == "compare_exchange_weak" || name == "compare_exchange_strong") {
    *kind = AtomicAccess::kCas;
    return true;
  }
  return false;
}

/// Pass 1: std::atomic field/variable declarations in one file. A
/// declaration is `std::atomic<...>` (possibly wrapped deeper in a
/// template such as unique_ptr<std::atomic<T>[]>) whose declarator name is
/// followed by `;`, `{` or `=` — which excludes function parameters and
/// `new std::atomic<...>[n]` expressions (also guarded by the `new` check).
void collect_atomic_decls(const std::string& path, const std::vector<Tok>& t,
                          const std::vector<std::string>& raw,
                          std::vector<AtomicDecl>& decls) {
  ScopeWalker w(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    w.step(i);
    const Tok& tk = t[i];
    if (!tk.ident || tk.text != "atomic") continue;
    if (i < 2 || t[i - 1].ident || t[i - 1].text != "::" || !t[i - 2].ident ||
        t[i - 2].text != "std")
      continue;
    if (i >= 3 && t[i - 3].ident && t[i - 3].text == "new") continue;
    if (i + 1 >= t.size() || t[i + 1].ident || t[i + 1].text != "<") continue;
    // Balance the template argument list.
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].ident) continue;
      if (t[j].text == "<") ++depth;
      else if (t[j].text == ">" && --depth == 0) { ++j; break; }
    }
    // Skip declarator decoration: closes of an enclosing template
    // (unique_ptr<...[]>), array brackets, pointers/references.
    while (j < t.size() && !t[j].ident &&
           (t[j].text == ">" || t[j].text == "[" || t[j].text == "]" ||
            t[j].text == "*" || t[j].text == "&"))
      ++j;
    if (j >= t.size() || !t[j].ident) continue;
    const std::string name = t[j].text;
    if (j + 1 >= t.size() || t[j + 1].ident) continue;
    const std::string& after = t[j + 1].text;
    if (after != ";" && after != "{" && after != "=") continue;

    AtomicDecl d;
    d.field = name;
    d.file = path;
    d.line = tk.line;
    const std::string ctx = w.ctx_qualified();
    d.id = (ctx.empty() ? path : ctx) + "::" + name;
    // Annotation: "// elsa-atomic: <protocol>" on the declaration line or
    // within the three lines above (same window as allow()).
    const std::size_t idx = tk.line - 1;
    const std::size_t lo = idx >= 3 ? idx - 3 : 0;
    for (std::size_t k = lo; k <= idx && k < raw.size(); ++k) {
      const std::size_t p = raw[k].find("elsa-atomic:");
      if (p == std::string::npos) continue;
      d.annotated = true;
      std::size_t q = p + 12;
      while (q < raw[k].size() && raw[k][q] == ' ') ++q;
      std::string proto;
      while (q < raw[k].size() &&
             (std::islower(static_cast<unsigned char>(raw[k][q])) ||
              std::isdigit(static_cast<unsigned char>(raw[k][q])) ||
              raw[k][q] == '-'))
        proto += raw[k][q++];
      d.protocol = proto;
    }
    d.known = atomic_protocol_set().count(d.protocol) > 0;
    decls.push_back(std::move(d));
  }
}

/// Pass 2: atomic member-operation call sites in one file, resolved
/// against the project-wide declaration registry. Resolution order:
/// exact qualified id at the access context, then a unique same-file
/// field-name match, then a unique project-wide match; ambiguous or
/// unknown receivers are skipped (no false positives — a `.load()` on a
/// non-atomic never matches a declared field, or matches ambiguously and
/// is dropped).
void collect_atomic_accesses(
    const std::string& path, const std::vector<Tok>& t,
    const std::map<std::string, const AtomicDecl*>& by_id,
    const std::multimap<std::string, const AtomicDecl*>& by_field,
    std::vector<AtomicAccess>& accesses, std::vector<std::size_t>* fences) {
  ScopeWalker w(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    w.step(i);
    const Tok& tk = t[i];
    if (!tk.ident) continue;
    if (tk.text == "atomic_thread_fence" && fences != nullptr) {
      fences->push_back(tk.line);
      continue;
    }
    AtomicAccess::Kind kind;
    if (!is_atomic_op(tk.text, &kind)) continue;
    if (i + 1 >= t.size() || t[i + 1].ident || t[i + 1].text != "(") continue;
    if (i < 2 || t[i - 1].ident ||
        (t[i - 1].text != "." && t[i - 1].text != "->"))
      continue;
    // Receiver: the identifier before the access operator, walking back
    // through a subscript (counts_[i].fetch_add → counts_).
    std::size_t r = i - 2;
    if (!t[r].ident && t[r].text == "]") {
      int bdepth = 0;
      for (;;) {
        if (!t[r].ident) {
          if (t[r].text == "]") ++bdepth;
          else if (t[r].text == "[" && --bdepth == 0) break;
        }
        if (r == 0) break;
        --r;
      }
      if (r == 0) continue;
      --r;
    }
    if (!t[r].ident) continue;
    const std::string& field = t[r].text;

    // Resolve to a declared field.
    const AtomicDecl* decl = nullptr;
    const std::string qual = w.ctx_qualified();
    if (!qual.empty()) {
      const auto it = by_id.find(qual + "::" + field);
      if (it != by_id.end()) decl = it->second;
    }
    if (decl == nullptr) {
      const AtomicDecl* same_file = nullptr;
      const AtomicDecl* unique = nullptr;
      std::size_t same_file_n = 0, total = 0;
      const auto [b, e] = by_field.equal_range(field);
      for (auto it = b; it != e; ++it) {
        ++total;
        unique = it->second;
        if (it->second->file == path) {
          ++same_file_n;
          same_file = it->second;
        }
      }
      if (same_file_n == 1) decl = same_file;
      else if (same_file_n == 0 && total == 1) decl = unique;
    }
    if (decl == nullptr) continue;

    AtomicAccess a;
    a.kind = kind;
    a.decl_id = decl->id;
    a.file = path;
    a.line = tk.line;
    // memory_order arguments anywhere inside the call's parentheses.
    int depth = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (!t[j].ident) {
        if (t[j].text == "(") ++depth;
        else if (t[j].text == ")" && --depth == 0) break;
        continue;
      }
      if (t[j].text.rfind("memory_order_", 0) == 0)
        a.orders.push_back(t[j].text.substr(13));
    }
    accesses.push_back(std::move(a));
  }
}

/// True when the access's order set contains any of the given orders.
bool has_order(const AtomicAccess& a, std::initializer_list<const char*> any) {
  for (const std::string& o : a.orders)
    for (const char* want : any)
      if (o == want) return true;
  return false;
}

/// All stated orders are relaxed (a CAS's failure order included); an
/// access with no stated order is seq_cst, never "all relaxed".
bool all_relaxed(const AtomicAccess& a) {
  if (a.orders.empty()) return false;
  for (const std::string& o : a.orders)
    if (o != "relaxed") return false;
  return true;
}

struct AtomicsScan {
  std::vector<AtomicDecl> decls;
  std::vector<AtomicAccess> accesses;
  /// Fence sites as (file, line) in scan order.
  std::vector<std::pair<std::string, std::size_t>> fences;
  std::map<std::string, std::vector<std::string>> raw_by_file;
};

/// Shared front half of lint_atomics/atomic_registry: scan every
/// src/-module file for declarations, then for accesses and fences.
AtomicsScan scan_atomics(
    const std::vector<std::pair<std::string, std::string>>& files) {
  AtomicsScan scan;
  std::vector<std::pair<std::string, std::vector<Tok>>> toks;
  for (const auto& [path, contents] : files) {
    if (module_of(path).empty()) continue;  // src modules own protocols
    if (in_fixture_dir(path)) continue;
    toks.emplace_back(path, tokenize(strip_code(contents)));
    scan.raw_by_file[path] = split_lines(contents);
    collect_atomic_decls(path, toks.back().second,
                         scan.raw_by_file.at(path), scan.decls);
  }
  std::map<std::string, const AtomicDecl*> by_id;
  std::multimap<std::string, const AtomicDecl*> by_field;
  for (const AtomicDecl& d : scan.decls) {
    by_id.emplace(d.id, &d);
    by_field.emplace(d.field, &d);
  }
  for (const auto& [path, t] : toks) {
    std::vector<std::size_t> fence_lines;
    collect_atomic_accesses(path, t, by_id, by_field, scan.accesses,
                            &fence_lines);
    for (std::size_t line : fence_lines) scan.fences.emplace_back(path, line);
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Effect-inference analysis (realtime-allocates / realtime-locks /
// realtime-blocks / det-wall-clock / det-random-device /
// det-unordered-escape)
//
// A fourth whole-project pass and the first that reasons about *transitive
// function effects* rather than declarations: tokenize every src/-module
// file, collect class names, type aliases, typed variables and
// unordered-container variables (pass E1/E2, fused project-wide the way the
// lock pass fuses lock ids), then walk every function body (pass E3)
// recording direct effect sites and call sites. Calls are resolved
// conservatively — qualified id, then receiver-class match with
// same-module preference, then unique-definition fallback; anything
// ambiguous resolves to nothing — and effects propagate over the resolved
// edges to a fixpoint. A function marked `// elsa-realtime` (above or on
// its signature) must have an allocation-, lock-, block- and I/O-free
// closure; `// elsa-deterministic` bans wall-clock reads, random_device
// and unordered-container iteration in the closure. Findings anchor at
// the effect *site* (where the allow() belongs) and name the annotated
// root plus the call path, so a cross-file violation reads as a proof.
//
// Deliberate blind spots (under-approximation, DESIGN.md §17): effects in
// member-initializer lists, allocations hidden behind copy assignment,
// and calls through unresolvable receivers contribute nothing. The pass
// can therefore miss, but never fabricates: every finding is a lexical
// fact about the closure it names.

enum EffBit : std::uint8_t {
  kEffAlloc = 1u << 0,      ///< new/make_unique/make_shared/container growth
  kEffLock = 1u << 1,       ///< MutexLock / .lock()
  kEffBlock = 1u << 2,      ///< sleep/wait/join + file & console I/O
  kEffWallClock = 1u << 3,  ///< Clock::now() & friends
  kEffRandom = 1u << 4,     ///< std::random_device
  kEffUnordered = 1u << 5,  ///< unordered/pointer-keyed iteration
};

/// One direct effect occurrence, anchored where the allow() belongs.
struct EffSite {
  unsigned bit = 0;
  std::string what;  ///< human description, e.g. "`push_back` (growth)"
  std::string file;
  std::size_t line = 0;
};

struct EffCallSite {
  std::string recv;  ///< receiver variable ("" for free/qualified calls)
  std::string qual;  ///< explicit `Q::` qualifier ("" if none)
  std::string name;  ///< called method/function name
  std::string file;
  std::size_t line = 0;
};

struct EffFnDef {
  std::string id;        ///< "ns::Class::fn" (or "file::fn" at file scope)
  std::string short_id;  ///< "Class::fn" or "fn"
  std::string bare;      ///< "fn"
  std::string cls;       ///< "Class" ("" for free functions)
  std::string file;
  std::size_t line = 0;  ///< open-brace line of the (first) definition
  bool realtime = false;
  bool deterministic = false;
  std::vector<EffSite> sites;
  std::vector<EffCallSite> calls;
};

/// Project-wide symbol tables feeding the body pass.
struct EffSymbols {
  std::set<std::string> classes;
  std::map<std::string, std::string> aliases;  ///< alias → class name
  std::map<std::string, std::string> var_cls;  ///< var → class name
  /// unordered/pointer-keyed container var → flavor ("unordered" /
  /// "pointer-keyed"). Keyed "Cls::name" for class members (the innermost
  /// class at the declaration) and "::name" otherwise, so two classes
  /// declaring same-named fields of different container kinds never
  /// cross-contaminate (use uvar_kind() to look up).
  std::map<std::string, std::string> unordered_vars;
  /// std::map / unordered_map vars, whose `var[key]` inserts on a miss.
  /// Keyed "Cls::name" for class members, "file::fn()::name" for locals
  /// and "file::name" at file scope: a subscript is too common to match a
  /// bare name across functions.
  std::set<std::string> map_vars;
};

/// Flavor of an unordered/pointer-keyed container var as seen from a
/// function of class `cls` ("" for free functions): the class's own member
/// first, then a namespace-scope/local declaration. Null when neither
/// declares it.
const std::string* uvar_kind(const EffSymbols& syms, const std::string& cls,
                             const std::string& name) {
  if (!cls.empty()) {
    const auto it = syms.unordered_vars.find(cls + "::" + name);
    if (it != syms.unordered_vars.end()) return &it->second;
  }
  const auto it = syms.unordered_vars.find("::" + name);
  return it == syms.unordered_vars.end() ? nullptr : &it->second;
}

/// Whether `name`, subscripted in function `fn` of `file`, is a map
/// declared as a member of fn's class, as fn's local, or at file scope.
bool is_map_var(const EffSymbols& syms, const EffFnDef& fn,
                const std::string& file, const std::string& name) {
  return (!fn.cls.empty() && syms.map_vars.count(fn.cls + "::" + name)) ||
         syms.map_vars.count(file + "::" + fn.short_id + "()::" + name) ||
         syms.map_vars.count(file + "::" + name);
}

const std::set<std::string>& growth_methods() {
  static const std::set<std::string> m = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "emplace_hint", "insert",     "insert_or_assign",
      "try_emplace", "resize",     "reserve",    "append",
      "assign"};
  return m;
}

const std::set<std::string>& blocking_methods() {
  static const std::set<std::string> m = {"wait", "wait_for", "wait_until",
                                          "join"};
  return m;
}

const std::set<std::string>& io_calls() {
  static const std::set<std::string> m = {"fopen", "fclose", "fprintf",
                                          "fscanf", "printf", "puts",
                                          "fputs",  "fgets",  "perror",
                                          "system"};
  return m;
}

const std::set<std::string>& io_idents() {
  static const std::set<std::string> m = {"cout", "cerr", "clog", "ifstream",
                                          "ofstream", "fstream"};
  return m;
}

const std::set<std::string>& wallclock_calls() {
  static const std::set<std::string> m = {"clock_gettime", "gettimeofday",
                                          "mktime"};
  return m;
}

/// Names never resolved through the unique-free-function fallback: too
/// common as local helpers / std entry points to trust a name-only match.
const std::set<std::string>& bare_call_stoplist() {
  static const std::set<std::string> m = {
      "swap", "min",   "max", "abs",  "get",     "size", "empty",
      "begin", "end",  "clear", "move", "forward", "main", "to_string"};
  return m;
}

/// Files whose bodies the effect pass never scans: the annotated-primitive
/// wrapper defines the lock types themselves, and the interleaving harness
/// (util/interleave.hpp) blocks *by design* in ELSA_INTERLEAVE test builds
/// while compiling to a no-op in production — scanning it would poison
/// every sched_point() caller with a phantom blocking effect.
bool effect_exempt_file(const std::string& path) {
  return ends_with(path, "util/thread_annotations.hpp") ||
         ends_with(path, "util/interleave.hpp");
}

/// `// elsa-realtime` / `// elsa-deterministic` marker on a raw line, with
/// word-ish boundaries so prose like "non-elsa-realtime-safe" never binds.
bool has_effect_marker(const std::string& raw_line, const std::string& mark) {
  std::size_t pos = 0;
  while ((pos = raw_line.find(mark, pos)) != std::string::npos) {
    const std::size_t end = pos + mark.size();
    const bool pre_ok =
        pos == 0 || (!is_word(raw_line[pos - 1]) && raw_line[pos - 1] != '-');
    const bool post_ok = end >= raw_line.size() ||
                         (!is_word(raw_line[end]) && raw_line[end] != '-');
    if (pre_ok && post_ok) return true;
    pos = end;
  }
  return false;
}

/// Pass E1: class names, `using A = B<...>` aliases, unordered /
/// pointer-keyed container variable declarations, and map declarations.
void collect_effect_decls(const std::string& path, const std::vector<Tok>& t,
                          EffSymbols& syms) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kOrderedAssoc = {"map", "set", "multimap",
                                                      "multiset"};
  ScopeWalker w(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    ScopeWalker::Event ev = w.step(i);
    if (ev.opened && w.scopes().back().kind == Scope::kClass)
      syms.classes.insert(w.scopes().back().name);
    const Tok& tk = t[i];
    if (!tk.ident) continue;
    // Type alias: `using A = Head<...>;` → A resolves like Head.
    if (tk.text == "using" && i + 3 < t.size() && t[i + 1].ident &&
        !t[i + 2].ident && t[i + 2].text == "=") {
      std::string head;
      for (std::size_t j = i + 3; j < t.size(); ++j) {
        if (t[j].ident) head = t[j].text;
        else if (t[j].text != "::") break;
      }
      if (!head.empty() && head != t[i + 1].text)
        syms.aliases[t[i + 1].text] = head;
      continue;
    }
    // Unordered container declaration → remember the declarator name.
    const bool unordered = kUnordered.count(tk.text) > 0;
    // std::map/set keyed by a pointer iterate in address order — equally
    // nondeterministic across runs (ASLR), so they join the same set.
    bool ptr_keyed = false;
    if (!unordered && kOrderedAssoc.count(tk.text) && i >= 2 && !t[i - 1].ident &&
        t[i - 1].text == "::" && t[i - 2].ident && t[i - 2].text == "std" &&
        i + 1 < t.size() && !t[i + 1].ident && t[i + 1].text == "<") {
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].ident) continue;
        if (t[j].text == "<") ++depth;
        else if (t[j].text == ">" && --depth == 0) break;
        else if (t[j].text == "*" && depth == 1) { ptr_keyed = true; }
        else if (t[j].text == "," && depth == 1) break;  // first arg only
      }
    }
    // operator[] on a map default-constructs a value for a missing key.
    const bool subscript_inserts =
        tk.text == "unordered_map" ||
        (tk.text == "map" && i >= 2 && !t[i - 1].ident &&
         t[i - 1].text == "::" && t[i - 2].ident && t[i - 2].text == "std");
    if (!unordered && !ptr_keyed && !subscript_inserts) continue;
    if (i + 1 >= t.size() || t[i + 1].ident || t[i + 1].text != "<") continue;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].ident) continue;
      if (t[j].text == "<") ++depth;
      else if (t[j].text == ">" && --depth == 0) { ++j; break; }
    }
    while (j < t.size() && !t[j].ident &&
           (t[j].text == ">" || t[j].text == "*" || t[j].text == "&"))
      ++j;
    if (j >= t.size() || !t[j].ident) continue;
    if (j + 1 < t.size() && !t[j + 1].ident &&
        (t[j + 1].text == ";" || t[j + 1].text == "{" ||
         t[j + 1].text == "=" || t[j + 1].text == "," ||
         t[j + 1].text == ")")) {
      std::string cls;
      for (auto it = w.scopes().rbegin(); it != w.scopes().rend(); ++it)
        if (it->kind == Scope::kClass) {
          cls = it->name;
          break;
        }
      if (unordered || ptr_keyed)
        syms.unordered_vars.emplace(cls + "::" + t[j].text,
                                    unordered ? "unordered" : "pointer-keyed");
      if (subscript_inserts) {
        // The innermost class or function decides: a member, a local of
        // that function (lambdas belong to theirs), or a file-scope map.
        std::string owner = path;
        for (auto it = w.scopes().rbegin(); it != w.scopes().rend(); ++it) {
          if (it->kind == Scope::kClass) {
            owner = it->name;
            break;
          }
          if (it->kind == Scope::kFunction) {
            owner = path + "::" + it->name + "()";
            break;
          }
        }
        syms.map_vars.insert(owner + "::" + t[j].text);
      }
    }
  }
}

/// Pass E2: variables typed as project classes (plain, pointer, reference,
/// template-argumented, unique_ptr/shared_ptr-wrapped), so method call
/// sites can be resolved to classes — collect_vars generalized beyond
/// lock-owning classes.
void collect_effect_vars(const std::vector<Tok>& t, EffSymbols& syms) {
  const auto resolve_cls = [&syms](const std::string& name) -> std::string {
    if (syms.classes.count(name)) return name;
    const auto it = syms.aliases.find(name);
    if (it != syms.aliases.end() && syms.classes.count(it->second))
      return it->second;
    return "";
  };
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const Tok& tk = t[i];
    if (!tk.ident) continue;
    // unique_ptr<ns::Class<...>> name / shared_ptr<...> name — the class
    // is the last identifier of the first template argument's head.
    if ((tk.text == "unique_ptr" || tk.text == "shared_ptr") &&
        !t[i + 1].ident && t[i + 1].text == "<") {
      std::string head;
      bool frozen = false;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].ident) {
          if (depth == 1 && !frozen) head = t[j].text;
          continue;
        }
        if (t[j].text == "<") { if (++depth > 1) frozen = true; }
        else if (t[j].text == ">") { if (--depth == 0) { ++j; break; } }
        else if (t[j].text == "," && depth == 1) frozen = true;
        else if (t[j].text == "::" ) continue;
      }
      while (j < t.size() && !t[j].ident &&
             (t[j].text == ">" || t[j].text == "*" || t[j].text == "&" ||
              t[j].text == "[" || t[j].text == "]"))
        ++j;
      const std::string cls = resolve_cls(head);
      if (!cls.empty() && j < t.size() && t[j].ident)
        syms.var_cls[t[j].text] = cls;
      continue;
    }
    const std::string cls = resolve_cls(tk.text);
    if (cls.empty()) continue;
    if (i > 0 && t[i - 1].ident &&
        (t[i - 1].text == "class" || t[i - 1].text == "struct" ||
         t[i - 1].text == "using"))
      continue;  // definition / forward declaration / alias, not a variable
    std::size_t j = i + 1;
    // Optional template arguments on the class itself: SpscRing<Item> q;
    if (j < t.size() && !t[j].ident && t[j].text == "<") {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].ident) continue;
        if (t[j].text == "<") ++depth;
        else if (t[j].text == ">" && --depth == 0) { ++j; break; }
      }
    }
    while (j < t.size() && !t[j].ident &&
           (t[j].text == "*" || t[j].text == "&"))
      ++j;
    if (j >= t.size() || !t[j].ident) continue;
    if (j + 1 < t.size() && !t[j + 1].ident &&
        (t[j + 1].text == ";" || t[j + 1].text == "=" ||
         t[j + 1].text == "," || t[j + 1].text == ")" ||
         t[j + 1].text == "{")) {
      syms.var_cls[t[j].text] = cls;
    }
  }
}

/// Pass E3: walk one file's function bodies, creating EffFnDef entries
/// (with their contract markers) and recording direct effect sites and
/// call sites. Lambda bodies are attributed to the enclosing function —
/// the effect happens iff the lambda runs, and on the hot paths lambdas
/// are invoked in place.
void collect_effect_bodies(const std::string& path, const std::vector<Tok>& t,
                           const std::vector<std::string>& raw,
                           const EffSymbols& syms,
                           std::vector<EffFnDef>& fns,
                           std::map<std::string, std::size_t>& by_id) {
  ScopeWalker w(t);
  std::vector<std::size_t> fn_stack;  ///< indices into fns

  const auto add_site = [&](unsigned bit, const std::string& what,
                            std::size_t line) {
    if (fn_stack.empty()) return;
    fns[fn_stack.back()].sites.push_back({bit, what, path, line});
  };
  const auto add_call = [&](const std::string& recv, const std::string& qual,
                            const std::string& name, std::size_t line) {
    if (fn_stack.empty()) return;
    fns[fn_stack.back()].calls.push_back({recv, qual, name, path, line});
  };
  // Receiver identifier before the `.`/`->` at token index r, walking back
  // through a subscript (rings_[shard]->push → rings_), as the atomics
  // pass does.
  const auto receiver_at = [&t](std::size_t r) -> std::string {
    if (!t[r].ident && t[r].text == "]") {
      int bdepth = 0;
      for (;;) {
        if (!t[r].ident) {
          if (t[r].text == "]") ++bdepth;
          else if (t[r].text == "[" && --bdepth == 0) break;
        }
        if (r == 0) return "";
        --r;
      }
      if (r == 0) return "";
      --r;
    }
    return t[r].ident ? t[r].text : "";
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    ScopeWalker::Event ev = w.step(i);
    if (ev.opened && w.scopes().back().kind == Scope::kFunction) {
      const Scope& s = w.scopes().back();
      EffFnDef f;
      f.short_id = s.name;
      f.cls = s.cls;
      f.bare = s.cls.empty() ? s.name : s.name.substr(s.cls.size() + 2);
      const std::string ctx = w.ctx_qualified();
      f.id = (ctx.empty() ? path : ctx) + "::" + f.bare;
      f.file = path;
      f.line = s.open_line;
      // Contract markers on the signature lines, or up to three lines
      // above them — but never above the previous token (ann_floor), so a
      // marker binds to exactly one definition.
      std::size_t lo = s.sig_line >= 3 ? s.sig_line - 3 : 1;
      if (s.ann_floor + 1 > lo) lo = s.ann_floor + 1;
      if (lo < 1) lo = 1;
      for (std::size_t ln = lo; ln <= s.open_line && ln <= raw.size(); ++ln) {
        f.realtime = f.realtime || has_effect_marker(raw[ln - 1], "elsa-realtime");
        f.deterministic =
            f.deterministic || has_effect_marker(raw[ln - 1], "elsa-deterministic");
      }
      const auto it = by_id.find(f.id);
      if (it == by_id.end()) {
        by_id.emplace(f.id, fns.size());
        fn_stack.push_back(fns.size());
        fns.push_back(std::move(f));
      } else {
        // Overload set / re-definition: merge — the contract and effects
        // of the id are the union over its definitions.
        EffFnDef& g = fns[it->second];
        g.realtime = g.realtime || f.realtime;
        g.deterministic = g.deterministic || f.deterministic;
        fn_stack.push_back(it->second);
      }
    }
    if (ev.closed && ev.closed_scope.kind == Scope::kFunction &&
        !fn_stack.empty())
      fn_stack.pop_back();

    const Tok& tk = t[i];
    if (!tk.ident || fn_stack.empty() || !w.in_code()) continue;

    // ---- direct effect sites ----
    if (tk.text == "new") {
      add_site(kEffAlloc, "a `new` expression", tk.line);
      continue;
    }
    if ((tk.text == "make_unique" || tk.text == "make_shared") &&
        i + 1 < t.size() && !t[i + 1].ident &&
        (t[i + 1].text == "<" || t[i + 1].text == "(")) {
      add_site(kEffAlloc, "`std::" + tk.text + "` (heap allocation)", tk.line);
      continue;
    }
    if (tk.text == "random_device") {
      add_site(kEffRandom, "`std::random_device` (nondeterministic entropy)",
               tk.line);
      continue;
    }
    if (io_idents().count(tk.text)) {
      add_site(kEffBlock, "`" + tk.text + "` (I/O)", tk.line);
      continue;
    }
    if (tk.text == "MutexLock" && i + 2 < t.size() && t[i + 1].ident &&
        !t[i + 2].ident && t[i + 2].text == "(") {
      add_site(kEffLock, "a `MutexLock` acquisition", tk.line);
      continue;
    }
    // Range-for over an unordered container: `for (... : var)`.
    if (i > 0 && !t[i - 1].ident && t[i - 1].text == ":" && w.paren() > 0) {
      const std::string* kind =
          uvar_kind(syms, fns[fn_stack.back()].cls, tk.text);
      if (kind != nullptr) {
        add_site(kEffUnordered,
                 "iteration over " + *kind + " container `" + tk.text + "`",
                 tk.line);
        continue;
      }
    }

    // `var[key]` on a map: inserts (allocates a node) when the key is
    // missing. Only the function's class members, its own locals and its
    // file's maps are known; `obj.field[key]` resolves to nothing.
    if (i + 1 < t.size() && !t[i + 1].ident && t[i + 1].text == "[" &&
        (i == 0 || t[i - 1].ident ||
         (t[i - 1].text != "." &&
          (t[i - 1].text != "->" || (i >= 2 && t[i - 2].text == "this")))) &&
        is_map_var(syms, fns[fn_stack.back()], path, tk.text)) {
      add_site(kEffAlloc, "`" + tk.text + "[]` (map insert)", tk.line);
      continue;
    }

    // ---- calls (direct-effect names become sites, the rest edges) ----
    if (i + 1 >= t.size() || t[i + 1].ident || t[i + 1].text != "(") continue;
    if (is_control_kw(tk.text) || is_annotation_macro(tk.text)) continue;
    const bool is_method = i > 0 && !t[i - 1].ident &&
                           (t[i - 1].text == "." || t[i - 1].text == "->");
    if (is_method) {
      const std::string recv = i >= 2 ? receiver_at(i - 2) : "";
      if (growth_methods().count(tk.text)) {
        add_site(kEffAlloc, "`" + tk.text + "` (container growth)", tk.line);
      } else if (tk.text == "lock") {
        add_site(kEffLock, "a `.lock()` acquisition", tk.line);
      } else if (blocking_methods().count(tk.text)) {
        add_site(kEffBlock, "blocking `." + tk.text + "()`", tk.line);
      } else if (tk.text == "now") {
        add_site(kEffWallClock, "a `now()` clock read", tk.line);
      } else if ((tk.text == "begin" || tk.text == "cbegin") &&
                 // `.end()` alone is the find()-comparison idiom — a keyed
                 // lookup, deterministic whatever the hash order. Only
                 // begin()/cbegin() (or a range-for, handled above) can
                 // actually traverse in bucket order.
                 !recv.empty() &&
                 uvar_kind(syms, fns[fn_stack.back()].cls, recv) != nullptr) {
        add_site(kEffUnordered,
                 "iteration over " +
                     *uvar_kind(syms, fns[fn_stack.back()].cls, recv) +
                     " container `" + recv + "`",
                 tk.line);
      } else {
        add_call(recv, "", tk.text, tk.line);
      }
      continue;
    }
    if (i >= 2 && !t[i - 1].ident && t[i - 1].text == "::" && t[i - 2].ident) {
      const std::string& qual = t[i - 2].text;
      if (tk.text == "now") {
        add_site(kEffWallClock, "a `" + qual + "::now()` clock read", tk.line);
      } else if (blocking_free_calls().count(tk.text)) {
        add_site(kEffBlock, "blocking `" + tk.text + "()`", tk.line);
      } else if (io_calls().count(tk.text)) {
        add_site(kEffBlock, "`" + tk.text + "` (I/O)", tk.line);
      } else if (wallclock_calls().count(tk.text)) {
        add_site(kEffWallClock, "`" + tk.text + "` (wall clock)", tk.line);
      } else if (qual != "std") {
        add_call("", qual, tk.text, tk.line);
      }
      continue;
    }
    // Free/unqualified call.
    if (i > 0 && t[i - 1].ident && t[i - 1].text == "new") continue;
    if (blocking_free_calls().count(tk.text)) {
      add_site(kEffBlock, "blocking `" + tk.text + "()`", tk.line);
    } else if (io_calls().count(tk.text)) {
      add_site(kEffBlock, "`" + tk.text + "` (I/O)", tk.line);
    } else if (wallclock_calls().count(tk.text)) {
      add_site(kEffWallClock, "`" + tk.text + "` (wall clock)", tk.line);
    } else {
      add_call("", "", tk.text, tk.line);
    }
  }
}

struct EffScan {
  std::vector<EffFnDef> fns;
  std::map<std::string, std::size_t> by_id;
  EffSymbols syms;
  std::map<std::string, std::vector<std::string>> raw_by_file;
  /// Resolved call-graph adjacency (deduplicated), plus one representative
  /// call site per edge for path rendering.
  std::vector<std::vector<std::size_t>> adj;
  std::map<std::pair<std::size_t, std::size_t>, std::pair<std::string, std::size_t>>
      edge_site;
};

constexpr std::size_t kEffNone = static_cast<std::size_t>(-1);

/// Resolve one call site to a definition index, or kEffNone. Order:
/// receiver class (or caller's own class, or explicit qualifier) matched
/// against "Class::fn" with same-module preference on ambiguity, then a
/// unique project-wide free function for bare names. Anything else drops —
/// a dropped edge can hide an effect but never invent one.
std::size_t resolve_effect_call(
    const EffScan& scan, const EffCallSite& c, const EffFnDef& caller,
    const std::multimap<std::string, std::size_t>& by_short,
    const std::multimap<std::string, std::size_t>& by_bare) {
  const auto pick = [&scan, &c](std::vector<std::size_t> cand) -> std::size_t {
    if (cand.empty()) return kEffNone;
    if (cand.size() == 1) return cand.front();
    std::vector<std::size_t> same_mod;
    const std::string mod = module_of(c.file);
    for (std::size_t idx : cand)
      if (module_of(scan.fns[idx].file) == mod) same_mod.push_back(idx);
    return same_mod.size() == 1 ? same_mod.front() : kEffNone;
  };
  const auto short_candidates = [&](const std::string& cls) {
    std::vector<std::size_t> cand;
    const auto [b, e] = by_short.equal_range(cls + "::" + c.name);
    for (auto it = b; it != e; ++it) cand.push_back(it->second);
    return cand;
  };
  if (!c.recv.empty()) {
    const auto vc = scan.syms.var_cls.find(c.recv);
    if (vc == scan.syms.var_cls.end()) return kEffNone;
    return pick(short_candidates(vc->second));
  }
  if (!c.qual.empty()) {
    // Class-qualified static call, or a namespace-qualified free call:
    // accept definitions whose id ends in "…qual::name".
    std::vector<std::size_t> cand = short_candidates(c.qual);
    if (cand.empty()) {
      const std::string suffix = c.qual + "::" + c.name;
      const auto [b, e] = by_bare.equal_range(c.name);
      for (auto it = b; it != e; ++it) {
        const std::string& id = scan.fns[it->second].id;
        if (id == suffix || ends_with(id, "::" + suffix))
          cand.push_back(it->second);
      }
    }
    return pick(cand);
  }
  // Bare call: the caller's own class first, then a unique free function.
  if (!caller.cls.empty()) {
    const std::size_t hit = pick(short_candidates(caller.cls));
    if (hit != kEffNone) return hit;
  }
  if (bare_call_stoplist().count(c.name)) return kEffNone;
  std::vector<std::size_t> cand;
  const auto [b, e] = by_bare.equal_range(c.name);
  for (auto it = b; it != e; ++it)
    if (scan.fns[it->second].cls.empty()) cand.push_back(it->second);
  return cand.size() == 1 ? cand.front() : kEffNone;
}

/// Shared front half of lint_effects/effect_registry: scan, resolve the
/// call graph. Only src/-module files participate; the two test-harness
/// headers are exempt (see effect_exempt_file).
EffScan scan_effects(
    const std::vector<std::pair<std::string, std::string>>& files) {
  EffScan scan;
  std::vector<std::pair<std::string, std::vector<Tok>>> toks;
  for (const auto& [path, contents] : files) {
    if (module_of(path).empty()) continue;
    if (in_fixture_dir(path) || effect_exempt_file(path)) continue;
    toks.emplace_back(path, tokenize(strip_code(contents)));
    scan.raw_by_file[path] = split_lines(contents);
  }
  for (const auto& [path, t] : toks) collect_effect_decls(path, t, scan.syms);
  for (const auto& [path, t] : toks) {
    (void)path;
    collect_effect_vars(t, scan.syms);
  }
  for (const auto& [path, t] : toks)
    collect_effect_bodies(path, t, scan.raw_by_file.at(path), scan.syms,
                          scan.fns, scan.by_id);

  std::multimap<std::string, std::size_t> by_short, by_bare;
  for (std::size_t i = 0; i < scan.fns.size(); ++i) {
    by_short.emplace(scan.fns[i].short_id, i);
    by_bare.emplace(scan.fns[i].bare, i);
  }
  scan.adj.resize(scan.fns.size());
  for (std::size_t i = 0; i < scan.fns.size(); ++i) {
    for (const EffCallSite& c : scan.fns[i].calls) {
      const std::size_t j =
          resolve_effect_call(scan, c, scan.fns[i], by_short, by_bare);
      if (j == kEffNone || j == i) continue;
      if (std::find(scan.adj[i].begin(), scan.adj[i].end(), j) ==
          scan.adj[i].end())
        scan.adj[i].push_back(j);
      scan.edge_site.try_emplace({i, j}, std::make_pair(c.file, c.line));
    }
  }
  return scan;
}

}  // namespace

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& contents) {
  std::vector<Finding> findings;
  const bool is_header = ends_with(path, ".hpp") || ends_with(path, ".h");
  const bool is_wrapper = ends_with(path, "util/thread_annotations.hpp");
  const std::string module = module_of(path);

  const std::vector<std::string> raw = split_lines(contents);
  const std::vector<std::string> code = split_lines(strip_code(contents));

  auto report = [&](std::size_t idx, const std::string& rule,
                    const std::string& message) {
    if (is_suppressed(raw, idx, rule)) return;
    findings.push_back({path, idx + 1, rule, message});
  };

  // -- banned-call ----------------------------------------------------------
  static const std::array<std::pair<const char*, const char*>, 5> kBanned = {{
      {"lgamma", "writes the process-global signgam; use util::lgamma_mt"},
      {"rand", "hidden global PRNG state; use util::Rng"},
      {"strtok", "static tokenizer state; use util::split or strtok_r"},
      {"localtime", "returns a shared static tm; use localtime_r"},
      {"gmtime", "returns a shared static tm; use gmtime_r"},
  }};
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const auto& [name, why] : kBanned) {
      for (std::size_t off : find_banned_calls(code[i], name)) {
        (void)off;
        report(i, "banned-call",
               std::string("call to non-reentrant `") + name + "` (" + why +
                   ")");
      }
    }
  }

  // -- static-mutable -------------------------------------------------------
  // `static std::map<...> cache;` and friends: magic-static initialization
  // is thread-safe, every mutation after it is not. The bench result cache
  // shipped exactly this bug; the rule makes the pattern unwritable. Fix by
  // wrapping container + util::Mutex in a class (bench_common.hpp's
  // ExperimentCache) or declaring it const.
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (std::size_t off : find_token(code[i], "static")) {
      std::string window = code[i].substr(off + 6);
      for (std::size_t j = i + 1; j < code.size() && j <= i + 2; ++j)
        window += " " + code[j];
      if (is_mutable_static_container(window)) {
        report(i, "static-mutable",
               "mutable `static` std:: container is shared state with no "
               "lock — wrap it with util::Mutex in a class (see "
               "bench_common.hpp ExperimentCache) or declare it const");
      }
    }
  }

  // -- raw-mutex ------------------------------------------------------------
  if (!is_wrapper) {
    static const std::array<const char*, 11> kRawSync = {
        "std::mutex",          "std::timed_mutex",
        "std::recursive_mutex", "std::recursive_timed_mutex",
        "std::shared_mutex",    "std::shared_timed_mutex",
        "std::condition_variable", "std::condition_variable_any",
        "std::lock_guard",      "std::unique_lock",
        "std::scoped_lock"};
    for (std::size_t i = 0; i < code.size(); ++i) {
      for (const char* tok : kRawSync) {
        for (std::size_t off : find_token(code[i], tok)) {
          (void)off;
          report(i, "raw-mutex",
                 std::string("`") + tok +
                     "` outside util/thread_annotations.hpp — use the "
                     "annotated util::Mutex/MutexLock/CondVar so "
                     "-Wthread-safety can check the lock discipline");
        }
      }
    }
  }

  // -- relaxed-comment ------------------------------------------------------
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (find_token(code[i], "memory_order_relaxed").empty()) continue;
    bool justified = false;
    const std::size_t lo = i >= 3 ? i - 3 : 0;
    for (std::size_t j = lo; j <= i && !justified; ++j) {
      justified = raw[j].find("relaxed:") != std::string::npos;
    }
    if (!justified) {
      report(i, "relaxed-comment",
             "memory_order_relaxed without a justifying `// relaxed: ...` "
             "comment on this line or the three above");
    }
  }

  // -- header hygiene -------------------------------------------------------
  if (is_header) {
    for (std::size_t i = 0; i < code.size(); ++i) {
      const std::string t = trim(code[i]);
      if (t.empty()) continue;
      if (t.rfind("#pragma once", 0) != 0) {
        report(i, "header-pragma",
               "header's first directive must be #pragma once");
      }
      break;  // only the first non-blank, non-comment line matters
    }
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!find_token(code[i], "using namespace").empty() ||
          trim(code[i]).rfind("using namespace", 0) == 0) {
        report(i, "header-using",
               "`using namespace` in a header leaks into every includer");
      }
    }
  }

  // -- layering -------------------------------------------------------------
  if (!module.empty()) {
    const auto& deps = layer_deps();
    const std::set<std::string>& allowed = deps.at(module);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const std::string inc = include_target(raw[i]);
      if (inc.empty()) continue;
      const std::size_t slash = inc.find('/');
      if (slash == std::string::npos) continue;
      const std::string inc_mod = inc.substr(0, slash);
      if (!deps.count(inc_mod)) continue;  // not a project module
      if (inc_mod == module || allowed.count(inc_mod)) continue;
      report(i, "layering",
             "module `" + module + "` must not include `" + inc_mod +
                 "/` (dependency DAG: see DESIGN.md §9)");
    }
  }

  return findings;
}

namespace {

bool in_fixture_dir(const std::string& path) {
  return path.find("lint_fixtures") != std::string::npos;
}

/// Sorted (root-prefixed path, contents) pairs for every source file under
/// `root`, skipping lint_fixtures trees. A file that cannot be opened or
/// read is appended to `errors` (when given) and omitted from the result —
/// a silently skipped file would make the gate pass vacuously.
std::vector<std::pair<std::string, std::string>> tree_files(
    const std::string& root, std::vector<std::string>* errors = nullptr) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc")
      continue;
    if (in_fixture_dir(entry.path().generic_string())) continue;
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<std::pair<std::string, std::string>> out;
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      if (errors) errors->push_back("cannot open " + p.generic_string());
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
      if (errors) errors->push_back("cannot read " + p.generic_string());
      continue;
    }
    const std::string rel = fs::relative(p, root).generic_string();
    out.emplace_back((fs::path(root) / rel).generic_string(), ss.str());
  }
  return out;
}

}  // namespace

std::vector<Finding> lint_tree(const std::string& root) {
  std::vector<Finding> findings;
  for (const auto& [path, contents] : tree_files(root)) {
    auto file_findings = lint_file(path, contents);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  return findings;
}

std::vector<Finding> lint_lock_graph(
    const std::vector<std::pair<std::string, std::string>>& files) {
  LockSymbols syms;
  std::vector<RawAnnotation> anns;
  std::vector<std::pair<std::string, std::vector<Tok>>> toks;
  std::map<std::string, std::vector<std::string>> raw_by_file;

  for (const auto& [path, contents] : files) {
    // The annotated-primitive wrapper defines Mutex/MutexLock themselves;
    // its internals are not acquisition sites of project locks.
    if (ends_with(path, "util/thread_annotations.hpp")) continue;
    if (in_fixture_dir(path)) continue;
    toks.emplace_back(path, tokenize(strip_code(contents)));
    raw_by_file[path] = split_lines(contents);
    collect_decls(path, toks.back().second, syms, anns);
  }
  for (const RawAnnotation& a : anns) {
    const std::string key = a.cls.empty() ? a.fn : a.cls + "::" + a.fn;
    auto& table = a.kind == RawAnnotation::kAcquires ? syms.fn_acquires
                                                     : syms.fn_requires;
    for (const std::string& arg : a.args)
      table[key].insert(lock_id_for(syms, a.cls, a.file, arg));
  }
  for (const auto& [path, t] : toks) collect_vars(path, t, syms);

  EdgeMap edges;
  std::vector<Finding> findings;
  for (const auto& [path, t] : toks)
    analyze_file(path, t, raw_by_file.at(path), syms, edges, findings);

  auto cycles = cycle_findings(edges, raw_by_file);
  findings.insert(findings.end(), cycles.begin(), cycles.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

const std::vector<std::string>& atomic_protocols() {
  static const std::vector<std::string> protos = {
      "seqlock", "spsc-seq", "release-acquire-flag", "striped-relaxed-counter",
      "monotonic-relaxed", "rcu-handle"};
  return protos;
}

std::vector<Finding> lint_atomics(
    const std::vector<std::pair<std::string, std::string>>& files) {
  const AtomicsScan scan = scan_atomics(files);
  std::vector<Finding> findings;
  const auto suppressed = [&scan](const std::string& file, std::size_t line,
                                  const char* rule) {
    const auto it = scan.raw_by_file.find(file);
    return it != scan.raw_by_file.end() &&
           is_suppressed(it->second, line - 1, rule);
  };
  const auto protocol_list = [] {
    std::string s;
    for (const std::string& p : atomic_protocols())
      s += (s.empty() ? "" : ", ") + p;
    return s;
  }();

  // -- atomic-undeclared ----------------------------------------------------
  for (const AtomicDecl& d : scan.decls) {
    if (d.annotated && d.known) continue;
    if (suppressed(d.file, d.line, "atomic-undeclared")) continue;
    const std::string what =
        d.annotated ? "declares unknown protocol `" + d.protocol + "`"
                    : "has no `// elsa-atomic: <protocol>` declaration";
    findings.push_back({d.file, d.line, "atomic-undeclared",
                        "std::atomic field `" + d.id + "` " + what +
                            " (protocols: " + protocol_list +
                            "; see DESIGN.md §15)"});
  }

  std::map<std::string, const AtomicDecl*> decl_by_id;
  for (const AtomicDecl& d : scan.decls) decl_by_id.emplace(d.id, &d);
  std::map<std::string, std::vector<const AtomicAccess*>> uses;
  for (const AtomicAccess& a : scan.accesses) uses[a.decl_id].push_back(&a);

  // An access that reads the field with at least acquire semantics / writes
  // it with at least release semantics. No stated order means seq_cst.
  const auto acquiring = [](const AtomicAccess& a) {
    return a.kind != AtomicAccess::kStore &&
           (a.orders.empty() ||
            has_order(a, {"acquire", "acq_rel", "seq_cst", "consume"}));
  };
  const auto releasing = [](const AtomicAccess& a) {
    return a.kind != AtomicAccess::kLoad &&
           (a.orders.empty() || has_order(a, {"release", "acq_rel", "seq_cst"}));
  };
  const auto first_site = [](std::vector<const AtomicAccess*> sites) {
    std::sort(sites.begin(), sites.end(),
              [](const AtomicAccess* a, const AtomicAccess* b) {
                return std::tie(a->file, a->line) < std::tie(b->file, b->line);
              });
    return sites.front();
  };

  // -- acquire-release-unpaired ---------------------------------------------
  for (const auto& [id, accesses] : uses) {
    bool any_acquire = false, any_release = false;
    for (const AtomicAccess* a : accesses) {
      any_acquire = any_acquire || acquiring(*a);
      any_release = any_release || releasing(*a);
    }
    // Explicit release publications nothing ever acquire-loads…
    std::vector<const AtomicAccess*> rel_stores, acq_loads;
    for (const AtomicAccess* a : accesses) {
      if (a->kind == AtomicAccess::kStore &&
          has_order(*a, {"release", "acq_rel"}))
        rel_stores.push_back(a);
      if (a->kind == AtomicAccess::kLoad &&
          has_order(*a, {"acquire", "consume"}))
        acq_loads.push_back(a);
    }
    if (!rel_stores.empty() && !any_acquire) {
      const AtomicAccess* site = first_site(rel_stores);
      if (!suppressed(site->file, site->line, "acquire-release-unpaired"))
        findings.push_back(
            {site->file, site->line, "acquire-release-unpaired",
             "release store of `" + id +
                 "` has no acquire-side load anywhere in the project — "
                 "nothing synchronizes-with this publication"});
    }
    // …and explicit acquire loads nothing ever release-publishes.
    if (!acq_loads.empty() && !any_release) {
      const AtomicAccess* site = first_site(acq_loads);
      if (!suppressed(site->file, site->line, "acquire-release-unpaired"))
        findings.push_back(
            {site->file, site->line, "acquire-release-unpaired",
             "acquire load of `" + id +
                 "` has no release-side store anywhere in the project — "
                 "this load never synchronizes-with a publication"});
    }

    // -- rmw-order-too-weak -------------------------------------------------
    const auto decl_it = decl_by_id.find(id);
    if (decl_it != decl_by_id.end() &&
        (decl_it->second->protocol == "release-acquire-flag" ||
         decl_it->second->protocol == "spsc-seq")) {
      for (const AtomicAccess* a : accesses) {
        if (a->kind != AtomicAccess::kRmw && a->kind != AtomicAccess::kCas)
          continue;
        if (!all_relaxed(*a)) continue;
        if (suppressed(a->file, a->line, "rmw-order-too-weak")) continue;
        findings.push_back(
            {a->file, a->line, "rmw-order-too-weak",
             "fully relaxed RMW on `" + id + "`, declared `" +
                 decl_it->second->protocol +
                 "` — hand-off protocols need ordering on the mutating side"});
      }
    }
  }

  // -- fence-undocumented ---------------------------------------------------
  for (const auto& [file, line] : scan.fences) {
    if (suppressed(file, line, "fence-undocumented")) continue;
    findings.push_back(
        {file, line, "fence-undocumented",
         "bare std::atomic_thread_fence orders *all* surrounding accesses "
         "and defeats per-field protocol reasoning; prefer per-field orders "
         "or justify with allow(fence-undocumented)"});
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<AtomicField> atomic_registry(
    const std::vector<std::pair<std::string, std::string>>& files) {
  const AtomicsScan scan = scan_atomics(files);
  std::vector<AtomicField> out;
  out.reserve(scan.decls.size());
  for (const AtomicDecl& d : scan.decls) {
    AtomicField f;
    f.id = d.id;
    f.protocol = d.known ? d.protocol : "";
    f.file = d.file;
    f.line = d.line;
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(),
            [](const AtomicField& a, const AtomicField& b) {
              return std::tie(a.id, a.file, a.line) <
                     std::tie(b.id, b.file, b.line);
            });
  return out;
}

std::vector<Finding> lint_effects(
    const std::vector<std::pair<std::string, std::string>>& files) {
  const EffScan scan = scan_effects(files);

  struct ContractRule {
    unsigned bit;
    const char* rule;
  };
  static const ContractRule kRealtimeRules[] = {
      {kEffAlloc, "realtime-allocates"},
      {kEffLock, "realtime-locks"},
      {kEffBlock, "realtime-blocks"}};
  static const ContractRule kDetRules[] = {
      {kEffWallClock, "det-wall-clock"},
      {kEffRandom, "det-random-device"},
      {kEffUnordered, "det-unordered-escape"}};

  // Annotated roots, sorted by id so the first reporter of a shared site
  // is deterministic.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < scan.fns.size(); ++i)
    if (scan.fns[i].realtime || scan.fns[i].deterministic) roots.push_back(i);
  std::sort(roots.begin(), roots.end(), [&scan](std::size_t a, std::size_t b) {
    return scan.fns[a].id < scan.fns[b].id;
  });

  std::vector<Finding> findings;
  std::set<std::tuple<std::string, std::string, std::size_t>> reported;

  for (std::size_t r : roots) {
    // BFS from the root over resolved call edges; parents give the
    // shortest call path for the message.
    std::vector<std::size_t> parent(scan.fns.size(), kEffNone);
    std::vector<char> seen(scan.fns.size(), 0);
    std::vector<std::size_t> order;
    seen[r] = 1;
    order.push_back(r);
    for (std::size_t qi = 0; qi < order.size(); ++qi) {
      const std::size_t u = order[qi];
      for (std::size_t v : scan.adj[u]) {
        if (seen[v]) continue;
        seen[v] = 1;
        parent[v] = u;
        order.push_back(v);
      }
    }
    const auto path_to = [&](std::size_t f) {
      std::vector<std::size_t> hops;
      for (std::size_t x = f; x != kEffNone; x = parent[x]) {
        hops.push_back(x);
        if (x == r) break;
      }
      std::string p;
      for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
        if (!p.empty()) p += " -> ";
        p += scan.fns[*it].short_id;
      }
      return p;
    };

    const EffFnDef& root = scan.fns[r];
    const auto emit = [&](const ContractRule& cr, const char* marker,
                          std::size_t u) {
      for (const EffSite& s : scan.fns[u].sites) {
        if (s.bit != cr.bit) continue;
        const auto key = std::make_tuple(std::string(cr.rule), s.file, s.line);
        if (reported.count(key)) continue;
        const auto rit = scan.raw_by_file.find(s.file);
        if (rit != scan.raw_by_file.end() && s.line > 0 &&
            is_suppressed(rit->second, s.line - 1, cr.rule)) {
          reported.insert(key);  // an allow() covers every reaching root
          continue;
        }
        std::string msg = "`" + root.id + "` is marked " + marker +
                          " but reaches " + s.what;
        if (u != r) msg += " via " + path_to(u);
        reported.insert(key);
        findings.push_back({s.file, s.line, cr.rule, std::move(msg)});
      }
    };
    for (std::size_t u : order) {
      if (root.realtime)
        for (const ContractRule& cr : kRealtimeRules)
          emit(cr, "elsa-realtime", u);
      if (root.deterministic)
        for (const ContractRule& cr : kDetRules)
          emit(cr, "elsa-deterministic", u);
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<EffectFn> effect_registry(
    const std::vector<std::pair<std::string, std::string>>& files) {
  const EffScan scan = scan_effects(files);
  std::vector<EffectFn> out;
  for (const EffFnDef& f : scan.fns) {
    if (!f.realtime && !f.deterministic) continue;
    EffectFn e;
    e.id = f.id;
    e.contract = f.realtime && f.deterministic ? "realtime+deterministic"
                 : f.realtime                  ? "realtime"
                                               : "deterministic";
    e.file = f.file;
    e.line = f.line;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const EffectFn& a, const EffectFn& b) {
    return std::tie(a.id, a.file, a.line) < std::tie(b.id, b.file, b.line);
  });
  return out;
}

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> table = {
      {"acquire-release-unpaired",
       "release store (or acquire load) no other side ever pairs with",
       "tests/lint_fixtures/atomics/unpaired.cpp"},
      {"atomic-undeclared",
       "std::atomic field without an `// elsa-atomic: <protocol>` declaration",
       "tests/lint_fixtures/atomics/undeclared.hpp"},
      {"banned-call",
       "non-reentrant libc call (lgamma, rand, strtok, localtime, gmtime)",
       "tests/lint_fixtures/banned_call.cpp"},
      {"blocking-under-lock",
       "blocking call (ring push/pop_wait, join, sleep, I/O) under a held "
       "Mutex",
       "tests/lint_fixtures/lockgraph/blocking_under_lock.cpp"},
      {"cv-wait-extra-lock",
       "CondVar wait while a second mutex is held",
       "tests/lint_fixtures/lockgraph/cv_second_lock.cpp"},
      {"det-random-device",
       "std::random_device reachable from an elsa-deterministic function",
       "tests/lint_fixtures/effects/random_device.cpp"},
      {"det-unordered-escape",
       "unordered/pointer-keyed iteration reachable from elsa-deterministic",
       "tests/lint_fixtures/effects/unordered_escape.cpp"},
      {"det-wall-clock",
       "wall-clock read reachable from an elsa-deterministic function",
       "tests/lint_fixtures/effects/wall_clock.cpp"},
      {"fence-undocumented",
       "bare std::atomic_thread_fence defeats per-field protocol reasoning",
       "tests/lint_fixtures/atomics/fence.cpp"},
      {"header-pragma",
       "header's first directive must be #pragma once",
       "tests/lint_fixtures/bad_header.hpp"},
      {"header-using",
       "`using namespace` in a header leaks into every includer",
       "tests/lint_fixtures/bad_header.hpp"},
      {"layering",
       "include that violates the module dependency DAG",
       "tests/lint_fixtures/layering_break.cpp"},
      {"lock-cycle",
       "cycle in the whole-project lock-acquisition graph",
       "tests/lint_fixtures/lockgraph/cycle2.cpp"},
      {"raw-mutex",
       "std sync primitive outside the annotated util wrapper",
       "tests/lint_fixtures/raw_mutex.cpp"},
      {"realtime-allocates",
       "heap allocation reachable from an elsa-realtime function",
       "tests/lint_fixtures/effects/allocates.cpp"},
      {"realtime-blocks",
       "blocking call or I/O reachable from an elsa-realtime function",
       "tests/lint_fixtures/effects/blocks.cpp"},
      {"realtime-locks",
       "lock acquisition reachable from an elsa-realtime function",
       "tests/lint_fixtures/effects/locks.cpp"},
      {"relaxed-comment",
       "memory_order_relaxed without a justifying `// relaxed:` comment",
       "tests/lint_fixtures/relaxed_no_comment.cpp"},
      {"rmw-order-too-weak",
       "fully relaxed RMW on a hand-off protocol field",
       "tests/lint_fixtures/atomics/weak_rmw.cpp"},
      {"static-mutable",
       "mutable `static` std:: container is unsynchronized shared state",
       "tests/lint_fixtures/static_cache.cpp"},
  };
  return table;
}

std::string format_rule_table() {
  std::size_t id_w = 0, desc_w = 0;
  for (const RuleInfo& r : rule_table()) {
    id_w = std::max(id_w, r.id.size());
    desc_w = std::max(desc_w, r.description.size());
  }
  std::ostringstream out;
  for (const RuleInfo& r : rule_table()) {
    out << r.id << std::string(id_w - r.id.size() + 2, ' ') << r.description
        << std::string(desc_w - r.description.size() + 2, ' ') << r.fixture
        << "\n";
  }
  return out.str();
}

std::vector<Finding> lint_roots(const std::vector<std::string>& roots) {
  return lint_roots(roots, nullptr);
}

std::vector<Finding> lint_roots(const std::vector<std::string>& roots,
                                std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, std::string>> all_files;
  for (const std::string& root : roots) {
    if (!fs::is_directory(root)) {
      if (errors) errors->push_back("lint root is not a directory: " + root);
      continue;
    }
    for (auto& file : tree_files(root, errors)) {
      auto file_findings = lint_file(file.first, file.second);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
      all_files.push_back(std::move(file));
    }
  }
  auto lock_findings = lint_lock_graph(all_files);
  findings.insert(findings.end(), lock_findings.begin(), lock_findings.end());
  auto atomic_findings = lint_atomics(all_files);
  findings.insert(findings.end(), atomic_findings.begin(),
                  atomic_findings.end());
  auto effect_findings = lint_effects(all_files);
  findings.insert(findings.end(), effect_findings.begin(),
                  effect_findings.end());
  return findings;
}

std::string format(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

namespace {

/// GitHub workflow-command escaping; properties additionally escape the
/// separators (':' and ',') the command parser is sensitive to.
std::string gh_escape(const std::string& s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += property ? "%3A" : ":"; break;
      case ',': out += property ? "%2C" : ","; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string format_github(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << "::error file=" << gh_escape(f.file, true) << ",line=" << f.line
        << ",title=" << gh_escape("elsa-lint " + f.rule, true)
        << "::" << gh_escape("[" + f.rule + "] " + f.message, false) << "\n";
  }
  return out.str();
}

}  // namespace elsa::lint
