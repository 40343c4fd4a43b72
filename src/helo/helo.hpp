// HELO — Hierarchical Event Log Organizer (re-implementation of the paper's
// preprocessing stage [15], §III.A).
//
// Raw HPC log messages are unstructured and vary per instance (addresses,
// counts, locations). HELO reduces them to *message templates*: regular
// expressions over tokens where "d+" stands for a numeric field and "*" for
// an arbitrary one. Every downstream signal is keyed by template id.
//
// Algorithm (offline and online are the same code path; online simply keeps
// classifying into the same miner so new software versions create new
// templates on the fly, as §III.A requires):
//   1. tokenise in one pass over the message (util::tokenize) on ' ' and
//      '\t' into a stack buffer of views into the message; a token is
//      numeric when it is a literal "d+" or looks_numeric(), and a numeric
//      token generalises to "d+". Only the first kMaxTokens tokens are
//      kept: a longer message is classified on that prefix (the longest
//      generated message has 19 tokens), so no input makes classification
//      allocate per token;
//   2. bucket by (token count, generalised first token) — the
//      "hierarchical" part: messages of different lengths or different
//      leading constants never share a template;
//   3. within a bucket, greedily match against existing templates counting
//      mismatches: a template token matches when it is "*", when it is
//      "d+" and the token is numeric, or when the token is not numeric and
//      its text is equal. If the best template's mismatch fraction is at
//      or below `max_word_mismatch`, join it and wildcard the mismatching
//      positions, else found a new template from the generalised tokens.
// classify_const runs steps 1-3 without joining or founding and allocates
// nothing; classify builds strings only when it founds a template.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace elsa::util {
struct Token;
}  // namespace elsa::util

namespace elsa::helo {

struct Template {
  std::uint32_t id = 0;
  std::vector<std::string> tokens;  ///< constants, "d+", or "*"
  std::uint64_t count = 0;          ///< messages matched so far

  /// Rendered template text, e.g. "linkcard power module * is not accessible".
  std::string text() const;
  /// Number of wildcard positions ("*" or "d+").
  std::size_t wildcards() const;
};

struct MinerConfig {
  /// Maximum fraction of non-wildcard positions allowed to mismatch when
  /// joining an existing template.
  double max_word_mismatch = 0.30;
};

class TemplateMiner {
 public:
  static constexpr std::uint32_t kNoTemplate = 0xffffffffu;
  /// Tokens a message is classified on; later tokens are ignored.
  static constexpr std::size_t kMaxTokens = 64;

  explicit TemplateMiner(MinerConfig cfg = {});

  /// Rebuild a miner from a persisted template set (ids must be dense and
  /// equal the vector index). Used by model deserialisation.
  static TemplateMiner from_templates(std::vector<Template> templates,
                                      MinerConfig cfg = {});

  /// Classify a message, creating a new template when nothing fits.
  std::uint32_t classify(std::string_view message);

  /// Classify without mutating the template set; kNoTemplate if unseen.
  std::uint32_t classify_const(std::string_view message) const;

  std::size_t size() const { return templates_.size(); }
  const Template& at(std::uint32_t id) const { return templates_.at(id); }
  const std::vector<Template>& templates() const { return templates_; }

 private:
  struct Bucket {
    std::vector<std::uint32_t> template_ids;
  };

  static std::uint64_t bucket_key(std::size_t len, std::string_view first);

  /// Best template id in the bucket for the `n` tokens; kNoTemplate if the
  /// bucket is empty or nothing is within threshold. When a template is
  /// found and `mismatches` is non-null, it receives that template's count
  /// of mismatching tokens (0 for an exact match).
  std::uint32_t best_match(const Bucket& bucket, const util::Token* tokens,
                           std::size_t n,
                           std::size_t* mismatches = nullptr) const;

  MinerConfig cfg_;
  std::vector<Template> templates_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

}  // namespace elsa::helo
