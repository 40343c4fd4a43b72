#include "helo/helo.hpp"

#include <limits>

#include "util/strings.hpp"

namespace elsa::helo {

namespace {

/// Tokenise `message` into `out` (capacity kMaxTokens): util::tokenize's
/// numeric test, plus a literal "d+", which generalises to itself.
std::size_t tokenize_message(std::string_view message, util::Token* out) {
  const std::size_t n = util::tokenize(message, out, TemplateMiner::kMaxTokens);
  for (std::size_t i = 0; i < n; ++i)
    out[i].numeric = out[i].numeric || out[i].text() == "d+";
  return n;
}

/// What a template stores for a token: "d+" if numeric, else its text.
std::string_view generalised(const util::Token& tok) {
  return tok.numeric ? std::string_view("d+") : tok.text();
}

/// The matching rule (helo.hpp, step 3) for one template token.
bool token_matches(const std::string& tmpl, const util::Token& tok) {
  if (tmpl.size() == 1 && tmpl[0] == '*') return true;
  if (tok.numeric) return tmpl.size() == 2 && tmpl[0] == 'd' && tmpl[1] == '+';
  return tmpl == tok.text();
}

}  // namespace

std::string Template::text() const { return util::join(tokens, " "); }

std::size_t Template::wildcards() const {
  std::size_t n = 0;
  for (const auto& t : tokens)
    if (t == "*" || t == "d+") ++n;
  return n;
}

TemplateMiner::TemplateMiner(MinerConfig cfg) : cfg_(cfg) {}

TemplateMiner TemplateMiner::from_templates(std::vector<Template> templates,
                                            MinerConfig cfg) {
  TemplateMiner m(cfg);
  m.templates_ = std::move(templates);
  for (std::uint32_t id = 0; id < m.templates_.size(); ++id) {
    auto& t = m.templates_[id];
    t.id = id;
    if (t.tokens.empty()) continue;
    m.buckets_[bucket_key(t.tokens.size(), t.tokens.front())]
        .template_ids.push_back(id);
  }
  return m;
}

std::uint64_t TemplateMiner::bucket_key(std::size_t len,
                                        std::string_view first) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the first token
  for (unsigned char c : first) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return (static_cast<std::uint64_t>(len) << 48) ^ (h & 0xffffffffffffULL);
}

std::uint32_t TemplateMiner::best_match(const Bucket& bucket,
                                        const util::Token* tokens,
                                        std::size_t n,
                                        std::size_t* mismatches_out) const {
  std::uint32_t best = kNoTemplate;
  std::size_t best_mismatches = std::numeric_limits<std::size_t>::max();
  const std::size_t allowed = static_cast<std::size_t>(
      cfg_.max_word_mismatch * static_cast<double>(n));

  for (const std::uint32_t id : bucket.template_ids) {
    const Template& t = templates_[id];
    std::size_t mismatches = 0;
    bool viable = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (token_matches(t.tokens[i], tokens[i])) continue;
      if (++mismatches > allowed || mismatches >= best_mismatches) {
        viable = false;
        break;
      }
    }
    if (viable && mismatches < best_mismatches) {
      best_mismatches = mismatches;
      best = id;
      if (mismatches == 0) break;
    }
  }
  if (mismatches_out != nullptr && best != kNoTemplate)
    *mismatches_out = best_mismatches;
  return best;
}

std::uint32_t TemplateMiner::classify(std::string_view message) {
  util::Token tokens[kMaxTokens];  // filled [0, n) before any read
  const std::size_t n = tokenize_message(message, tokens);
  if (n == 0) return kNoTemplate;
  Bucket& bucket = buckets_[bucket_key(n, generalised(tokens[0]))];

  std::size_t mismatches = 0;
  const std::uint32_t best = best_match(bucket, tokens, n, &mismatches);
  if (best != kNoTemplate) {
    Template& t = templates_[best];
    // An exact match has nothing to wildcard. assign(1, '*') rather than
    // = "*": GCC 12 warns falsely (-Wrestrict) on the inlined const char*
    // assignment here.
    if (mismatches != 0)
      for (std::size_t i = 0; i < n; ++i)
        if (!token_matches(t.tokens[i], tokens[i]))
          t.tokens[i].assign(1, '*');
    ++t.count;
    return best;
  }

  Template t;
  t.id = static_cast<std::uint32_t>(templates_.size());
  t.tokens.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    t.tokens.emplace_back(generalised(tokens[i]));
  t.count = 1;
  templates_.push_back(std::move(t));
  bucket.template_ids.push_back(templates_.back().id);
  return templates_.back().id;
}

// elsa-realtime: the producer-side classify on every served record — a
// stack token buffer of views into the message, one bucket lookup and
// in-place compares against the frozen templates; nothing is allocated.
std::uint32_t TemplateMiner::classify_const(std::string_view message) const {
  util::Token tokens[kMaxTokens];  // filled [0, n) before any read
  const std::size_t n = tokenize_message(message, tokens);
  if (n == 0) return kNoTemplate;
  const auto it = buckets_.find(bucket_key(n, generalised(tokens[0])));
  if (it == buckets_.end()) return kNoTemplate;
  return best_match(it->second, tokens, n);
}

}  // namespace elsa::helo
