#include "introspect/bench_diff.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace hpmmap::introspect {

namespace {

/// Recursive-descent reader over the JSON subset the benches emit.
class Parser {
 public:
  Parser(std::string_view text, BenchDoc& doc) : text_(text), doc_(doc) {}

  [[nodiscard]] bool parse() {
    skip_ws();
    if (!parse_value("")) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: break; // \" \\ \/ pass through
        }
      }
      out += c;
    }
    return consume('"');
  }

  [[nodiscard]] bool parse_value(const std::string& key) {
    skip_ws();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return parse_object(key);
    }
    if (c == '[') {
      return parse_array(key);
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) {
        return false;
      }
      doc_.strings[key] = std::move(s);
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      doc_.bools[key] = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      doc_.bools[key] = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    // Number.
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      return false;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    doc_.numbers[key] = v;
    return true;
  }

  [[nodiscard]] bool parse_object(const std::string& prefix) {
    if (!consume('{')) {
      return false;
    }
    skip_ws();
    if (consume('}')) {
      return true;
    }
    for (;;) {
      skip_ws();
      std::string name;
      if (!parse_string(name)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        return false;
      }
      const std::string key = prefix.empty() ? name : prefix + "." + name;
      if (!parse_value(key)) {
        return false;
      }
      skip_ws();
      if (consume(',')) {
        continue;
      }
      return consume('}');
    }
  }

  [[nodiscard]] bool parse_array(const std::string& prefix) {
    if (!consume('[')) {
      return false;
    }
    skip_ws();
    if (consume(']')) {
      return true;
    }
    for (std::size_t i = 0;; ++i) {
      if (!parse_value(prefix + "." + std::to_string(i))) {
        return false;
      }
      skip_ws();
      if (consume(',')) {
        continue;
      }
      return consume(']');
    }
  }

  std::string_view text_;
  BenchDoc& doc_;
  std::size_t pos_ = 0;
};

} // namespace

std::optional<BenchDoc> parse_bench_json(std::string_view text) {
  BenchDoc doc;
  Parser p(text, doc);
  if (!p.parse()) {
    return std::nullopt;
  }
  return doc;
}

BenchDoc median_of(const std::vector<BenchDoc>& rounds) {
  BenchDoc out;
  std::map<std::string, std::vector<double>> values;
  for (const BenchDoc& doc : rounds) {
    for (const auto& [key, v] : doc.numbers) {
      values[key].push_back(v);
    }
    for (const auto& [key, s] : doc.strings) {
      out.strings.emplace(key, s);
    }
    for (const auto& [key, b] : doc.bools) {
      bool& all = out.bools.emplace(key, b).first->second;
      all = all && b;
    }
  }
  for (auto& [key, v] : values) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    out.numbers[key] = v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  }
  return out;
}

bool gated_by_default(std::string_view key) {
  return key.ends_with("improvement_ratio") || key.ends_with("speedup");
}

DiffResult diff_bench(const BenchDoc& baseline, const BenchDoc& current, double threshold,
                      const std::vector<std::string>& gate_keys) {
  DiffResult result;
  result.threshold = threshold;
  const auto is_gated = [&](const std::string& key) {
    if (gate_keys.empty()) {
      return gated_by_default(key);
    }
    for (const std::string& g : gate_keys) {
      if (g == key) {
        return true;
      }
    }
    return false;
  };

  for (const auto& [key, base_value] : baseline.numbers) {
    const auto it = current.numbers.find(key);
    if (it == current.numbers.end()) {
      if (is_gated(key)) {
        result.notes.push_back("gated metric missing from current: " + key);
        result.pass = false;
      }
      continue;
    }
    MetricDelta d;
    d.key = key;
    d.baseline = base_value;
    d.current = it->second;
    d.ratio = base_value != 0.0 ? it->second / base_value : 0.0;
    d.gated = is_gated(key);
    d.regressed = d.gated && d.current < d.baseline * (1.0 - threshold);
    result.pass = result.pass && !d.regressed;
    result.deltas.push_back(std::move(d));
  }

  // Identity and determinism checks: a renamed bench or a divergent
  // parallel run is a failure no threshold can excuse.
  const auto base_bench = baseline.strings.find("bench");
  const auto cur_bench = current.strings.find("bench");
  if (base_bench != baseline.strings.end() && cur_bench != current.strings.end() &&
      base_bench->second != cur_bench->second) {
    result.notes.push_back("bench identity changed: " + base_bench->second + " vs " +
                           cur_bench->second);
    result.pass = false;
  }
  for (const auto& [key, value] : current.bools) {
    if (key.ends_with("deterministic_match") && !value) {
      result.notes.push_back("determinism check failed: " + key + " is false");
      result.pass = false;
    }
  }
  return result;
}

std::optional<double> parse_threshold(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !(v >= 0.0 && v < 1.0)) {
    return std::nullopt;
  }
  return v;
}

std::string format_diff(const DiffResult& result, std::string_view title) {
  std::string out;
  out += "== ";
  out += title;
  out += " ==\n";
  char buf[192];
  for (const MetricDelta& d : result.deltas) {
    std::snprintf(buf, sizeof(buf), "  %-40s %14.4g -> %14.4g  (%+7.2f%%)%s%s\n", d.key.c_str(),
                  d.baseline, d.current, (d.ratio - 1.0) * 100.0, d.gated ? " [gated]" : "",
                  d.regressed ? " REGRESSED" : "");
    out += buf;
  }
  for (const std::string& note : result.notes) {
    out += "  note: " + note + "\n";
  }
  // The verdict names the threshold it actually applied so a per-bench
  // --threshold-for override is visible in the log, not silent.
  std::snprintf(buf, sizeof(buf), "  %s (threshold %.4g%%)\n", result.pass ? "PASS" : "FAIL",
                result.threshold * 100.0);
  out += buf;
  return out;
}

} // namespace hpmmap::introspect
