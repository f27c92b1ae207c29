// The one comparison every determinism and pure-observer check makes:
// first_difference(a, b).
//
// A resumed run must equal the straight run, a sweep must not depend on
// --jobs, and an observer must not change what it observes. Each check
// compares every field of its results. The result types are aggregates,
// so snapshot/archive.hpp's default field list walks their members in
// declaration order, with the same snapshot::Archive the snapshot file
// uses: a member added to a result type is compared with no other edit.
// The same walk compares snapshot images field by field.
//
// Only tests and benches include this header; the harness library
// itself never instantiates a comparison.
#pragma once

#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "snapshot/archive.hpp"

namespace hpmmap::harness {

/// Encodes a value into memory through its field list. Given the encoding
/// of a reference value, it instead walks a second value against it and
/// keeps the path of the first leaf whose bytes differ, so doubles compare
/// bit for bit (-0.0 differs from 0.0).
class ResultEncoder : public snapshot::Archive<ResultEncoder> {
 public:
  static constexpr bool kLoads = false;

  explicit ResultEncoder(const std::string* reference = nullptr) : reference_(reference) {}

  template <class T>
  void walk(const T& x) {
    item(const_cast<T&>(x)); // the encoder only reads
  }

  /// Each member is one path step, numbered from 0 within its record.
  template <class... Ts>
  void operator()(Ts&... xs) {
    (step('#', [&] { item(xs); }), ...);
  }
  /// Raw object bytes are one leaf, the step of the member they encode;
  /// equal values of T must have equal object bytes.
  template <class T>
  void pod(T& x) {
    static_assert(std::has_unique_object_representations_v<T>);
    Archive::pod(x);
  }
  template <class T>
  void element(T& e) {
    step('[', [&] { item(e); });
  }

  void bytes(const void* p, std::size_t n) {
    if (reference_ == nullptr) {
      encoded.append(static_cast<const char*>(p), n);
    } else if (!differs_ && n != 0 &&
               (n > reference_->size() - pos_ ||
                std::memcmp(reference_->data() + pos_, p, n) != 0)) {
      differs_ = path_;
    }
    pos_ += n;
  }

  /// After walking against a reference: `root #member [element] ...` for
  /// the first differing leaf, or nullopt when the encodings match.
  [[nodiscard]] std::optional<std::string> difference(std::string root) const {
    if (!differs_ && pos_ == reference_->size()) {
      return std::nullopt;
    }
    for (const auto& [kind, index] : differs_.value_or(Path{})) {
      root += root.empty() ? "" : " ";
      // Piece by piece: GCC 12 at -O3 reports `"#" + to_string(i)` as -Wrestrict.
      (root += kind) += std::to_string(index);
      root += kind == '[' ? "]" : "";
    }
    return root;
  }

  std::string encoded;

 private:
  using Path = std::vector<std::pair<char, std::size_t>>; // ('#' member | '[' element, index)

  template <class F>
  void step(char kind, F&& walk) {
    const std::size_t index = next_;
    path_.emplace_back(kind, index);
    next_ = 0;
    walk();
    next_ = index + 1;
    path_.pop_back();
  }

  const std::string* reference_;
  std::size_t pos_ = 0;
  Path path_;
  std::size_t next_ = 0;
  std::optional<Path> differs_;
};

/// The root of a difference path: a result type's name, or a vector of one.
template <class T>
std::string result_name(std::type_identity<T> /*unnamed*/) {
  return {};
}
inline std::string result_name(std::type_identity<RunResult>) { return "RunResult"; }
inline std::string result_name(std::type_identity<SeriesPoint>) { return "SeriesPoint"; }
inline std::string result_name(std::type_identity<ServerRunResult>) { return "ServerRunResult"; }
inline std::string result_name(std::type_identity<SmpRunResult>) { return "SmpRunResult"; }
inline std::string result_name(std::type_identity<snapshot::WorldImage>) { return "WorldImage"; }
template <class T>
std::string result_name(std::type_identity<std::vector<T>> /*list*/) {
  return "vector<" + result_name(std::type_identity<T>{}) + ">";
}

/// nullopt when `a` and `b` are equal in every field, bit for bit;
/// otherwise the path of the first field that differs, e.g.
/// `ServerRunResult #17 #0 [41] #6` for attribution.requests[41].fault.
template <class T>
[[nodiscard]] std::optional<std::string> first_difference(const T& a, const T& b) {
  ResultEncoder reference;
  reference.walk(a);
  ResultEncoder other(&reference.encoded);
  other.walk(b);
  return other.difference(result_name(std::type_identity<T>{}));
}

} // namespace hpmmap::harness
