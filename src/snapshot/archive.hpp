// The field-list walker shared by the snapshot file format
// (serialize.cpp) and the harness's result comparison
// (harness/result_fields.hpp).
//
// A type names its fields once, in order, in a `fields(ar, x)` list;
// an archive derived from Archive<Self> walks that list and picks each
// value's encoding from its type: scalars and enums as their raw
// little-endian bytes; arrays of numbers (and strings) as one run behind
// a length word when they can grow; lists of records as a length word
// and then each record's fields; trace strings (`const char*`) as a
// length word and their characters. `ar.pod(x)` takes a plain stats
// struct as its raw object bytes. The lists below are the ones both
// users need: trace events and their arguments, injector counters and
// std::pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string_view>
#include <type_traits>
#include <utility>

#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::snapshot {

/// A contiguous array of numbers (std::string included): one raw run.
template <typename R>
concept NumberArray = std::ranges::contiguous_range<R> &&
                      std::is_arithmetic_v<std::ranges::range_value_t<R>>;

/// A list whose length is stored in the encoding (std::vector, std::string).
template <typename R>
concept Growable = requires(R& r, std::size_t n) { r.resize(n); };

/// The encoding shared by every archive. An archive supplies `bytes(p, n)`
/// for a raw run and `kLoads`; a loading archive also hides `length<E>(n)`
/// (the length word of a list of E) and `cstr(s)` (a trace string). An
/// archive may hide `element(e)` to see each list element walked. Saving
/// walks the value through a const_cast; nothing below writes to a value
/// unless `kLoads`.
template <class Self>
class Archive {
 public:
  template <class... Ts>
  void operator()(Ts&... xs) {
    (item(xs), ...);
  }

  /// A trivially copyable struct as its raw object bytes.
  template <class T>
  void pod(T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    self().bytes(&x, sizeof(T));
  }

  template <class E>
  void length(std::size_t n) {
    const std::uint64_t v = n;
    self().bytes(&v, sizeof v);
  }
  void cstr(const char* s) {
    const std::string_view sv = s != nullptr ? s : "";
    self().template length<char>(sv.size());
    self().bytes(sv.data(), sv.size());
  }

 protected:
  Self& self() { return static_cast<Self&>(*this); }

  template <class T>
  void item(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      // One byte; a loaded byte other than 0 or 1 must not become a bool.
      std::uint8_t b = x ? 1 : 0;
      self().bytes(&b, 1);
      if constexpr (Self::kLoads) {
        x = b != 0;
      }
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      self().bytes(&x, sizeof(T));
    } else if constexpr (std::is_same_v<T, const char*>) {
      self().cstr(x);
    } else if constexpr (NumberArray<T>) {
      using V = std::ranges::range_value_t<T>;
      if constexpr (Growable<T>) {
        list_length(x);
      }
      self().bytes(std::ranges::data(x), std::ranges::size(x) * sizeof(V));
    } else if constexpr (std::ranges::range<T>) {
      if constexpr (Growable<T>) {
        list_length(x);
      }
      for (auto& e : x) {
        self().element(e);
      }
    } else {
      fields(self(), x);
    }
  }

  template <class T>
  void element(T& e) {
    item(e);
  }

 private:
  template <class R>
  void list_length(R& r) {
    std::size_t n = r.size();
    self().template length<std::ranges::range_value_t<R>>(n);
    if constexpr (Self::kLoads) {
      r.resize(n);
    }
  }
};

template <class Ar, class A, class B>
void fields(Ar& ar, std::pair<A, B>& p) {
  ar(p.first, p.second);
}

/// The union member is picked by `kind`, which is read first.
template <class Ar>
void fields(Ar& ar, trace::Arg& a) {
  ar(a.name, a.kind);
  switch (a.kind) {
    case trace::Arg::Kind::kNone:
      break;
    case trace::Arg::Kind::kU64:
      ar(a.value.u64);
      break;
    case trace::Arg::Kind::kF64:
      ar(a.value.f64);
      break;
    case trace::Arg::Kind::kStr:
      ar(a.value.str);
      break;
  }
}

template <class Ar>
void fields(Ar& ar, trace::Event& e) {
  ar(e.ts, e.dur, e.event_name, e.cat, e.phase, e.pid, e.core, e.span, e.arg_count, e.args);
}

template <class Ar>
void fields(Ar& ar, verify::PointStats& s) {
  ar(s.calls, s.fired);
}

} // namespace hpmmap::snapshot
