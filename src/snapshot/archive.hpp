// The field-list walker shared by the snapshot file format
// (serialize.cpp) and the harness's result comparison
// (harness/result_fields.hpp).
//
// A record's fields are walked in the order of a `fields(ar, x)` list.
// Every aggregate has one by default: its members in declaration order,
// counted by a brace-init probe and bound by a structured binding, so a
// member added to a struct (an owner's `State` in an image included) is
// walked with no other edit. A type whose encoding is not its declaration
// keeps a hand list that overloads the default (std::pair and trace::Arg
// below, NodeImage and mm::Vma in image.hpp, mm::FaultStats and Rng
// beside their types, as raw bytes). An archive derived from
// Archive<Self> picks each value's encoding from its type: scalars and
// enums as their raw little-endian bytes; arrays of numbers (and
// strings) as one run behind a length word when they can grow; lists of
// records as a length word and then each record's fields; trace strings
// (`const char*`) as a length word and their characters. `ar.pod(x)`
// takes a plain struct as its raw object bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string_view>
#include <type_traits>
#include <utility>

#include "trace/trace.hpp"

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

/// Converts to any member type, so `T{AnyMember{}...}` probes how many
/// members brace-initialise T. A C-array member is counted per element
/// (brace elision); the binding below then names too many members and
/// fails to compile, so such a type needs a hand list.
struct AnyMember {
  template <class T>
  constexpr operator T() const noexcept;
};

template <class T, class... Probe>
consteval std::size_t member_count() {
  if constexpr (requires { T{Probe{}..., AnyMember{}}; }) {
    return member_count<T, Probe..., AnyMember>();
  } else {
    return sizeof...(Probe);
  }
}

/// The default list: an aggregate's members in declaration order.
template <class Ar, class T>
  requires std::is_aggregate_v<T>
void fields(Ar& ar, T& x) {
  constexpr std::size_t kMembers = member_count<T>();
  if constexpr (kMembers == 1) {
    auto& [a] = x;
    ar(a);
  } else if constexpr (kMembers == 2) {
    auto& [a, b] = x;
    ar(a, b);
  } else if constexpr (kMembers == 3) {
    auto& [a, b, c] = x;
    ar(a, b, c);
  } else if constexpr (kMembers == 4) {
    auto& [a, b, c, d] = x;
    ar(a, b, c, d);
  } else if constexpr (kMembers == 5) {
    auto& [a, b, c, d, e] = x;
    ar(a, b, c, d, e);
  } else if constexpr (kMembers == 6) {
    auto& [a, b, c, d, e, f] = x;
    ar(a, b, c, d, e, f);
  } else if constexpr (kMembers == 7) {
    auto& [a, b, c, d, e, f, g] = x;
    ar(a, b, c, d, e, f, g);
  } else if constexpr (kMembers == 8) {
    auto& [a, b, c, d, e, f, g, h] = x;
    ar(a, b, c, d, e, f, g, h);
  } else if constexpr (kMembers == 9) {
    auto& [a, b, c, d, e, f, g, h, i] = x;
    ar(a, b, c, d, e, f, g, h, i);
  } else if constexpr (kMembers == 10) {
    auto& [a, b, c, d, e, f, g, h, i, j] = x;
    ar(a, b, c, d, e, f, g, h, i, j);
  } else if constexpr (kMembers == 11) {
    auto& [a, b, c, d, e, f, g, h, i, j, k] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k);
  } else if constexpr (kMembers == 12) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l);
  } else if constexpr (kMembers == 13) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m);
  } else if constexpr (kMembers == 14) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n);
  } else if constexpr (kMembers == 15) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o);
  } else if constexpr (kMembers == 16) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p);
  } else if constexpr (kMembers == 17) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q);
  } else if constexpr (kMembers == 18) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r);
  } else if constexpr (kMembers == 19) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s);
  } else if constexpr (kMembers == 20) {
    auto& [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t] = x;
    ar(a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t);
  } else {
    static_assert(kMembers == 0, "fields: no binding rung for this member count");
  }
}

/// std::pair is not an aggregate, so it has no default list.
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

} // namespace hpmmap::snapshot
