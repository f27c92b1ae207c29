// The PID hash table at the front of every interposed system call
// (Figure 6): insert at application launch, search on every
// address-space syscall, delete at exit.
//
// Implemented as open-addressing with linear probing and tombstones —
// the probe count is what the syscall layer charges cycles for, so the
// structure is real rather than a std::unordered_map facade.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::core {

class PidRegistry {
 public:
  explicit PidRegistry(std::size_t initial_buckets = 64);

  /// Register `pid` with an opaque per-process context index.
  /// Returns false if already present.
  bool insert(Pid pid, std::uint32_t context);

  /// Lookup; also reports probes for the cost model.
  struct Hit {
    std::uint32_t context;
    unsigned probes;
  };
  [[nodiscard]] std::optional<Hit> find(Pid pid) const;

  /// Remove at process exit. Returns false if absent.
  bool erase(Pid pid);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t buckets() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  enum class State : std::uint8_t { kEmpty, kUsed, kTombstone };
  struct Slot {
    State state = State::kEmpty;
    Pid pid = 0;
    std::uint32_t context = 0;
  };

 private:
  friend struct hpmmap::snapshot::Access;

  [[nodiscard]] static std::size_t hash(Pid pid, std::size_t buckets) noexcept;
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

} // namespace hpmmap::core
