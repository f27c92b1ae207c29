// The swap model's anonymous LRU: the FIFO of 4 KiB pages Node::maybe_swap
// picks eviction victims from, oldest first.
//
// Pages are remembered as they fault, and a process that faults forward
// through its heap faults the next page after the last one. So the FIFO is
// kept as runs of consecutive pages of one process: remembering the page
// right after the newest run's last page of the same pid extends that run,
// and popping takes the oldest run's first page. The page sequence (and so
// the victim order) is exactly a per-page FIFO's; only the storage shrinks,
// from one entry per fault to one per run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "common/assert.hpp"
#include "common/host_bytes.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace hpmmap::snapshot {
struct Access;
}

namespace hpmmap::os {

class AnonLru {
 public:
  /// `pages` consecutive 4 KiB pages of process `pid`, from `first` up.
  struct Run {
    Pid pid = 0;
    std::uint32_t pages = 0;
    Addr first = 0;
  };
  // Interleaved faults from many cores make every run one page long; such
  // a run must cost no more than the (Process*, Addr) entry it replaces.
  static_assert(sizeof(Run) <= 16, "an LRU run must fit 16 bytes");

  /// Most pages remembered at once (the cap counts pages, not runs).
  static constexpr std::size_t kCap = 1'000'000;

  /// Remember `page` of `pid` as the newest. At the cap the page is
  /// dropped: newest pages are the hottest, so forgetting them is LRU-safe.
  void push(Pid pid, Addr page) {
    if (pages_ >= kCap) {
      return;
    }
    ++pages_;
    if (!runs_.empty()) {
      Run& back = runs_.back();
      if (back.pid == pid && back.first + back.pages * kSmallPageSize == page) {
        ++back.pages;
        return;
      }
    }
    runs_.push_back(Run{pid, 1, page});
  }

  /// Forget and return the oldest page as (pid, page).
  std::pair<Pid, Addr> pop() {
    HPMMAP_ASSERT(!runs_.empty(), "pop from an empty anon LRU");
    Run& front = runs_.front();
    const std::pair<Pid, Addr> out{front.pid, front.first};
    --pages_;
    if (--front.pages == 0) {
      runs_.pop_front();
    } else {
      front.first += kSmallPageSize;
    }
    return out;
  }

  /// Pages remembered.
  [[nodiscard]] std::size_t size() const noexcept { return pages_; }
  [[nodiscard]] bool empty() const noexcept { return pages_ == 0; }
  [[nodiscard]] std::size_t run_count() const noexcept { return runs_.size(); }
  /// Heap bytes of the run FIFO.
  [[nodiscard]] std::uint64_t host_bytes() const noexcept { return host_bytes_of(runs_); }

 private:
  friend struct hpmmap::snapshot::Access;

  std::deque<Run> runs_;
  std::size_t pages_ = 0;
};

} // namespace hpmmap::os
