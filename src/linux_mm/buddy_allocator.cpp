#include "linux_mm/buddy_allocator.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace hpmmap::mm {

BuddyAllocator::BuddyAllocator(Range phys_range, unsigned max_order, unsigned min_order)
    : range_(phys_range),
      max_order_(max_order),
      min_order_(min_order),
      map_(phys_range, min_order) {
  HPMMAP_ASSERT(!range_.empty(), "buddy range must be non-empty");
  HPMMAP_ASSERT(is_aligned(range_.begin, kSmallPageSize) && is_aligned(range_.end, kSmallPageSize),
                "buddy range must be page-aligned");
  HPMMAP_ASSERT(max_order_ < 32, "implausible max order");
  HPMMAP_ASSERT(min_order_ <= max_order_, "min order above max order");
  lists_.resize(max_order_ + 1);
  for (unsigned o = min_order_; o <= max_order_; ++o) {
    const std::uint64_t blocks = (range_.size() + order_bytes(o) - 1) / order_bytes(o);
    const std::size_t words = static_cast<std::size_t>((blocks + 63) / 64);
    lists_[o].bits.assign(words, 0);
    lists_[o].summary.assign((words + 63) / 64, 0);
  }
  // Seed the freelists greedily: the biggest aligned block that fits at
  // the cursor, repeatedly. A section-aligned range seeds straight into
  // max-order blocks.
  Addr cursor = range_.begin;
  while (cursor < range_.end) {
    unsigned order = max_order_;
    while (order > min_order_ &&
           (!is_aligned(cursor - range_.begin, order_bytes(order)) ||
            cursor + order_bytes(order) > range_.end)) {
      --order;
    }
    HPMMAP_ASSERT(cursor + order_bytes(order) <= range_.end, "seed block overruns range");
    insert_block(order, cursor);
    free_bytes_ += order_bytes(order);
    cursor += order_bytes(order);
  }
}

unsigned BuddyAllocator::order_for_bytes(std::uint64_t size) noexcept {
  if (size <= kSmallPageSize) {
    return 0;
  }
  const std::uint64_t pages = (size + kSmallPageSize - 1) / kSmallPageSize;
  return static_cast<unsigned>(std::bit_width(pages - 1));
}

Addr BuddyAllocator::buddy_of(Addr addr, unsigned order) const noexcept {
  return range_.begin + ((addr - range_.begin) ^ order_bytes(order));
}

void BuddyAllocator::insert_block(unsigned order, Addr addr) {
  OrderList& list = lists_[order];
  const std::uint64_t idx = block_index(addr, order);
  const std::size_t w = static_cast<std::size_t>(idx >> 6);
  list.bits[w] |= std::uint64_t{1} << (idx & 63);
  list.summary[w >> 6] |= std::uint64_t{1} << (w & 63);
  ++list.count;
  list.scan_hint = std::min(list.scan_hint, w >> 6);
  map_.set_head(map_.index_of(addr), hw::FrameState::kBuddyFree, order);
}

void BuddyAllocator::remove_block(unsigned order, Addr addr) {
  OrderList& list = lists_[order];
  const std::uint64_t idx = block_index(addr, order);
  const std::size_t w = static_cast<std::size_t>(idx >> 6);
  list.bits[w] &= ~(std::uint64_t{1} << (idx & 63));
  if (list.bits[w] == 0) {
    list.summary[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  }
  --list.count;
  map_.clear_head(map_.index_of(addr));
}

std::optional<std::uint64_t> BuddyAllocator::first_block(unsigned order) {
  OrderList& list = lists_[order];
  if (list.count == 0) {
    return std::nullopt;
  }
  // scan_hint only ever lags the first set summary bit (pops advance it,
  // inserts lower it), so one forward pass finds the lowest block.
  for (std::size_t s = list.scan_hint; s < list.summary.size(); ++s) {
    if (list.summary[s] != 0) {
      list.scan_hint = s;
      const std::size_t w = s * 64 + static_cast<std::size_t>(std::countr_zero(list.summary[s]));
      return static_cast<std::uint64_t>(w) * 64 +
             static_cast<std::uint64_t>(std::countr_zero(list.bits[w]));
    }
  }
  HPMMAP_ASSERT(false, "buddy freelist count/summary drift");
  return std::nullopt;
}

std::optional<BuddyAllocator::Allocation> BuddyAllocator::alloc(unsigned order) {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  HPMMAP_ASSERT(order >= min_order_, "order below min_order");
  unsigned found = order;
  while (found <= max_order_ && lists_[found].count == 0) {
    ++found;
  }
  if (found > max_order_) {
    ++stats_.failed_allocs;
    if (trace::on(trace::Category::kBuddy)) {
      trace::instant(trace::Category::kBuddy, "buddy.alloc_failed", 0, -1,
                     {trace::Arg::u64("order", order)});
      ++trace::metrics().counter("buddy.alloc_failed");
    }
    return std::nullopt;
  }
  const std::uint64_t idx = *first_block(found);
  const Addr block = range_.begin + (idx << (12 + found));
  remove_block(found, block);
  // Split down to the requested order, returning the upper halves.
  unsigned splits = 0;
  for (unsigned o = found; o > order; --o) {
    insert_block(o - 1, block + order_bytes(o - 1));
    ++splits;
  }
  free_bytes_ -= order_bytes(order);
  ++stats_.allocs;
  stats_.split_steps += splits;
  if (splits > 0 && trace::on(trace::Category::kBuddy)) {
    trace::instant(trace::Category::kBuddy, "buddy.split", 0, -1,
                   {trace::Arg::u64("order", order), trace::Arg::u64("splits", splits)});
    trace::metrics().counter("buddy.split_steps") += splits;
  }
  return Allocation{block, splits};
}

unsigned BuddyAllocator::free(Addr addr, unsigned order) {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  HPMMAP_ASSERT(order >= min_order_, "order below min_order");
  HPMMAP_ASSERT(range_.contains(addr), "free outside buddy range");
  HPMMAP_ASSERT(is_aligned(addr - range_.begin, order_bytes(order)),
                "freed block misaligned for its order");
  free_bytes_ += order_bytes(order);
  ++stats_.frees;
  // Coalesce upward while the buddy is free — one bit probe per level.
  unsigned merges = 0;
  Addr block = addr;
  unsigned o = order;
  while (o < max_order_) {
    const Addr buddy = buddy_of(block, o);
    if (buddy + order_bytes(o) > range_.end) {
      break;
    }
    if (!test_bit(o, block_index(buddy, o))) {
      break;
    }
    remove_block(o, buddy);
    block = std::min(block, buddy);
    ++o;
    ++merges;
  }
  insert_block(o, block);
  stats_.merge_steps += merges;
  if (merges > 0 && trace::on(trace::Category::kBuddy)) {
    trace::instant(trace::Category::kBuddy, "buddy.merge", 0, -1,
                   {trace::Arg::u64("order", order), trace::Arg::u64("merges", merges)});
    trace::metrics().counter("buddy.merge_steps") += merges;
  }
  return merges;
}

bool BuddyAllocator::reserve_exact(Addr addr, unsigned order) {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  HPMMAP_ASSERT(order >= min_order_, "order below min_order");
  const Range want{addr, addr + order_bytes(order)};
  if (!range_.contains(want.begin) || want.end > range_.end) {
    return false;
  }
  // A single larger free block may contain the whole region: split it
  // down until the wanted block is an exact free-list entry.
  if (auto container = free_block_containing(addr);
      container.has_value() && container->second > order &&
      Range{container->first, container->first + order_bytes(container->second)}.contains(want)) {
    Addr block = container->first;
    unsigned o = container->second;
    remove_block(o, block);
    while (o > order) {
      --o;
      const Addr lower = block;
      const Addr upper = block + order_bytes(o);
      if (want.begin >= upper) {
        insert_block(o, lower);
        block = upper;
      } else {
        insert_block(o, upper);
        block = lower;
      }
      ++stats_.split_steps;
    }
    HPMMAP_ASSERT(block == addr, "split descent must land on the wanted block");
    free_bytes_ -= order_bytes(order);
    ++stats_.allocs;
    return true;
  }
  // Collect the free blocks covering `want`; they must tile it exactly.
  struct Piece {
    Addr addr;
    unsigned order;
  };
  std::vector<Piece> cover;
  std::uint64_t covered = 0;
  for (unsigned o = min_order_; o <= max_order_; ++o) {
    const std::uint64_t ob = order_bytes(o);
    // Free blocks intersecting [want) at this order: the block whose
    // range contains want.begin through the one containing want.end-1.
    const std::uint64_t first = (want.begin - range_.begin) / ob;
    const std::uint64_t last = (want.end - 1 - range_.begin) / ob;
    for (std::uint64_t idx = first; idx <= last; ++idx) {
      if (!test_bit(o, idx)) {
        continue;
      }
      const Addr a = range_.begin + idx * ob;
      if (!want.contains(Range{a, a + ob})) {
        return false; // a free block straddles the boundary: cannot take exactly
      }
      cover.push_back(Piece{a, o});
      covered += ob;
    }
  }
  if (covered != want.size()) {
    return false; // some of the region is allocated
  }
  for (const Piece& p : cover) {
    remove_block(p.order, p.addr);
  }
  free_bytes_ -= want.size();
  ++stats_.allocs;
  return true;
}

std::optional<std::pair<Addr, unsigned>> BuddyAllocator::free_block_containing(Addr addr) const {
  if (!range_.contains(addr)) {
    return std::nullopt;
  }
  const std::uint64_t off = addr - range_.begin;
  for (unsigned o = min_order_; o <= max_order_; ++o) {
    const std::uint64_t idx = off >> (12 + o);
    if (test_bit(o, idx)) {
      return std::make_pair(range_.begin + (idx << (12 + o)), o);
    }
  }
  return std::nullopt;
}

bool BuddyAllocator::take_free_block(Addr addr, unsigned order) {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  HPMMAP_ASSERT(order >= min_order_, "order below min_order");
  if (!is_free_block(addr, order)) {
    return false;
  }
  remove_block(order, addr);
  free_bytes_ -= order_bytes(order);
  ++stats_.allocs;
  return true;
}

bool BuddyAllocator::is_free_block(Addr addr, unsigned order) const {
  if (order > max_order_ || !range_.contains(addr) ||
      !is_aligned(addr - range_.begin, order_bytes(order))) {
    return false;
  }
  return test_bit(order, block_index(addr, order));
}

std::uint64_t BuddyAllocator::free_blocks(unsigned order) const {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  std::uint64_t n = lists_[order].count;
  for (const auto& [addr, o] : corrupt_blocks_) {
    (void)addr;
    n += o == order ? 1 : 0;
  }
  return n;
}

std::optional<unsigned> BuddyAllocator::largest_free_order() const {
  for (unsigned o = max_order_ + 1; o-- > 0;) {
    if (free_blocks(o) != 0) {
      return o;
    }
  }
  return std::nullopt;
}

double BuddyAllocator::fragmentation() const {
  if (free_bytes_ == 0) {
    return 0.0;
  }
  double weighted = 0.0;
  for (unsigned o = 0; o <= max_order_; ++o) {
    const double share =
        static_cast<double>(free_blocks(o) * order_bytes(o)) / static_cast<double>(free_bytes_);
    weighted += share * static_cast<double>(o);
  }
  return 1.0 - weighted / static_cast<double>(max_order_);
}

bool BuddyAllocator::can_alloc(unsigned order) const {
  for (unsigned o = order; o <= max_order_; ++o) {
    if (lists_[o].count != 0) {
      return true;
    }
  }
  return false;
}

void BuddyAllocator::corrupt_insert_free_block(Addr addr, unsigned order) {
  HPMMAP_ASSERT(order <= max_order_, "order above max_order");
  free_bytes_ += order_bytes(order);
  const bool representable = order >= min_order_ && range_.contains(addr) &&
                             addr + order_bytes(order) <= range_.end &&
                             is_aligned(addr - range_.begin, order_bytes(order));
  if (!representable) {
    // The bitmap cannot hold it; park it where for_each_free_block will
    // still surface it to the auditor.
    corrupt_blocks_.emplace_back(addr, order);
    return;
  }
  if (test_bit(order, block_index(addr, order))) {
    // Duplicate insert: like the historical std::set, the entry is
    // accounted (free_bytes drifts) but not stored twice.
    return;
  }
  insert_block(order, addr);
}

bool BuddyAllocator::check_consistency() const {
  std::uint64_t bytes = 0;
  std::vector<Range> blocks;
  bool ok = true;
  for_each_free_block([&](Addr a, unsigned o) {
    if (!range_.contains(a) || a + order_bytes(o) > range_.end) {
      ok = false;
      return;
    }
    if (o < min_order_ || !is_aligned(a - range_.begin, order_bytes(o))) {
      ok = false;
      return;
    }
    blocks.push_back(Range{a, a + order_bytes(o)});
    bytes += order_bytes(o);
    // The mem_map must agree that this frame heads a free block.
    const std::uint32_t frame = map_.index_of(a);
    if (map_.state(frame) != hw::FrameState::kBuddyFree || map_.order(frame) != o) {
      ok = false;
    }
  });
  if (!ok || bytes != free_bytes_) {
    return false;
  }
  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i - 1].end > blocks[i].begin) {
      return false; // overlap
    }
  }
  // Bitmap bookkeeping: per-order popcount matches count, summary
  // matches the words.
  for (unsigned o = 0; o <= max_order_; ++o) {
    const OrderList& list = lists_[o];
    std::uint64_t pop = 0;
    for (std::size_t w = 0; w < list.bits.size(); ++w) {
      pop += static_cast<std::uint64_t>(std::popcount(list.bits[w]));
      const bool summarized = (list.summary[w >> 6] >> (w & 63)) & 1u;
      if (summarized != (list.bits[w] != 0)) {
        return false;
      }
    }
    if (pop != list.count) {
      return false;
    }
  }
  return true;
}

BuddyAllocator::FrameRun BuddyAllocator::alloc_frames(std::uint64_t max_frames) {
  HPMMAP_ASSERT(min_order_ == 0, "order-0 frames from an instance with a floor");
  HPMMAP_ASSERT(!trace::on(trace::Category::kBuddy), "bulk frames would hide buddy.split events");
  unsigned k = 0;
  while (k <= max_order_ && lists_[k].count == 0) {
    ++k;
  }
  if (max_frames == 0 || k > max_order_) {
    return FrameRun{};
  }
  const Addr block = range_.begin + (*first_block(k) << (12 + k));
  remove_block(k, block);
  const std::uint64_t pages = std::uint64_t{1} << k;
  const std::uint64_t m = std::min(max_frames, pages);
  const FrameRun run{block, k, m};
  // Frames 1..m-1 were each inserted by an earlier frame's split and
  // popped in turn: their heads end cleared.
  map_.clear_heads(map_.index_of(block) + 1, static_cast<std::uint32_t>(m - 1));
  // What alloc(0) leaves of the block: the maximal aligned pieces of
  // [m, pages), one per order, each inserted by the split that made it.
  for (std::uint64_t p = m; p < pages; p += p & (~p + 1)) {
    insert_block(static_cast<unsigned>(std::countr_zero(p)), block + p * kSmallPageSize);
  }
  // Each order o < k saw, in turn, insert(p), pop(p) for the odd
  // multiples p of 2^o: an insert lowers the hint to p's summary word, a
  // pop sets it there. The last p touched is the largest one below
  // m + 2^o; where it was popped (p < m) the hint sits on it, where it
  // is still free the hint sits on the previous one popped, and where it
  // was the only one, insert_block() above already lowered the hint.
  for (unsigned o = 0; o < k; ++o) {
    std::uint64_t t = (m + (std::uint64_t{1} << o) - 1) >> o;
    t -= (t & 1) == 0 ? 1 : 0;
    const std::uint64_t p = t << o;
    const auto summary_word = [&](std::uint64_t q) {
      return static_cast<std::size_t>(block_index(block + q * kSmallPageSize, o) >> 12);
    };
    if (p < m) {
      lists_[o].scan_hint = summary_word(p);
    } else if (t > 1) {
      lists_[o].scan_hint = summary_word(p - (std::uint64_t{2} << o));
    }
  }
  free_bytes_ -= m * kSmallPageSize;
  stats_.allocs += m;
  // sum of ctz(j) over 0 < j < m is (m - 1) - popcount(m - 1).
  stats_.split_steps += k + (m - 1) - static_cast<std::uint64_t>(std::popcount(m - 1));
  return run;
}

} // namespace hpmmap::mm
