#include "linux_mm/page_table.hpp"

#include <algorithm>

namespace hpmmap::mm {

PageTable::PageTable() {
  nodes_[nodes_.append()].slots.fill(0);
  used_.push_back(0);
}

std::uint32_t PageTable::alloc_node() {
  std::uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
    used_[idx] = 0;
  } else {
    idx = nodes_.append();
    used_.push_back(0);
  }
  nodes_[idx].slots.fill(0);
  return idx;
}

void PageTable::free_node(std::uint32_t idx) {
  HPMMAP_ASSERT(idx != kRoot, "cannot free the root table");
  forget_pt();
  free_nodes_.push_back(idx);
}

unsigned PageTable::leaf_level(PageSize size) noexcept {
  switch (size) {
    case PageSize::k4K: return 0;
    case PageSize::k2M: return 1;
    case PageSize::k1G: return 2;
  }
  return 0;
}

void PageTable::account_map(PageSize size, std::int64_t delta) noexcept {
  const auto apply = [delta](std::uint64_t& v) {
    v = static_cast<std::uint64_t>(static_cast<std::int64_t>(v) + delta);
  };
  switch (size) {
    case PageSize::k4K: apply(mix_.bytes_4k); break;
    case PageSize::k2M: apply(mix_.bytes_2m); break;
    case PageSize::k1G: apply(mix_.bytes_1g); break;
  }
}

Errno PageTable::map(Addr vaddr, Addr paddr, PageSize size, Prot prot, PtOpStats* stats) {
  if (!is_aligned(vaddr, bytes(size)) || !is_aligned(paddr, bytes(size))) {
    return Errno::kInval;
  }
  const unsigned target = leaf_level(size);
  std::uint32_t node = kRoot;
  unsigned level = 3;
  if (target == 0 && pt_cached(vaddr)) {
    node = cached_pt_;
    level = 0;
  }
  PtOpStats local;
  local.levels = 4 - level;
  for (; level > target; --level) {
    // Pool nodes never move, so `e` survives alloc_node()'s growth.
    std::uint64_t& e = nodes_[node].slots[index_at(vaddr, level)];
    if (is_leaf(e)) {
      return Errno::kExist; // a larger mapping already covers this address
    }
    if (!has_child(e)) {
      const std::uint32_t child = alloc_node();
      e = make_child(child);
      ++used_[node];
      ++table_pages_;
      ++local.tables_allocated;
    }
    node = child_index(e);
    ++local.levels;
  }
  if (target == 0) {
    remember_pt(vaddr, node);
  }
  std::uint64_t& leaf = nodes_[node].slots[index_at(vaddr, target)];
  if (is_leaf(leaf)) {
    return Errno::kExist;
  }
  if (has_child(leaf)) {
    // A child table exists from earlier small mappings. If it is empty
    // (all PTEs unmapped — the khugepaged collapse path), free it and
    // install the large leaf in its place; otherwise the range is busy.
    const std::uint32_t child = child_index(leaf);
    if (used_[child] != 0) {
      return Errno::kExist;
    }
    free_node(child);
    --table_pages_;
    --used_[node];
    leaf = 0;
  }
  leaf = make_leaf(paddr, prot);
  ++used_[node];
  ++local.entries_written;
  account_map(size, static_cast<std::int64_t>(bytes(size)));
  if (stats != nullptr) {
    *stats = local;
  }
  return Errno::kOk;
}

Errno PageTable::unmap(Addr vaddr, PageSize size, PtOpStats* stats) {
  if (!is_aligned(vaddr, bytes(size))) {
    return Errno::kInval;
  }
  const unsigned target = leaf_level(size);
  std::uint32_t node = kRoot;
  unsigned level = 3;
  if (target == 0 && pt_cached(vaddr)) {
    node = cached_pt_;
    level = 0;
  }
  PtOpStats local;
  local.levels = 4 - level;
  for (; level > target; --level) {
    const std::uint64_t e = nodes_[node].slots[index_at(vaddr, level)];
    if (is_leaf(e) || !has_child(e)) {
      return Errno::kNoEnt;
    }
    node = child_index(e);
    ++local.levels;
  }
  if (target == 0) {
    remember_pt(vaddr, node);
  }
  std::uint64_t& leaf = nodes_[node].slots[index_at(vaddr, target)];
  if (!is_leaf(leaf)) {
    return Errno::kNoEnt;
  }
  leaf = 0;
  --used_[node];
  ++local.entries_written;
  account_map(size, -static_cast<std::int64_t>(bytes(size)));
  // Interior tables are retained (Linux frees them lazily too); the
  // table_pages_ count therefore only grows within a process lifetime.
  if (stats != nullptr) {
    *stats = local;
  }
  return Errno::kOk;
}

Errno PageTable::protect(Addr vaddr, PageSize size, Prot prot) {
  const unsigned target = leaf_level(size);
  std::uint32_t node = kRoot;
  for (unsigned level = 3; level > target; --level) {
    const std::uint64_t e = nodes_[node].slots[index_at(vaddr, level)];
    if (is_leaf(e) || !has_child(e)) {
      return Errno::kNoEnt;
    }
    node = child_index(e);
  }
  std::uint64_t& leaf = nodes_[node].slots[index_at(vaddr, target)];
  if (!is_leaf(leaf)) {
    return Errno::kNoEnt;
  }
  leaf = make_leaf(leaf_phys(leaf), prot);
  return Errno::kOk;
}

std::optional<Translation> PageTable::walk(Addr vaddr) const {
  std::uint32_t node = kRoot;
  if (pt_cached(vaddr)) {
    node = cached_pt_;
  } else {
    for (unsigned level = 3; level > 0; --level) {
      const std::uint64_t e = nodes_[node].slots[index_at(vaddr, level)];
      if (is_leaf(e)) {
        const PageSize size = level == 1 ? PageSize::k2M : PageSize::k1G;
        const Addr offset = vaddr & (bytes(size) - 1);
        return Translation{leaf_phys(e) + offset, size, leaf_prot(e)};
      }
      if (!has_child(e)) {
        return std::nullopt;
      }
      node = child_index(e);
    }
    remember_pt(vaddr, node);
  }
  const std::uint64_t leaf = nodes_[node].slots[index_at(vaddr, 0)];
  if (!is_leaf(leaf)) {
    return std::nullopt;
  }
  const Addr offset = vaddr & (kSmallPageSize - 1);
  return Translation{leaf_phys(leaf) + offset, PageSize::k4K, leaf_prot(leaf)};
}

Errno PageTable::split_large(Addr vaddr, PtOpStats* stats) {
  const Addr base = align_down(vaddr, kLargePageSize);
  std::uint32_t node = kRoot;
  for (unsigned level = 3; level > 1; --level) {
    const std::uint64_t e = nodes_[node].slots[index_at(base, level)];
    if (is_leaf(e) || !has_child(e)) {
      return Errno::kNoEnt;
    }
    node = child_index(e);
  }
  const unsigned pd_slot = index_at(base, 1);
  const std::uint64_t pd = nodes_[node].slots[pd_slot];
  if (!is_leaf(pd)) {
    return Errno::kNoEnt;
  }
  const Addr phys = leaf_phys(pd);
  const Prot prot = leaf_prot(pd);
  // Replace the 2M leaf with a PT of 512 4K leaves over the same frames.
  forget_pt();
  const std::uint32_t pt = alloc_node();
  nodes_[node].slots[pd_slot] = make_child(pt);
  ++table_pages_;
  Node& child = nodes_[pt];
  for (unsigned i = 0; i < kFanout; ++i) {
    child.slots[i] = make_leaf(phys + static_cast<Addr>(i) * kSmallPageSize, prot);
  }
  used_[pt] = kFanout;
  account_map(PageSize::k2M, -static_cast<std::int64_t>(kLargePageSize));
  account_map(PageSize::k4K, static_cast<std::int64_t>(kLargePageSize));
  if (stats != nullptr) {
    stats->levels = 4;
    stats->tables_allocated = 1;
    stats->entries_written = kFanout;
  }
  return Errno::kOk;
}

unsigned PageTable::small_count_in_2m(Addr vaddr) const {
  if (pt_cached(vaddr)) {
    return used_[cached_pt_];
  }
  const Addr base = align_down(vaddr, kLargePageSize);
  std::uint32_t node = kRoot;
  for (unsigned level = 3; level > 1; --level) {
    const std::uint64_t e = nodes_[node].slots[index_at(base, level)];
    if (is_leaf(e) || !has_child(e)) {
      return 0;
    }
    node = child_index(e);
  }
  const std::uint64_t pd = nodes_[node].slots[index_at(base, 1)];
  if (is_leaf(pd) || !has_child(pd)) {
    return 0;
  }
  remember_pt(base, child_index(pd));
  return used_[child_index(pd)];
}

bool PageTable::large_leaf_at(Addr vaddr) const {
  const auto t = walk(vaddr);
  return t.has_value() && t->size != PageSize::k4K;
}

std::uint64_t PageTable::mapped_bytes(Range vrange) const {
  std::uint64_t total = 0;
  for_each_leaf([&](Addr va, const Translation& t) {
    const Range leaf{va, va + bytes(t.size)};
    if (leaf.overlaps(vrange)) {
      const Addr lo = std::max(leaf.begin, vrange.begin);
      const Addr hi = std::min(leaf.end, vrange.end);
      total += hi - lo;
    }
  });
  return total;
}

Addr PageTable::unmapped_until(Addr vaddr, Addr limit) const {
  HPMMAP_ASSERT(is_aligned(vaddr, kSmallPageSize) && vaddr < limit &&
                    region_of(limit - 1) == region_of(vaddr),
                "unmapped_until scans page-aligned addresses of one 2 MiB region");
  std::uint32_t node = kRoot;
  if (pt_cached(vaddr)) {
    node = cached_pt_;
  } else {
    for (unsigned level = 3; level > 0; --level) {
      const std::uint64_t e = nodes_[node].slots[index_at(vaddr, level)];
      if (is_leaf(e)) {
        return vaddr; // a 2M/1G leaf maps the whole region
      }
      if (!has_child(e)) {
        return limit; // no table below: nothing in the region is mapped
      }
      node = child_index(e);
    }
    remember_pt(vaddr, node);
  }
  const auto& slots = nodes_[node].slots;
  const unsigned last = index_at(limit - 1, 0);
  for (unsigned i = index_at(vaddr, 0); i <= last; ++i) {
    if (is_leaf(slots[i])) {
      return align_down(vaddr, kLargePageSize) + (Addr{i} << 12);
    }
  }
  return limit;
}

} // namespace hpmmap::mm
