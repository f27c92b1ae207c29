#include "hw/mem_map.hpp"

#include <bit>

namespace hpmmap::hw {

MemMap::MemMap(Range range) : range_(range) {
  HPMMAP_ASSERT(!range_.empty(), "mem_map range must be non-empty");
  HPMMAP_ASSERT(is_aligned(range_.begin, kSmallPageSize) && is_aligned(range_.end, kSmallPageSize),
                "mem_map range must be page-aligned");
  HPMMAP_ASSERT(range_.size() / kSmallPageSize <= std::uint64_t{1} << 32,
                "range too large for 32-bit frame indices");
  frames_ = range_.size() / kSmallPageSize;
  sections_.resize(static_cast<std::size_t>((frames_ + kSectionEntries - 1) >> kSectionShift));
  pool_ = std::make_unique_for_overwrite<std::uint8_t[]>(sections_.size() << kSectionShift);
}

std::vector<std::uint8_t> MemMap::to_dense() const {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(frames_), 0);
  for (std::size_t sec = 0; sec < sections_.size(); ++sec) {
    const Section& s = sections_[sec];
    const std::size_t base = sec << kSectionShift;
    out[base] = s.head;
    if (s.inner != nullptr) {
      std::memcpy(out.data() + base + 1, s.inner + 1, entries_in(sec) - 1);
    }
  }
  return out;
}

void MemMap::assign_dense(std::span<const std::uint8_t> dense) {
  HPMMAP_ASSERT(dense.size() == frames_, "dense meta length mismatch");
  for (std::size_t sec = 0; sec < sections_.size(); ++sec) {
    Section& s = sections_[sec];
    const std::uint8_t* src = dense.data() + (sec << kSectionShift);
    const std::uint32_t n = entries_in(sec);
    if (s.inner != nullptr) {
      std::memset(s.inner, 0, kSectionEntries);
      release(s);
    }
    s.head = src[0];
    if (const std::uint32_t count = nonzero(src + 1, n - 1); count != 0) {
      take(s);
      std::memcpy(s.inner + 1, src + 1, n - 1);
      s.count = static_cast<std::uint16_t>(count);
    }
  }
}

void MemMap::corrupt_section_count(std::uint32_t section, std::uint16_t count) noexcept {
  HPMMAP_ASSERT(section < sections_.size() && sections_[section].inner != nullptr,
                "no materialized section to corrupt");
  sections_[section].count = count;
}

std::uint32_t MemMap::nonzero(const std::uint8_t* p, std::uint32_t n) noexcept {
  // A word at a time: fold each byte's bits into its low bit, then count.
  std::uint32_t k = 0;
  std::uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    if (w != 0) {
      w |= w >> 4;
      w |= w >> 2;
      w |= w >> 1;
      k += static_cast<std::uint32_t>(std::popcount(w & 0x0101010101010101u));
    }
  }
  for (; i < n; ++i) {
    k += p[i] != 0 ? 1 : 0;
  }
  return k;
}

void MemMap::take(Section& s) {
  if (!spare_.empty()) {
    s.inner = spare_.back();
    spare_.pop_back();
    return;
  }
  s.inner = pool_.get() + (used_++ << kSectionShift);
  std::memset(s.inner, 0, kSectionEntries);
  if (spare_.capacity() < used_) {
    spare_.reserve(2 * used_);
  }
}

void MemMap::materialize(Section& s, std::uint32_t i, std::uint8_t v) {
  take(s);
  s.inner[i] = v;
  s.count = 1;
}

void MemMap::release(Section& s) noexcept {
  spare_.push_back(s.inner);
  s.inner = nullptr;
  s.count = 0;
}

} // namespace hpmmap::hw
