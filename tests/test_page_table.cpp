// Unit + property tests: 4-level page tables.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "linux_mm/page_table.hpp"
#include "snapshot/snapshot.hpp"

namespace hpmmap::mm {
namespace {

constexpr Addr kVa = 0x7f00'0000'0000ull;
constexpr Addr kPa = 0x1'0000'0000ull;

TEST(PageTable, FreshTableTranslatesNothing) {
  PageTable pt;
  EXPECT_FALSE(pt.walk(0).has_value());
  EXPECT_FALSE(pt.walk(kVa).has_value());
  EXPECT_EQ(pt.mapping_mix().total(), 0u);
  EXPECT_EQ(pt.table_pages(), 1u);
}

TEST(PageTable, Map4kRoundTrip) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  const auto t = pt.walk(kVa + 123);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->phys, kPa + 123);
  EXPECT_EQ(t->size, PageSize::k4K);
  EXPECT_EQ(t->prot, kProtRW);
}

TEST(PageTable, Map2mRoundTripWithOffset) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRW), Errno::kOk);
  const auto t = pt.walk(kVa + 1 * MiB + 17);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->phys, kPa + 1 * MiB + 17);
  EXPECT_EQ(t->size, PageSize::k2M);
}

TEST(PageTable, Map1gRoundTrip) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k1G, kProtRW), Errno::kOk);
  const auto t = pt.walk(kVa + 700 * MiB);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k1G);
  EXPECT_EQ(t->phys, kPa + 700 * MiB);
}

TEST(PageTable, MisalignedMapRejected) {
  PageTable pt;
  EXPECT_EQ(pt.map(kVa + 1, kPa, PageSize::k4K, kProtRW), Errno::kInval);
  EXPECT_EQ(pt.map(kVa + 4 * KiB, kPa, PageSize::k2M, kProtRW), Errno::kInval);
  EXPECT_EQ(pt.map(kVa, kPa + 4 * KiB, PageSize::k2M, kProtRW), Errno::kInval);
}

TEST(PageTable, DoubleMapRejected) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kExist);
}

TEST(PageTable, SmallUnderLargeRejected) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.map(kVa + 4 * KiB, kPa, PageSize::k4K, kProtRW), Errno::kExist);
}

TEST(PageTable, LargeOverPopulatedSmallRejected) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRW), Errno::kExist);
}

TEST(PageTable, LargeMapReclaimsEmptyChildTable) {
  // The khugepaged collapse path: map smalls, unmap them all, then the
  // 2M leaf must install (freeing the empty PT page).
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  const std::uint64_t pages_with_child = pt.table_pages();
  ASSERT_EQ(pt.unmap(kVa, PageSize::k4K), Errno::kOk);
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.table_pages(), pages_with_child - 1);
  const auto t = pt.walk(kVa);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->size, PageSize::k2M);
}

TEST(PageTable, UnmapMissingIsNoEnt) {
  PageTable pt;
  EXPECT_EQ(pt.unmap(kVa, PageSize::k4K), Errno::kNoEnt);
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.unmap(kVa + 4 * KiB, PageSize::k4K), Errno::kNoEnt);
}

TEST(PageTable, UnmapRemovesTranslation) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  ASSERT_EQ(pt.unmap(kVa, PageSize::k4K), Errno::kOk);
  EXPECT_FALSE(pt.walk(kVa).has_value());
}

TEST(PageTable, ProtectChangesLeaf) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  ASSERT_EQ(pt.protect(kVa, PageSize::k4K, Prot::kRead), Errno::kOk);
  EXPECT_EQ(pt.walk(kVa)->prot, Prot::kRead);
  EXPECT_EQ(pt.protect(kVa + 4 * KiB, PageSize::k4K, Prot::kRead), Errno::kNoEnt);
}

TEST(PageTable, MappingMixAccounting) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  ASSERT_EQ(pt.map(kVa + 2 * MiB, kPa + 2 * MiB, PageSize::k2M, kProtRW), Errno::kOk);
  const auto mix = pt.mapping_mix();
  EXPECT_EQ(mix.bytes_4k, 4 * KiB);
  EXPECT_EQ(mix.bytes_2m, 2 * MiB);
  ASSERT_EQ(pt.unmap(kVa + 2 * MiB, PageSize::k2M), Errno::kOk);
  EXPECT_EQ(pt.mapping_mix().bytes_2m, 0u);
}

TEST(PageTable, SplitLargePreservesTranslationAndProt) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRX), Errno::kOk);
  PtOpStats stats;
  ASSERT_EQ(pt.split_large(kVa + 300 * KiB, &stats), Errno::kOk);
  EXPECT_EQ(stats.entries_written, 512u);
  for (Addr off : {Addr{0}, Addr{4 * KiB}, Addr{2 * MiB - 4 * KiB}}) {
    const auto t = pt.walk(kVa + off + 5);
    ASSERT_TRUE(t.has_value()) << off;
    EXPECT_EQ(t->size, PageSize::k4K);
    EXPECT_EQ(t->phys, kPa + off + 5);
    EXPECT_EQ(t->prot, kProtRX);
  }
  const auto mix = pt.mapping_mix();
  EXPECT_EQ(mix.bytes_2m, 0u);
  EXPECT_EQ(mix.bytes_4k, 2 * MiB);
}

TEST(PageTable, SplitLargeOnSmallIsNoEnt) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.split_large(kVa), Errno::kNoEnt);
  EXPECT_EQ(pt.split_large(kVa + 32 * MiB), Errno::kNoEnt);
}

TEST(PageTable, SmallCountIn2m) {
  PageTable pt;
  EXPECT_EQ(pt.small_count_in_2m(kVa), 0u);
  for (unsigned i = 0; i < 10; ++i) {
    ASSERT_EQ(pt.map(kVa + i * 4 * KiB, kPa + i * 4 * KiB, PageSize::k4K, kProtRW), Errno::kOk);
  }
  EXPECT_EQ(pt.small_count_in_2m(kVa), 10u);
  EXPECT_EQ(pt.small_count_in_2m(kVa + 1 * MiB), 10u); // same 2M region
  EXPECT_EQ(pt.small_count_in_2m(kVa + 2 * MiB), 0u);
  ASSERT_EQ(pt.unmap(kVa, PageSize::k4K), Errno::kOk);
  EXPECT_EQ(pt.small_count_in_2m(kVa), 9u);
}

TEST(PageTable, LargeLeafAt) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k2M, kProtRW), Errno::kOk);
  EXPECT_TRUE(pt.large_leaf_at(kVa + 1 * MiB));
  EXPECT_FALSE(pt.large_leaf_at(kVa + 2 * MiB));
}

TEST(PageTable, MappedBytesInRange) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  ASSERT_EQ(pt.map(kVa + 2 * MiB, kPa + 2 * MiB, PageSize::k2M, kProtRW), Errno::kOk);
  EXPECT_EQ(pt.mapped_bytes(Range{kVa, kVa + 4 * MiB}), 4 * KiB + 2 * MiB);
  // Partial overlap with the large leaf counts partially.
  EXPECT_EQ(pt.mapped_bytes(Range{kVa + 2 * MiB, kVa + 3 * MiB}), 1 * MiB);
}

TEST(PageTable, ForEachLeafVisitsAll) {
  PageTable pt;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW), Errno::kOk);
  ASSERT_EQ(pt.map(kVa + 2 * MiB, kPa + 2 * MiB, PageSize::k2M, kProtRW), Errno::kOk);
  std::vector<std::pair<Addr, PageSize>> leaves;
  pt.for_each_leaf([&](Addr va, const Translation& t) { leaves.emplace_back(va, t.size); });
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0], (std::pair<Addr, PageSize>{kVa, PageSize::k4K}));
  EXPECT_EQ(leaves[1], (std::pair<Addr, PageSize>{kVa + 2 * MiB, PageSize::k2M}));
}

TEST(PageTable, OpStatsReportTableAllocations) {
  PageTable pt;
  PtOpStats stats;
  ASSERT_EQ(pt.map(kVa, kPa, PageSize::k4K, kProtRW, &stats), Errno::kOk);
  EXPECT_EQ(stats.levels, 4u);
  EXPECT_EQ(stats.tables_allocated, 3u); // PDPT, PD, PT under a fresh root
  PtOpStats stats2;
  ASSERT_EQ(pt.map(kVa + 4 * KiB, kPa + 4 * KiB, PageSize::k4K, kProtRW, &stats2), Errno::kOk);
  EXPECT_EQ(stats2.tables_allocated, 0u); // same PT
}

// --- property test --------------------------------------------------------------

class PageTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableProperty, RandomMapUnmapConsistent) {
  PageTable pt;
  Rng rng(GetParam());
  std::map<Addr, std::pair<Addr, PageSize>> shadow; // va -> (pa, size)

  for (int step = 0; step < 2000; ++step) {
    const bool large = rng.chance(0.3);
    const PageSize size = large ? PageSize::k2M : PageSize::k4K;
    const Addr va = align_down(kVa + rng.uniform(512 * MiB), bytes(size));
    if (rng.chance(0.6)) {
      const Addr pa = align_down(rng.uniform(64 * GiB), bytes(size));
      const Errno err = pt.map(va, pa, size, kProtRW);
      // Shadow-check: map succeeds iff nothing overlaps in the shadow.
      bool overlap = false;
      const Range want{va, va + bytes(size)};
      for (const auto& [sva, entry] : shadow) {
        if (want.overlaps(Range{sva, sva + bytes(entry.second)})) {
          overlap = true;
          break;
        }
      }
      ASSERT_EQ(err == Errno::kOk, !overlap) << "va=" << va;
      if (err == Errno::kOk) {
        shadow[va] = {pa, size};
      }
    } else if (!shadow.empty()) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.uniform(shadow.size())));
      ASSERT_EQ(pt.unmap(it->first, it->second.second), Errno::kOk);
      shadow.erase(it);
    }
  }
  // Every shadow entry translates exactly; mix matches byte totals.
  std::uint64_t b4k = 0, b2m = 0;
  for (const auto& [va, entry] : shadow) {
    const auto t = pt.walk(va);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->phys, entry.first);
    ASSERT_EQ(t->size, entry.second);
    (entry.second == PageSize::k4K ? b4k : b2m) += bytes(entry.second);
  }
  EXPECT_EQ(pt.mapping_mix().bytes_4k, b4k);
  EXPECT_EQ(pt.mapping_mix().bytes_2m, b2m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- differential test against a reference model ---------------------------------
//
// RefPageTable states the page table's contract over plain ordered
// containers: a map of leaves and a set of interior tables, with no
// node pool, no packed entries and no paging-structure cache. Random
// 4K/2M/1G map/unmap/protect/split_large, khugepaged-style collapses,
// move-assignment round trips and snapshot capture/restore drive both,
// and every observable is compared after every operation. A cache
// entry that outlives a freed, recycled or restored PT node shows up as
// a walk or small_count_in_2m mismatch.

class RefPageTable {
 public:
  Errno map(Addr va, Addr pa, PageSize size, Prot prot, PtOpStats* stats) {
    if (!is_aligned(va, bytes(size)) || !is_aligned(pa, bytes(size))) {
      return Errno::kInval;
    }
    const unsigned target = level_of(size);
    for (unsigned l = target; l <= 2; ++l) {
      if (leaf_at(align_down(va, leaf_bytes(l)), l) != nullptr) {
        return Errno::kExist; // the same slot, or a larger leaf above it
      }
    }
    const std::pair<unsigned, Addr> child{target - 1, va};
    const bool collapse = target > 0 && tables_.contains(child);
    if (collapse && used(child.first, child.second) != 0) {
      return Errno::kExist;
    }
    if (collapse) {
      tables_.erase(child);
    }
    PtOpStats local;
    local.levels = 4 - target;
    for (unsigned l = 2; l + 1 > target; --l) {
      if (tables_.emplace(l, align_down(va, table_bytes(l))).second) {
        ++local.tables_allocated;
      }
    }
    local.entries_written = 1;
    insert_leaf(va, Translation{pa, size, prot});
    if (stats != nullptr) {
      *stats = local;
    }
    return Errno::kOk;
  }

  Errno unmap(Addr va, PageSize size, PtOpStats* stats) {
    if (!is_aligned(va, bytes(size))) {
      return Errno::kInval;
    }
    if (leaf_at(va, level_of(size)) == nullptr) {
      return Errno::kNoEnt;
    }
    erase_leaf(va);
    if (stats != nullptr) {
      *stats = PtOpStats{4 - level_of(size), 0, 1};
    }
    return Errno::kOk;
  }

  Errno protect(Addr va, PageSize size, Prot prot) {
    Translation* t = leaf_at(va, level_of(size));
    if (t == nullptr) {
      return Errno::kNoEnt;
    }
    t->prot = prot;
    return Errno::kOk;
  }

  Errno split_large(Addr va, PtOpStats* stats) {
    const Addr base = align_down(va, kLargePageSize);
    const Translation* t = leaf_at(base, 1);
    if (t == nullptr) {
      return Errno::kNoEnt;
    }
    const Translation large = *t;
    erase_leaf(base);
    for (Addr off = 0; off < kLargePageSize; off += kSmallPageSize) {
      insert_leaf(base + off, Translation{large.phys + off, PageSize::k4K, large.prot});
    }
    tables_.emplace(0, base);
    if (stats != nullptr) {
      *stats = PtOpStats{4, 1, 512};
    }
    return Errno::kOk;
  }

  [[nodiscard]] std::optional<Translation> walk(Addr va) const {
    for (unsigned l = 0; l <= 2; ++l) {
      const Addr base = align_down(va, leaf_bytes(l));
      if (const auto it = leaves_.find(base);
          it != leaves_.end() && level_of(it->second.size) == l) {
        return Translation{it->second.phys + (va - base), it->second.size, it->second.prot};
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] unsigned small_count_in_2m(Addr va) const {
    const auto it = small_in_2m_.find(align_down(va, kLargePageSize));
    return it != small_in_2m_.end() ? it->second : 0;
  }

  [[nodiscard]] bool large_leaf_at(Addr va) const {
    const auto t = walk(va);
    return t.has_value() && t->size != PageSize::k4K;
  }

  [[nodiscard]] hw::MappingMix mix() const { return mix_; }

  [[nodiscard]] std::uint64_t table_pages() const { return 1 + tables_.size(); }
  [[nodiscard]] const std::map<Addr, Translation>& leaves() const { return leaves_; }

 private:
  static unsigned level_of(PageSize size) {
    return size == PageSize::k4K ? 0 : size == PageSize::k2M ? 1 : 2;
  }
  /// Bytes one leaf at `level` maps, and bytes one table at `level` spans.
  static Addr leaf_bytes(unsigned level) { return Addr{1} << (12 + 9 * level); }
  static Addr table_bytes(unsigned level) { return Addr{1} << (21 + 9 * level); }

  /// Leaf bookkeeping: the per-region 4K count and the byte mix ride
  /// every insert and erase.
  void insert_leaf(Addr va, const Translation& t) {
    leaves_[va] = t;
    account(va, t.size, 1);
  }
  void erase_leaf(Addr va) {
    account(va, leaves_.at(va).size, -1);
    leaves_.erase(va);
  }
  void account(Addr va, PageSize size, int sign) {
    const std::uint64_t delta = sign > 0 ? bytes(size) : 0 - bytes(size);
    switch (size) {
      case PageSize::k4K:
        mix_.bytes_4k += delta;
        small_in_2m_[align_down(va, kLargePageSize)] += sign > 0 ? 1u : ~0u;
        break;
      case PageSize::k2M: mix_.bytes_2m += delta; break;
      case PageSize::k1G: mix_.bytes_1g += delta; break;
    }
  }

  Translation* leaf_at(Addr va, unsigned level) {
    const auto it = leaves_.find(va);
    return it != leaves_.end() && level_of(it->second.size) == level ? &it->second : nullptr;
  }

  [[nodiscard]] unsigned count_leaves(unsigned level, Addr base, Addr span) const {
    unsigned n = 0;
    for (auto it = leaves_.lower_bound(base); it != leaves_.end() && it->first < base + span;
         ++it) {
      n += level_of(it->second.size) == level ? 1u : 0u;
    }
    return n;
  }

  /// Live entries of the table at (`level`, `base`): its leaves plus
  /// its child tables.
  [[nodiscard]] unsigned used(unsigned level, Addr base) const {
    unsigned n = count_leaves(level, base, table_bytes(level));
    if (level > 0) {
      for (auto it = tables_.lower_bound({level - 1, base});
           it != tables_.end() && it->first == level - 1 &&
           it->second < base + table_bytes(level);
           ++it) {
        ++n;
      }
    }
    return n;
  }

  std::map<Addr, Translation> leaves_;
  std::set<std::pair<unsigned, Addr>> tables_; // (level, base); the root is implicit
  std::map<Addr, unsigned> small_in_2m_;       // 4K leaves per 2M region
  hw::MappingMix mix_;
};

bool same_stats(const PtOpStats& a, const PtOpStats& b) {
  return a.levels == b.levels && a.tables_allocated == b.tables_allocated &&
         a.entries_written == b.entries_written;
}

bool same_translation(const std::optional<Translation>& a, const std::optional<Translation>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  return !a.has_value() || (a->phys == b->phys && a->size == b->size && a->prot == b->prot);
}

// Two 1 GiB windows of six 2 MiB regions each: dense enough that maps
// collide, regions fill, collapse and split, and freed PT nodes get
// recycled for other regions.
constexpr unsigned kWindows = 2;
constexpr unsigned kRegions = 6;

Addr pick_region(Rng& rng) {
  return kVa + rng.uniform(kWindows) * GiB + rng.uniform(kRegions) * kLargePageSize;
}

Addr pick_page(Rng& rng) {
  // Low pages most of the time so regions fill; any page sometimes.
  const std::uint64_t page = rng.chance(0.8) ? rng.uniform(24) : rng.uniform(512);
  return pick_region(rng) + page * kSmallPageSize;
}

Prot pick_prot(Rng& rng) {
  const Prot prots[] = {kProtRW, kProtRX, Prot::kRead, kProtRWX};
  return prots[rng.uniform(4)];
}

/// Every observable of `pt` against `ref`. The first probe is `focus`,
/// the address the last operation touched, so a cache entry the
/// operation should have dropped is read back at once; the rest are
/// random.
void expect_equivalent(const PageTable& pt, const RefPageTable& ref, Rng& rng,
                       std::uint64_t step, Addr focus) {
  for (int probe = 0; probe < 9; ++probe) {
    const Addr va = probe == 0 ? focus : pick_page(rng) + rng.uniform(kSmallPageSize);
    ASSERT_TRUE(same_translation(pt.walk(va), ref.walk(va))) << "step " << step << " va " << va;
    ASSERT_EQ(pt.small_count_in_2m(va), ref.small_count_in_2m(va))
        << "step " << step << " va " << va;
    ASSERT_EQ(pt.large_leaf_at(va), ref.large_leaf_at(va)) << "step " << step << " va " << va;
  }
  const hw::MappingMix got = pt.mapping_mix();
  const hw::MappingMix want = ref.mix();
  ASSERT_EQ(got.bytes_4k, want.bytes_4k) << "step " << step;
  ASSERT_EQ(got.bytes_2m, want.bytes_2m) << "step " << step;
  ASSERT_EQ(got.bytes_1g, want.bytes_1g) << "step " << step;
  ASSERT_EQ(pt.table_pages(), ref.table_pages()) << "step " << step;
  if (step % 64 == 0) {
    std::map<Addr, Translation> leaves;
    pt.for_each_leaf([&](Addr va, const Translation& t) { leaves[va] = t; });
    ASSERT_EQ(leaves.size(), ref.leaves().size()) << "step " << step;
    for (const auto& [va, t] : ref.leaves()) {
      ASSERT_TRUE(same_translation(leaves[va], t)) << "step " << step << " va " << va;
    }
  }
}

class PageTableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableDifferential, MatchesReferenceModelAfterEveryOp) {
  Rng rng = Rng(GetParam()).fork("page_table_differential");
  PageTable pt;
  RefPageTable ref;
  std::optional<std::pair<snapshot::PageTableImage, RefPageTable>> saved;
  std::uint64_t step = 0;

  // One operation on both tables: equal results and equal stats. The
  // walk first points the cache at the region the operation touches.
  const auto both = [&](Addr focus, auto&& op_pt, auto&& op_ref) {
    (void)pt.walk(focus);
    PtOpStats got;
    PtOpStats want;
    const Errno e_pt = op_pt(&got);
    const Errno e_ref = op_ref(&want);
    ASSERT_EQ(e_pt, e_ref) << "step " << step;
    ASSERT_TRUE(same_stats(got, want)) << "step " << step << " levels " << got.levels << "/"
                                       << want.levels << " tables " << got.tables_allocated
                                       << "/" << want.tables_allocated;
    expect_equivalent(pt, ref, rng, ++step, focus);
  };
  const auto map = [&](Addr va, Addr pa, PageSize size, Prot prot) {
    both(va, [&](PtOpStats* s) { return pt.map(va, pa, size, prot, s); },
         [&](PtOpStats* s) { return ref.map(va, pa, size, prot, s); });
  };
  const auto unmap = [&](Addr va, PageSize size) {
    both(va, [&](PtOpStats* s) { return pt.unmap(va, size, s); },
         [&](PtOpStats* s) { return ref.unmap(va, size, s); });
  };

  for (int op = 0; op < 2000 && !::testing::Test::HasFatalFailure(); ++op) {
    const std::uint64_t kind = rng.uniform(100);
    const Addr frame = rng.uniform(1, 4096) * GiB;
    if (kind < 40) {
      map(pick_page(rng), frame + rng.uniform(512) * kSmallPageSize, PageSize::k4K,
          pick_prot(rng));
    } else if (kind < 55) {
      unmap(pick_page(rng), PageSize::k4K);
    } else if (kind < 63) {
      map(pick_region(rng), frame + rng.uniform(512) * kLargePageSize, PageSize::k2M,
          pick_prot(rng));
    } else if (kind < 67) {
      unmap(pick_region(rng), PageSize::k2M);
    } else if (kind < 69) {
      map(kVa + rng.uniform(kWindows) * GiB, frame, PageSize::k1G, pick_prot(rng));
    } else if (kind < 71) {
      unmap(kVa + rng.uniform(kWindows) * GiB, PageSize::k1G);
    } else if (kind < 74) {
      // Misaligned requests are rejected without touching anything.
      map(pick_region(rng) + kSmallPageSize, frame, PageSize::k2M, kProtRW);
    } else if (kind < 80) {
      const bool large = rng.chance(0.5);
      const Addr va = large ? pick_region(rng) : pick_page(rng);
      const PageSize size = large ? PageSize::k2M : PageSize::k4K;
      const Prot prot = pick_prot(rng);
      both(va, [&](PtOpStats*) { return pt.protect(va, size, prot); },
           [&](PtOpStats*) { return ref.protect(va, size, prot); });
    } else if (kind < 86) {
      const Addr va = pick_page(rng);
      both(va, [&](PtOpStats* s) { return pt.split_large(va, s); },
           [&](PtOpStats* s) { return ref.split_large(va, s); });
    } else if (kind < 88) {
      // Fill a region page by page, the demand-fault storm shape.
      const Addr region = pick_region(rng);
      for (Addr off = 0; off < kLargePageSize; off += kSmallPageSize) {
        map(region + off, frame + off, PageSize::k4K, kProtRW);
      }
    } else if (kind < 90) {
      // khugepaged collapse: unmap every PTE, then install the 2M leaf
      // over the emptied PT (which map() frees).
      const Addr region = pick_region(rng);
      for (Addr off = 0; off < kLargePageSize; off += kSmallPageSize) {
        unmap(region + off, PageSize::k4K);
      }
      map(region, frame, PageSize::k2M, kProtRW);
    } else if (kind < 95) {
      // Move-assignment round trip: the table (and its cache) must
      // survive being moved out and back.
      const Addr focus = pick_page(rng);
      (void)pt.walk(focus);
      PageTable moved = std::move(pt);
      pt = PageTable{};
      pt = std::move(moved);
      expect_equivalent(pt, ref, rng, ++step, focus);
    } else if (kind < 98 || !saved.has_value()) {
      saved.emplace(snapshot::capture_page_table(pt), ref);
    } else {
      // Roll both back to the saved point. The live table's cache is
      // left on a region whose PT index may differ in the image.
      const Addr focus = pick_page(rng);
      (void)pt.walk(focus);
      snapshot::restore_page_table(saved->first, pt);
      ref = saved->second;
      expect_equivalent(pt, ref, rng, ++step, focus);
    }
  }
  EXPECT_GT(step, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableDifferential, ::testing::Values(1, 2, 3));

} // namespace
} // namespace hpmmap::mm
