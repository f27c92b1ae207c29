// Binary save/load for WorldImage (--snapshot-out / --snapshot-in).
//
// The file is the image's fields in declaration order, walked by
// snapshot/archive.hpp: every image struct and owner `State` is an
// aggregate and takes the default field list; image.hpp holds two hand
// lists (NodeImage's presence flags, mm::Vma's pad byte). Three archives
// walk the lists: Writer saves, Reader loads, and Sizer writes nothing
// and counts bytes — walked over a value-initialised record it gives the
// fewest bytes that record encodes to, which is how the loader bounds a
// record count (DESIGN.md §12.6). Raw runs and the object bytes of
// mm::FaultStats and Rng are a same-architecture contract — a snapshot file is a local artifact for
// resuming sweeps, not an interchange format or an archive; the
// static_assert below pins the byte order and the version word refuses
// images from older builds. save() streams to the file through a small
// staging buffer; load() reads the file in one sized read and checks
// every length word against the bytes that remain before allocating for
// it. No record names another by index: a pending engine event is an
// EventImage inside its owner's record. Trace strings are interned into
// a process-lifetime pool on load, preserving the recorder's "names
// outlive the recorder" contract.

#include "snapshot/snapshot.hpp"

#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "common/assert.hpp"
#include "snapshot/archive.hpp"

namespace hpmmap::snapshot {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot images store numbers as raw little-endian bytes");

constexpr std::uint32_t kMagic = 0x4e535048; // "HPSN"
// v3: trace::Event carries a causal span id. v4: the mem_map link table
// is laid out by Fibonacci hashing. v5: no link table; the page-cache LRU
// and the hugetlb pools are stored as arrays of frame indices. v6: the
// anon LRU is stored as (pid, first, pages) runs, and a Kitten heap's
// mem_map holds one meta byte per 2 MiB block. v7: no fingerprint and no
// event list; each owner's image holds its pending events and a node its
// clock. v8: the mem_map is the Linux zone's, stored after the zone's
// buddy and holding no free-block heads; a Kitten heap stores no map.
// v9: no mem_map; a page-cache LRU entry is {head, order, dirty}, and
// each hugetlb zone pool stores its pooled bit per 2 MiB page.
constexpr std::uint32_t kVersion = 9;

/// Loaded trace strings live until process exit; std::set node stability
/// keeps every handed-out c_str() valid as the pool grows.
const char* intern(const std::string& s) {
  if (s.empty()) {
    return nullptr;
  }
  static std::mutex mu;
  static auto* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  return pool->insert(s).first->c_str();
}

template <typename T>
std::size_t min_bytes();

/// Streams the encoding to the file: small fields gather in a fixed
/// staging buffer, and a run too large for it is written straight out.
class Writer : public Archive<Writer> {
 public:
  static constexpr bool kLoads = false;

  explicit Writer(std::ofstream& out) : out_(out) {}

  void bytes(const void* p, std::size_t n) {
    if (n > kStageBytes - used_) {
      flush();
      if (n >= kStageBytes) {
        out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
        return;
      }
    }
    if (n != 0) {
      std::memcpy(stage_.get() + used_, p, n);
      used_ += n;
    }
  }
  void flush() {
    out_.write(stage_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kStageBytes = 64 * 1024;

  std::ofstream& out_;
  std::unique_ptr<char[]> stage_ = std::make_unique_for_overwrite<char[]>(kStageBytes);
  std::size_t used_ = 0;
};

/// Decodes an image held whole in memory. Every read is bounds-checked,
/// and every length word is checked against the bytes that remain
/// before anything is sized from it, so a corrupt or cut-off file fails
/// with the loader's message instead of a wild allocation.
class Reader : public Archive<Reader> {
 public:
  static constexpr bool kLoads = true;

  Reader(std::unique_ptr<char[]> data, std::size_t size)
      : buf_(std::move(data)), size_(size) {}

  void bytes(void* p, std::size_t n) {
    HPMMAP_ASSERT(n <= size_ - pos_, "snapshot: truncated image file");
    if (n != 0) {
      std::memcpy(p, buf_.get() + pos_, n);
    }
    pos_ += n;
  }
  /// More elements than the remaining bytes can hold is a cut-off file.
  template <class E>
  void length(std::size_t& n) {
    std::uint64_t v = 0;
    bytes(&v, sizeof v);
    HPMMAP_ASSERT(v <= (size_ - pos_) / min_bytes<E>(), "snapshot: truncated image file");
    n = static_cast<std::size_t>(v);
  }
  void cstr(const char*& s) {
    std::string str;
    (*this)(str);
    s = intern(str);
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// Writes nothing and counts the bytes a value encodes to.
class Sizer : public Archive<Sizer> {
 public:
  static constexpr bool kLoads = false;

  void bytes(const void* /*p*/, std::size_t n) { total_ += n; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  std::size_t total_ = 0;
};

/// The fewest bytes one T encodes to: its value-initialised encoding,
/// where every list and string is empty, every has_* flag off and every
/// trace argument kNone.
template <typename T>
std::size_t min_bytes() {
  static const std::size_t n = [] {
    T x{};
    Sizer s;
    s(x);
    return s.total();
  }();
  return n;
}

} // namespace

void save(const WorldImage& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HPMMAP_ASSERT(out.good(), "snapshot: cannot open output file");
  Writer w(out);
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  w(magic, version, const_cast<WorldImage&>(image)); // the writer only reads
  w.flush();
  out.close();
  HPMMAP_ASSERT(out.good(), "snapshot: write failed");
}

WorldImage load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  HPMMAP_ASSERT(in.good(), "snapshot: cannot open image file");
  const std::streamsize size = in.tellg();
  HPMMAP_ASSERT(size >= 0, "snapshot: cannot size image file");
  in.seekg(0);
  auto data = std::make_unique_for_overwrite<char[]>(static_cast<std::size_t>(size));
  in.read(data.get(), size);
  HPMMAP_ASSERT(in.gcount() == size, "snapshot: short read of image file");
  Reader r(std::move(data), static_cast<std::size_t>(size));
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  r(magic);
  HPMMAP_ASSERT(magic == kMagic, "snapshot: not a snapshot image");
  r(version);
  HPMMAP_ASSERT(version == kVersion, "snapshot: unsupported image version");
  WorldImage image;
  r(image);
  HPMMAP_ASSERT(r.done(), "snapshot: trailing bytes in image file");
  return image;
}

} // namespace hpmmap::snapshot
