#include "workloads/profiles.hpp"

#include <stdexcept>
#include <utility>

#include "common/units.hpp"

namespace hpmmap::workloads {
namespace {

/// Seconds of on-core work per iteration -> cycles at the node clock.
Cycles per_iter(double clock_hz, double seconds) {
  return static_cast<Cycles>(clock_hz * seconds);
}

} // namespace

AppProfile hpccg(double clock_hz) {
  AppProfile p;
  p.name = "HPCCG";
  p.bytes_per_rank = 1392 * MiB; // weak scaling: 8 ranks + misc ~= 11.5 GB (fits the 12 GB pools)
  p.misc_bytes = 48 * MiB;
  p.stack_bytes = 1 * MiB;
  p.iter_alloc_bytes = 2 * MiB; // MPI exchange buffers
  p.setup_brk_fraction = 0.8;   // matrix + vectors on the heap
  p.iterations = 149;           // CG iterations to convergence
  p.cpu_per_iter = per_iter(clock_hz, 0.28);
  p.access_rate = 0.20;  // SpMV: memory bound
  p.locality = 0.975;
  p.stream_bytes_per_cycle = 1.3;
  p.allreduces_per_iter = 2; // two dot products per CG step
  p.halo_bytes_per_iter = 256 * KiB;
  return p;
}

AppProfile comd(double clock_hz) {
  AppProfile p;
  p.name = "CoMD";
  p.bytes_per_rank = 1376 * MiB;
  p.misc_bytes = 64 * MiB;
  p.stack_bytes = 1 * MiB;
  p.iter_alloc_bytes = 6 * MiB; // neighbor-list rebuilds
  p.setup_brk_fraction = 0.6;
  p.iterations = 220;
  p.cpu_per_iter = per_iter(clock_hz, 0.95);
  p.access_rate = 0.12; // force kernels reuse cache well
  p.locality = 0.982;
  p.stream_bytes_per_cycle = 0.8;
  p.allreduces_per_iter = 1;
  p.halo_bytes_per_iter = 512 * KiB;
  return p;
}

AppProfile minimd(double clock_hz) {
  AppProfile p;
  p.name = "miniMD";
  p.bytes_per_rank = 1344 * MiB;
  p.misc_bytes = 56 * MiB;
  p.stack_bytes = 1 * MiB;
  p.iter_alloc_bytes = 3 * MiB;
  p.setup_brk_fraction = 0.55; // large mmap'd neighbor structures
  p.iterations = 340;
  p.cpu_per_iter = per_iter(clock_hz, 1.05);
  p.access_rate = 0.11;
  p.locality = 0.98;
  p.stream_bytes_per_cycle = 0.7;
  p.allreduces_per_iter = 1;
  p.halo_bytes_per_iter = 384 * KiB;
  return p;
}

AppProfile minife(double clock_hz) {
  AppProfile p;
  p.name = "miniFE";
  p.bytes_per_rank = 1392 * MiB;
  p.misc_bytes = 64 * MiB;
  p.stack_bytes = 1 * MiB;
  p.iter_alloc_bytes = 8 * MiB; // assembly scratch per solve step
  p.setup_brk_fraction = 0.7;
  p.iterations = 180;
  p.cpu_per_iter = per_iter(clock_hz, 0.24);
  p.access_rate = 0.19; // CG solve phase, memory bound
  p.locality = 0.975;
  p.stream_bytes_per_cycle = 1.2;
  p.allreduces_per_iter = 2;
  p.halo_bytes_per_iter = 256 * KiB;
  return p;
}

AppProfile lammps(double clock_hz) {
  AppProfile p;
  p.name = "LAMMPS";
  p.bytes_per_rank = 1280 * MiB;
  p.misc_bytes = 96 * MiB;
  p.stack_bytes = 2 * MiB;
  p.iter_alloc_bytes = 4 * MiB;
  p.setup_brk_fraction = 0.6;
  p.iterations = 200;
  p.cpu_per_iter = per_iter(clock_hz, 0.6);
  p.access_rate = 0.09; // compute bound relative to the mini-apps
  p.locality = 0.985;
  p.stream_bytes_per_cycle = 0.6;
  p.allreduces_per_iter = 1;
  p.halo_bytes_per_iter = 768 * KiB;
  return p;
}

std::string_view known_profile_names() noexcept {
  return "HPCCG, CoMD, miniMD, miniFE, LAMMPS";
}

std::optional<AppProfile> try_profile_by_name(const std::string& app_name, double clock_hz) {
  if (app_name == "HPCCG") {
    return hpccg(clock_hz);
  }
  if (app_name == "CoMD") {
    return comd(clock_hz);
  }
  if (app_name == "miniMD") {
    return minimd(clock_hz);
  }
  if (app_name == "miniFE") {
    return minife(clock_hz);
  }
  if (app_name == "LAMMPS") {
    return lammps(clock_hz);
  }
  return std::nullopt;
}

AppProfile profile_by_name(const std::string& app_name, double clock_hz) {
  std::optional<AppProfile> prof = try_profile_by_name(app_name, clock_hz);
  if (!prof.has_value()) {
    throw std::invalid_argument("unknown application profile '" + app_name +
                                "' (known: " + std::string(known_profile_names()) + ")");
  }
  return *std::move(prof);
}

// The profiles are built by designated initialisers: constructing the
// name in place, rather than assigning a short literal to a
// default-constructed std::string, avoids a GCC 12 -O3 -Wrestrict false
// positive that breaks Release builds under -Werror.

CommodityProfile profile_a(std::uint32_t app_cores) {
  // §IV-B: one parallel kernel build on 8 cores, limited to 4 when the
  // app itself uses 8 "so as to not overcommit the cores".
  return {.name = "A", .builds = 1, .jobs_per_build = app_cores >= 8 ? 4u : 8u};
}

CommodityProfile profile_b(std::uint32_t app_cores) {
  // §IV-B: profile A plus a duplicate build — this one *does* overcommit.
  return {.name = "B", .builds = 2, .jobs_per_build = app_cores >= 8 ? 4u : 8u};
}

CommodityProfile profile_c() {
  // §IV-C: one build consuming the remaining 4 cores of each node.
  return {.name = "C", .builds = 1, .jobs_per_build = 4};
}

CommodityProfile profile_d() { return {.name = "D", .builds = 2, .jobs_per_build = 4}; }

CommodityProfile no_competition() {
  return {.name = "none", .builds = 0, .jobs_per_build = 0};
}

} // namespace hpmmap::workloads
