// Gigabit Ethernet interconnect model for the scaling study (§IV-C).
//
// The testbed's 1 GbE is slow enough that the paper limits ranks to 4
// per node "to reduce the effects that limited network bandwidth would
// have". Collectives are modelled with standard log-tree cost formulas;
// per-iteration jitter reflects switch contention. The absolute numbers
// matter less than the property that cross-node synchronization makes
// iteration time the max over all ranks — that is what amplifies
// single-node memory-management noise at scale.
//
// Beyond the paper's 8 nodes the single-switch assumption stops being
// honest, so the model is topology-aware:
//   - flat:     one switch; past its radix, uplink contention stretches
//               every round linearly (N <= radix reproduces the paper's
//               2*ceil(log2 N) formula exactly).
//   - tree:     binomial doubling over disjoint switch ports — the
//               textbook allreduce; requires a power-of-two node count.
//   - fat-tree: multi-stage Clos with full bisection bandwidth; rounds
//               pay extra per-stage hop latency but never contend.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/rng.hpp"
#include "workloads/mpi_app.hpp"

namespace hpmmap::cluster {

struct EthernetSpec {
  double latency_seconds = 55e-6;            // per message, kernel TCP stack
  double bandwidth_bytes_per_sec = 112e6;    // ~90% of line rate
  double jitter_cv = 0.12;                   // switch/stack variance
};

enum class Topology : std::uint8_t { kFlat, kTree, kFatTree };

[[nodiscard]] constexpr std::string_view name(Topology t) noexcept {
  switch (t) {
    case Topology::kFlat:    return "flat";
    case Topology::kTree:    return "tree";
    case Topology::kFatTree: return "fat-tree";
  }
  return "?";
}

/// Parse "flat" / "tree" / "fat-tree"; nullopt on anything else.
[[nodiscard]] std::optional<Topology> topology_from_name(std::string_view s) noexcept;

/// Ports on the modelled edge switch: a flat network keeps the paper's
/// contention-free cost up to this node count, then degrades linearly.
inline constexpr std::uint32_t kSwitchRadix = 32;

/// Tree collectives need node counts that fill the doubling schedule.
[[nodiscard]] constexpr bool topology_supports(Topology t, std::uint32_t nodes) noexcept {
  return t != Topology::kTree || (nodes & (nodes - 1)) == 0;
}

/// Time to ship `bytes` point-to-point (used by tests/benches).
[[nodiscard]] double p2p_seconds(const EthernetSpec& spec, std::uint64_t bytes);

/// One allreduce over `node_count` nodes with an 8 KiB payload per
/// round, under `topology` — the deterministic core the comm model
/// jitters. Exposed for tests and the scaling analysis.
[[nodiscard]] double allreduce_seconds(const EthernetSpec& spec, Topology topology,
                                       std::uint32_t node_count);

/// Communication model for a job spanning `node_count` nodes:
/// allreduce rounds per the topology (see allreduce_seconds) plus the
/// intra-node shared-memory part; halo exchange pays bytes/bw once.
/// kFlat at <= kSwitchRadix nodes is byte-identical to the pre-topology
/// model (the paper's 2*ceil(log2 N) constant).
[[nodiscard]] workloads::CommModel ethernet_comm(const EthernetSpec& spec, double clock_hz,
                                                 std::uint32_t node_count, Rng rng,
                                                 Topology topology = Topology::kFlat);

} // namespace hpmmap::cluster
