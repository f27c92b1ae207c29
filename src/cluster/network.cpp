#include "cluster/network.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "trace/trace.hpp"
#include "verify/fault_inject.hpp"

namespace hpmmap::cluster {

std::optional<Topology> topology_from_name(std::string_view s) noexcept {
  if (s == "flat") {
    return Topology::kFlat;
  }
  if (s == "tree") {
    return Topology::kTree;
  }
  if (s == "fat-tree") {
    return Topology::kFatTree;
  }
  return std::nullopt;
}

double p2p_seconds(const EthernetSpec& spec, std::uint64_t bytes) {
  return spec.latency_seconds + static_cast<double>(bytes) / spec.bandwidth_bytes_per_sec;
}

double allreduce_seconds(const EthernetSpec& spec, Topology topology,
                         std::uint32_t node_count) {
  if (node_count <= 1) {
    return 0.0;
  }
  HPMMAP_ASSERT(topology_supports(topology, node_count),
                "tree collectives need a power-of-two node count");
  const auto rounds = static_cast<double>(std::bit_width(node_count - 1)); // ceil(log2)
  const double hop = p2p_seconds(spec, 8 * 1024); // small payload: latency dominated
  switch (topology) {
    case Topology::kFlat: {
      // Reduce + broadcast up/down a log tree through one switch. Past
      // the switch radix every round queues behind N/radix flows on the
      // uplink — the linear stretch that motivates real topologies.
      const double contention =
          node_count <= kSwitchRadix
              ? 1.0
              : static_cast<double>(node_count) / static_cast<double>(kSwitchRadix);
      return 2.0 * rounds * hop * contention;
    }
    case Topology::kTree:
      // Binomial doubling: every round pairs disjoint port sets, so the
      // paper's contention-free cost holds at any power-of-two size.
      return 2.0 * rounds * hop;
    case Topology::kFatTree: {
      // Clos with full bisection bandwidth: no queueing, but each extra
      // stage (radix-16 aggregation) adds per-hop latency to each round.
      const auto levels = static_cast<double>(
          1 + std::bit_width((node_count - 1) / 16)); // ceil(log16)
      const double staged_hop = spec.latency_seconds * (1.0 + 0.1 * (levels - 1.0)) +
                                (8.0 * 1024.0) / spec.bandwidth_bytes_per_sec;
      return 2.0 * rounds * staged_hop;
    }
  }
  return 0.0;
}

workloads::CommModel ethernet_comm(const EthernetSpec& spec, double clock_hz,
                                   std::uint32_t node_count, Rng rng,
                                   Topology topology) {
  auto rng_ptr = std::make_shared<Rng>(rng);
  return [spec, clock_hz, node_count, rng_ptr, topology](
             const workloads::AppProfile& app, std::uint64_t ranks) -> Cycles {
    double secs = 0.0;
    if (node_count > 1) {
      secs += static_cast<double>(app.allreduces_per_iter) *
              allreduce_seconds(spec, topology, node_count);
      // Halo exchange with off-node neighbours.
      secs += p2p_seconds(spec, app.halo_bytes_per_iter);
    }
    // Intra-node shared-memory share.
    secs += static_cast<double>(app.allreduces_per_iter) *
            (3e-6 + 0.4e-6 * static_cast<double>(ranks));
    double jittered = rng_ptr->lognormal_from_moments(secs, spec.jitter_cv * secs);
    // Injected delay spike: one collective stretched by the plan's
    // magnitude (a congested switch / a retransmit storm). The job just
    // runs longer — BSP absorbs the straggler at the next barrier.
    if (verify::injector().should_fail(verify::InjectPoint::kNetDelay)) {
      jittered *= verify::injector().magnitude(verify::InjectPoint::kNetDelay);
    }
    const auto cycles = static_cast<Cycles>(jittered * clock_hz);
    if (trace::on(trace::Category::kNet)) {
      trace::instant(trace::Category::kNet, "net.collective", 0, -1,
                     {trace::Arg::u64("cycles", cycles), trace::Arg::u64("ranks", ranks),
                      trace::Arg::u64("nodes", node_count),
                      trace::Arg::u64("halo_bytes", app.halo_bytes_per_iter)});
    }
    return cycles;
  };
}

} // namespace hpmmap::cluster
