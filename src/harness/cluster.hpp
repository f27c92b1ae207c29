// Cluster runs: the scaling experiment on per-node engines.
//
// run_cluster() gives every node its own sim::Engine and drives them
// from a sim::ParallelCoordinator worker pool, synchronizing
// conservatively: the BSP job's barrier is the only cross-node coupling,
// so engines run freely between barriers (the rendezvous specialization
// of conservative lookahead — see DESIGN.md §13) and the controller
// resolves each barrier with a single topology-aware collective draw.
// It is the only multi-node path: run_trials, run_batch and the
// snapshotted sweeps on ScalingRunConfig run it at one worker per task.
//
// Determinism contract:
//   - any --cluster-jobs value (including 1) produces byte-identical
//     RunResults: each node's run context (flight recorder, metrics,
//     fault injector, trace clock) travels with its engine slice, and
//     all inter-phase work is single-threaded on the controller;
//   - the runtime/fault tables equal the shared-engine path this one
//     replaced, and at nodes=1 so do the trace, telemetry and procfs
//     bytes (tests/golden/scaling_tables.txt, recorded from it);
//   - a run resumed from capture_scaling's image is byte-identical to
//     the straight run, at any worker count.
// The caller's metric registry ends the run holding every node's
// counters summed in node order, and each node's histograms under a
// `.node<N>` suffix (P² estimates do not merge exactly). Injection call
// indices count per node: each group arms its own injector.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/network.hpp"
#include "harness/experiment.hpp"
#include "snapshot/image.hpp"

namespace hpmmap::harness {

struct ClusterRunConfig {
  /// The experiment shape.
  ScalingRunConfig scaling{};
  /// Interconnect topology for the collectives (kFlat reproduces the
  /// paper's single-switch model; kTree needs power-of-two nodes).
  cluster::Topology topology = cluster::Topology::kFlat;
  /// Worker threads driving the per-node engines; 0 = hardware
  /// concurrency, 1 = the inline deterministic reference.
  unsigned cluster_jobs = 1;
};

/// An aged cluster at the warmup point: one image per node, in node
/// order. No coordinator state exists there (no barrier has been
/// reached, and the comm model is rebuilt from the seed at launch).
using ClusterImage = std::vector<snapshot::WorldImage>;

/// Run one cluster trial on per-node engines. See the determinism
/// contract above.
[[nodiscard]] RunResult run_cluster(const ClusterRunConfig& config);

/// Boot and age the configured cluster on one worker and capture every
/// node at the warmup point. Same matching contract as the single-node
/// pair in experiment.hpp: only the measurement-phase fields — app,
/// duration_scale, introspect — may differ on resume.
[[nodiscard]] ClusterImage capture_scaling(const ScalingRunConfig& config);

/// Resume a captured cluster and run the measurement phase; each node
/// is restored under its own context on the worker pool.
[[nodiscard]] RunResult run_cluster(const ClusterRunConfig& config, const ClusterImage& image);

/// Trial loop over trial_seeds(scaling.seed, trials), folded exactly like
/// run_trials. Trials run serially — each trial already spreads its
/// nodes over the cluster_jobs worker pool.
[[nodiscard]] SeriesPoint run_cluster_trials(ClusterRunConfig config, std::uint32_t trials);

} // namespace hpmmap::harness
