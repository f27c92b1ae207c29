#include "sim/parallel.hpp"

#include <algorithm>

namespace hpmmap::sim {

ParallelCoordinator::ParallelCoordinator(unsigned workers)
    : workers_(workers == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : workers) {}

ParallelCoordinator::~ParallelCoordinator() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : pool_) {
      t.join();
    }
  }
}

std::size_t ParallelCoordinator::add_group(Engine& engine, GroupHooks hooks) {
  groups_.push_back(Group{&engine, std::move(hooks)});
  return groups_.size() - 1;
}

void ParallelCoordinator::drain(std::uint64_t gen) {
  const std::size_t n = groups_.size();
  while (true) {
    std::size_t g = 0;
    const Body* body = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (phase_gen_ != gen || phase_next_ >= n) {
        return;
      }
      g = phase_next_++;
      body = phase_body_; // live until this slice is counted done
    }
    const Group& group = groups_[g];
    if (group.hooks.enter) {
      group.hooks.enter();
    }
    (*body)(g);
    if (group.hooks.leave) {
      group.hooks.leave();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (++phase_done_ == n) {
      done_cv_.notify_all();
    }
  }
}

void ParallelCoordinator::run_on_groups(const Body& fn) {
  const std::size_t n = groups_.size();
  if (pool_.empty() && workers_ > 1 && n > 1) {
    const unsigned spawned = static_cast<unsigned>(
        std::min<std::size_t>(workers_, n)) - 1; // controller participates
    pool_.reserve(spawned);
    for (unsigned w = 0; w < spawned; ++w) {
      pool_.emplace_back([this] { worker_loop(); });
    }
  }
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_body_ = &fn;
    phase_next_ = 0;
    phase_done_ = 0;
    gen = ++phase_gen_;
  }
  start_cv_.notify_all();
  // The controller drains alongside the pool; with no pool it runs every
  // slice inline, in group order.
  drain(gen);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, n] { return phase_done_ == n; });
  phase_body_ = nullptr;
}

void ParallelCoordinator::worker_loop() {
  std::uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen_gen] {
        return shutdown_ || (phase_gen_ != seen_gen && phase_body_ != nullptr);
      });
      if (shutdown_) {
        return;
      }
      seen_gen = phase_gen_;
    }
    drain(seen_gen);
  }
}

void ParallelCoordinator::run_phase() {
  run_on_groups([this](std::size_t g) { groups_[g].engine->run(); });
}

void ParallelCoordinator::run_phase_until(Cycles until) {
  run_on_groups([this, until](std::size_t g) { groups_[g].engine->run_until(until); });
}

} // namespace hpmmap::sim
