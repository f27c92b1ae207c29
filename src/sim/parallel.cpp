#include "sim/parallel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hpmmap::sim {

namespace {
constexpr std::size_t kController = ~std::size_t{0};
} // namespace

thread_local std::size_t ParallelCoordinator::t_current_group_ = kController;

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
  Group g;
  g.engine = &engine;
  g.hooks = std::move(hooks);
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

void ParallelCoordinator::post_message(std::size_t dst, Cycles when, EventCallback fn) {
  HPMMAP_ASSERT(dst < groups_.size(), "post to unknown group");
  Message m;
  m.when = when;
  m.dst = dst;
  m.fn = std::move(fn);
  if (t_current_group_ == kController) {
    // Between phases: single-threaded controller context.
    m.src = groups_.size();
    m.order = controller_posted_++;
    queued_.push_back(std::move(m));
  } else {
    Group& sender = groups_[t_current_group_];
    m.src = t_current_group_;
    m.order = sender.posted++;
    sender.outbox.push_back(std::move(m));
  }
}

void ParallelCoordinator::deliver_queued() {
  // Collect every pending message (controller queue + group outboxes)
  // and deliver in (when, sender, post-order) order: the destination
  // engine's own (when, seq) tie-break then reproduces the same firing
  // order no matter which thread produced the message or when.
  std::vector<Message> batch;
  batch.swap(queued_);
  for (Group& g : groups_) {
    std::move(g.outbox.begin(), g.outbox.end(), std::back_inserter(batch));
    g.outbox.clear();
  }
  if (batch.empty()) {
    return;
  }
  std::stable_sort(batch.begin(), batch.end(), [](const Message& a, const Message& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.src != b.src ? a.src < b.src : a.order < b.order;
  });
  for (Message& m : batch) {
    Engine& dst = *groups_[m.dst].engine;
    // Lookahead soundness: a conservative window (or rendezvous release)
    // must never produce a message in the destination's past.
    HPMMAP_ASSERT(m.when >= dst.now(),
                  "cross-engine message behind the destination clock");
    dst.schedule_at(m.when, std::move(m.fn));
  }
}

void ParallelCoordinator::for_each_group(const std::function<void(Group&)>& body) {
  const auto slice = [this, &body](std::size_t g) {
    Group& group = groups_[g];
    t_current_group_ = g;
    if (group.hooks.enter) {
      group.hooks.enter();
    }
    body(group);
    if (group.hooks.leave) {
      group.hooks.leave();
    }
    t_current_group_ = kController;
  };
  const std::size_t n = groups_.size();
  if (workers_ <= 1 || n <= 1) {
    for (std::size_t g = 0; g < n; ++g) {
      slice(g);
    }
    return;
  }
  if (pool_.empty()) {
    const unsigned spawned = static_cast<unsigned>(
        std::min<std::size_t>(workers_, n)) - 1; // controller participates
    pool_.reserve(spawned);
    for (unsigned w = 0; w < spawned; ++w) {
      pool_.emplace_back([this] { worker_loop(); });
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_body_ = &body;
    phase_next_ = 0;
    phase_done_ = 0;
    ++phase_gen_;
  }
  start_cv_.notify_all();
  // The controller drains alongside the pool.
  while (true) {
    std::size_t g;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (phase_next_ >= n) {
        break;
      }
      g = phase_next_++;
    }
    slice(g);
    std::lock_guard<std::mutex> lock(mu_);
    ++phase_done_;
    if (phase_done_ == n) {
      done_cv_.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, n] { return phase_done_ == n; });
  phase_body_ = nullptr;
}

void ParallelCoordinator::worker_loop() {
  std::uint64_t seen_gen = 0;
  while (true) {
    const std::function<void(Group&)>* body;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [this, seen_gen] {
        return shutdown_ || (phase_gen_ != seen_gen && phase_body_ != nullptr);
      });
      if (shutdown_) {
        return;
      }
      seen_gen = phase_gen_;
      body = phase_body_;
    }
    while (true) {
      std::size_t g;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (phase_gen_ != seen_gen || phase_next_ >= groups_.size()) {
          break;
        }
        g = phase_next_++;
      }
      Group& group = groups_[g];
      t_current_group_ = g;
      if (group.hooks.enter) {
        group.hooks.enter();
      }
      (*body)(group);
      if (group.hooks.leave) {
        group.hooks.leave();
      }
      t_current_group_ = kController;
      std::lock_guard<std::mutex> lock(mu_);
      ++phase_done_;
      if (phase_done_ == groups_.size()) {
        done_cv_.notify_all();
      }
    }
  }
}

void ParallelCoordinator::run_phase() {
  deliver_queued();
  for_each_group([](Group& g) { g.engine->run(); });
  deliver_queued();
}

void ParallelCoordinator::run_phase_until(Cycles until) {
  deliver_queued();
  for_each_group([until](Group& g) { g.engine->run_until(until); });
  deliver_queued();
}

void ParallelCoordinator::run_on_groups(const std::function<void(std::size_t)>& fn) {
  // Every slice runs with t_current_group_ set to its group id.
  for_each_group([&fn](Group&) { fn(t_current_group_); });
}

void ParallelCoordinator::run_lookahead(Cycles lookahead, Cycles until) {
  HPMMAP_ASSERT(lookahead > 0, "conservative windows need positive lookahead");
  while (true) {
    deliver_queued();
    Cycles horizon = Engine::kNoEvent;
    for (Group& g : groups_) {
      horizon = std::min(horizon, g.engine->next_event_time());
    }
    if (horizon == Engine::kNoEvent || horizon > until) {
      break;
    }
    // Window end is inclusive: an event exactly at horizon + lookahead
    // is still safe to fire, because any message produced inside the
    // window carries when >= send time + lookahead >= horizon + lookahead
    // and is delivered at the barrier before the next window runs.
    const Cycles window_end =
        until - horizon > lookahead ? horizon + lookahead : until;
    for_each_group([window_end](Group& g) { g.engine->run_until(window_end); });
  }
  deliver_queued();
}

} // namespace hpmmap::sim
