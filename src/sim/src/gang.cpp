#include "updsm/sim/gang.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "updsm/sim/exec_context.hpp"

namespace updsm::sim {

const char* to_string(GangMode mode) {
  switch (mode) {
    case GangMode::Baton:
      return "baton";
    case GangMode::Parallel:
      return "parallel";
    case GangMode::Async:
      return "async";
  }
  return "?";
}

int Gang::resolve_workers(int workers, int num_nodes) {
  UPDSM_REQUIRE(workers >= 0,
                "workers must be >= 1 (or 0 for auto), got " << workers);
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(workers, 1, num_nodes);
}

int Gang::owner_worker(int node, int num_nodes, int workers) {
  const int base = num_nodes / workers;
  const int rem = num_nodes % workers;
  // The first `rem` workers own base+1 nodes each, covering [0, big).
  const int big = rem * (base + 1);
  if (node < big) return node / (base + 1);
  return rem + (node - big) / base;
}

Gang::Gang(int num_nodes, GangMode mode, int workers)
    : mode_(mode), num_nodes_(num_nodes) {
  UPDSM_REQUIRE(num_nodes >= 1,
                "gang needs at least one node, got " << num_nodes);
  num_workers_ = resolve_workers(workers, num_nodes);
  if (mode != GangMode::Parallel) {
    // One node runs at a time either way; a second thread could only take
    // it over, so a serial gang runs every node on the caller of run().
    num_workers_ = 1;
  } else if (workers > num_nodes) {
    std::fprintf(stderr,
                 "updsm: workers=%d exceeds %d simulated nodes; clamping to "
                 "%d\n",
                 workers, num_nodes, num_nodes);
  }

  slots_.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    slots_.push_back(std::make_unique<NodeSlot>());
  }
  span_.resize(static_cast<std::size_t>(num_workers_) + 1);
  const int base = num_nodes / num_workers_;
  const int rem = num_nodes % num_workers_;
  span_[0] = 0;
  for (int w = 0; w < num_workers_; ++w) {
    span_[static_cast<std::size_t>(w) + 1] =
        span_[w] + base + (w < rem ? 1 : 0);
  }
  task_errors_.resize(static_cast<std::size_t>(num_workers_));
  if (mode != GangMode::Parallel) return;
  // Worker 0 is the caller of run(), which parks on controller_: only
  // workers 1..M-1 get a thread and a parker.
  parkers_.resize(static_cast<std::size_t>(num_workers_));
  threads_.reserve(static_cast<std::size_t>(num_workers_) - 1);
  live_workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 1; w < num_workers_; ++w) {
    parkers_[static_cast<std::size_t>(w)] = std::make_unique<Parker>();
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

Gang::~Gang() {
  destroy_.store(true, std::memory_order_release);
  // Pool threads exit one at a time, highest worker first. glibc puts an
  // exiting thread's malloc arena at the head of its free list, so the next
  // gang's threads draw their predecessors' arenas in a fixed order (worker
  // 1's first) instead of a random one. Otherwise a node's allocation
  // bursts land in a different arena every few runs, and each arena grows
  // to hold them: +12 % peak RSS on a 256-node bar-i run. Worker 0's nodes
  // allocate from the caller's arena.
  for (int w = num_workers_ - 1; w >= 1; --w) {
    parkers_[static_cast<std::size_t>(w)]->wake();
    threads_[static_cast<std::size_t>(w) - 1].join();
  }
}

void Gang::record_failure(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    if (!first_error_) first_error_ = std::move(error);
  }
  shutdown_.store(true, std::memory_order_release);
}

bool Gang::run_node_fiber(int node) {
  NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
  if (!slot.started) {
    slot.started = true;
    slot.fiber.arm([this, node] {
      // Runs on the fiber's own stack; must not let anything escape (a
      // throwing fiber function would std::terminate inside ucontext).
      NodeSlot& s = *slots_[static_cast<std::size_t>(node)];
      try {
        (*node_fn_)(node);
        s.exit = NodeExit::Returned;
      } catch (const Shutdown&) {
        s.exit = NodeExit::Torn;  // torn down by another node's failure
      } catch (...) {
        s.exit = NodeExit::Errored;
        s.error = std::current_exception();
      }
    });
  }
  detail::set_exec_node(node);
  const bool finished = slot.fiber.resume();
  detail::set_exec_node(kControllerContext);
  return finished;
}

void Gang::unwind_owned(int worker) {
  for (int n = span_first(worker); n < span_last(worker); ++n) {
    NodeSlot& slot = *slots_[static_cast<std::size_t>(n)];
    while (slot.status != NodeStatus::Done) {
      if (!slot.started) {
        // Historical semantics: a node that had not started when the gang
        // failed never runs at all.
        slot.status = NodeStatus::Done;
        break;
      }
      // Resume the suspended fiber so barrier_wait rethrows Shutdown and
      // the node's stack unwinds through the application frames. Repeat in
      // case the application swallows it and parks again.
      if (run_node_fiber(n)) slot.status = NodeStatus::Done;
    }
  }
}

void Gang::detach_worker() {
  if (active_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    controller_.wake();
  }
}

int Gang::pick_next(int after) const {
  if (mode_ == GangMode::Baton) {
    // A phase resumes nodes in ascending order and each leaves Ready (for
    // the barrier or for good) before the next one runs, so no node at or
    // below `after` is Ready: the first Ready node past it is the lowest.
    for (int j = after + 1; j < num_nodes_; ++j) {
      if (slots_[static_cast<std::size_t>(j)]->status == NodeStatus::Ready) {
        return j;
      }
    }
    return kController;
  }
  // Async: the ascending scan plus strict < gives ties to the lowest id, so
  // the event order is a pure function of the virtual clocks.
  int best = kController;
  std::uint64_t best_clock = 0;
  for (int j = 0; j < num_nodes_; ++j) {
    if (slots_[static_cast<std::size_t>(j)]->status != NodeStatus::Ready) {
      continue;
    }
    const std::uint64_t c = clock_source_ ? clock_source_(j) : 0;
    if (best == kController || c < best_clock) {
      best = j;
      best_clock = c;
    }
  }
  return best;
}

void Gang::check_running(int node, const char* call) const {
  // The loop that resumes a node fiber (the serial loop, a pool worker or
  // the parallel gang's caller) stamps it with the node's id; a
  // for_each_node share carries its node's stamp but is no running fiber.
  UPDSM_CHECK_MSG(current_exec_node() == node && task_fn_ == nullptr,
                  call << "(" << node << ") called out of turn (running "
                       << current_exec_node() << ")");
}

void Gang::async_step(int node) {
  UPDSM_CHECK_MSG(mode_ == GangMode::Async,
                  "async_step requires GangMode::Async");
  check_running(node, "async_step");
  // The node stays Ready -- it yields its turn, not parking at a barrier --
  // so the pick may be the node itself, which then keeps running in place.
  const int next = pick_next(node);
  if (next == node) return;
  next_ = next;
  slots_[static_cast<std::size_t>(node)]->fiber.yield();
  if (shutdown_.load(std::memory_order_acquire)) throw Shutdown{};
}

void Gang::barrier_wait(int node) {
  check_running(node, "barrier_wait");
  NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
  // Under Parallel a plain write: the owning worker's arrival decrement
  // publishes it to the controller.
  slot.status = NodeStatus::AtBarrier;
  // Switches back to the loop that resumed this node (the serial loop, or
  // the owning worker's phase) until the barrier releases this node again.
  slot.fiber.yield();
  if (shutdown_.load(std::memory_order_acquire)) throw Shutdown{};
}

void Gang::run_share(int worker) {
  std::exception_ptr& error = task_errors_[static_cast<std::size_t>(worker)];
  const int saved = current_exec_node();
  for (int n = span_first(worker); n < span_last(worker); ++n) {
    detail::set_exec_node(n);
    try {
      (*task_fn_)(n);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  detail::set_exec_node(saved);
}

void Gang::run_task(int worker, std::uint64_t& task_seen) {
  task_seen = task_epoch_.load(std::memory_order_relaxed);
  run_share(worker);
  if (task_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    controller_.wake();
  }
}

void Gang::for_each_node(const NodeFn& fn) {
  UPDSM_REQUIRE(in_barrier_cb_.load(std::memory_order_relaxed) &&
                    std::this_thread::get_id() == controller_thread_ &&
                    task_fn_ == nullptr,
                "Gang::for_each_node may only be called by the controller "
                "from inside the barrier callback");
  // Every node is parked at the barrier, so every pool worker owns a live
  // node and sits in its parking loop, where it picks its share up. The
  // caller is worker 0 and runs that worker's share here (the only share of
  // a one-worker gang, which every serial gang is).
  task_fn_ = &fn;
  task_remaining_.store(num_workers_ - 1, std::memory_order_relaxed);
  task_epoch_.fetch_add(1, std::memory_order_release);
  for (int w = 1; w < num_workers_; ++w) {
    parkers_[static_cast<std::size_t>(w)]->wake();
  }
  run_share(0);
  await_zero(task_remaining_);
  task_fn_ = nullptr;
  std::exception_ptr first;
  for (std::exception_ptr& e : task_errors_) {
    if (e && !first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void Gang::run_barrier_cb(const BarrierFn& barrier_cb) {
  in_barrier_cb_.store(true, std::memory_order_relaxed);
  try {
    barrier_cb(barriers_);
  } catch (...) {
    in_barrier_cb_.store(false, std::memory_order_relaxed);
    throw;
  }
  in_barrier_cb_.store(false, std::memory_order_relaxed);
}

void Gang::worker_main(int worker) {
  detail::set_exec_worker(worker);
  std::uint64_t seen_job = 0;
  std::uint64_t task_seen = 0;
  for (;;) {
    for (;;) {
      const std::uint64_t ticket = parkers_[static_cast<std::size_t>(worker)]
                                       ->prepare();
      if (destroy_.load(std::memory_order_acquire)) return;
      const std::uint64_t job = job_epoch_.load(std::memory_order_acquire);
      if (job != seen_job) {
        seen_job = job;
        break;
      }
      parkers_[static_cast<std::size_t>(worker)]->wait(ticket);
    }
    run_job_parallel(worker, task_seen);
  }
}

bool Gang::run_phase(int worker) noexcept {
  if (shutdown_.load(std::memory_order_acquire)) {
    unwind_owned(worker);
  } else {
    for (int n = span_first(worker); n < span_last(worker); ++n) {
      NodeSlot& slot = *slots_[static_cast<std::size_t>(n)];
      if (slot.status != NodeStatus::Ready) continue;
      if (!slot.started && shutdown_.load(std::memory_order_acquire)) {
        // Another node failed before this one ever started.
        slot.status = NodeStatus::Done;
        continue;
      }
      if (run_node_fiber(n)) {
        slot.status = NodeStatus::Done;
        if (slot.exit == NodeExit::Errored) record_failure(slot.error);
      }
    }
  }
  bool live = false;
  for (int n = span_first(worker); n < span_last(worker); ++n) {
    if (slots_[static_cast<std::size_t>(n)]->status != NodeStatus::Done) {
      live = true;
      break;
    }
  }
  // Arrive at the phase barrier; the last pool arrival wakes the caller
  // (which does not wait when it arrives last itself).
  if (phase_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      worker != 0) {
    controller_.wake();
  }
  return live;
}

void Gang::run_job_parallel(int worker, std::uint64_t& task_seen) {
  Parker& parker = *parkers_[static_cast<std::size_t>(worker)];
  for (;;) {
    // The release epoch is stable for the whole phase: the caller cannot
    // bump it again until this worker arrives in run_phase.
    const std::uint64_t phase = phase_epoch_.load(std::memory_order_acquire);
    if (!run_phase(worker)) break;
    for (;;) {
      const std::uint64_t ticket = parker.prepare();
      if (phase_epoch_.load(std::memory_order_acquire) != phase) break;
      if (task_epoch_.load(std::memory_order_acquire) != task_seen) {
        run_task(worker, task_seen);
      } else {
        parker.wait(ticket);
      }
    }
  }
  detach_worker();
}

bool Gang::at_barrier() const {
  bool all_done = true;
  bool any_done = false;
  for (const auto& s : slots_) {
    if (s->status == NodeStatus::Done) {
      any_done = true;
    } else {
      all_done = false;
    }
  }
  if (all_done) return false;
  if (any_done) {
    throw UsageError(
        "a node exited while other nodes are still waiting at a barrier "
        "(mismatched barrier counts)");
  }
  return true;
}

void Gang::open_next_phase() {
  ++barriers_;
  for (auto& s : slots_) {
    if (s->status == NodeStatus::AtBarrier) s->status = NodeStatus::Ready;
  }
}

void Gang::run_serial(const BarrierFn& barrier_cb) {
  try {
    for (;;) {
      // Resume the picked node until it parks at the barrier, finishes or,
      // under Async, yields its turn to the node async_step picked.
      int node = pick_next(kController);
      while (node != kController) {
        if (run_node_fiber(node)) {
          NodeSlot& slot = *slots_[static_cast<std::size_t>(node)];
          slot.status = NodeStatus::Done;
          if (slot.exit == NodeExit::Errored) {
            std::rethrow_exception(slot.error);
          }
        }
        node = next_ != kController ? std::exchange(next_, kController)
                                    : pick_next(node);
      }
      if (!at_barrier()) return;  // every node finished
      run_barrier_cb(barrier_cb);
      open_next_phase();
    }
  } catch (...) {
    record_failure(std::current_exception());
    unwind_owned(0);  // the one worker's span is every node
  }
}

bool Gang::release_parallel_phase() {
  // Only called with every worker quiescent (arrived or detached), so the
  // status scan cannot race. Counts every worker that still owns a live
  // node and wakes those of the pool (worker 0 is the caller): O(M)
  // targeted wakes, no herd. The wake list is recorded before the epoch
  // bump: a worker that sees the new epoch early starts running its nodes
  // and writing their statuses, so they must not be scanned again
  // afterwards.
  live_workers_.clear();
  for (int w = 0; w < num_workers_; ++w) {
    for (int n = span_first(w); n < span_last(w); ++n) {
      if (slots_[static_cast<std::size_t>(n)]->status != NodeStatus::Done) {
        live_workers_.push_back(w);
        break;
      }
    }
  }
  if (live_workers_.empty()) return false;
  phase_remaining_.store(static_cast<int>(live_workers_.size()),
                         std::memory_order_relaxed);
  phase_epoch_.fetch_add(1, std::memory_order_release);
  for (const int w : live_workers_) {
    if (w != 0) parkers_[static_cast<std::size_t>(w)]->wake();
  }
  return true;
}

void Gang::await_zero(const std::atomic<int>& count) {
  while (count.load(std::memory_order_acquire) != 0) {
    const std::uint64_t ticket = controller_.prepare();
    if (count.load(std::memory_order_acquire) == 0) return;
    controller_.wait(ticket);
  }
}

void Gang::controller_parallel(const BarrierFn& barrier_cb) {
  // The caller is worker 0. Each phase, after release_parallel_phase (or
  // run) has woken the pool, it runs that worker's span, arrives, and waits
  // for the last pool arrival. A span that held no live node at its arrival
  // is not in the next phase, as a pool worker that left the job is not.
  bool own_live = true;  // run() makes every node Ready
  for (;;) {
    if (own_live) own_live = run_phase(0);
    await_zero(phase_remaining_);
    if (shutdown_.load(std::memory_order_acquire)) {
      // Unwind phase: release the surviving workers, the caller's span
      // included, so they tear their suspended fibers down; repeat until
      // none is left.
      if (!release_parallel_phase()) return;
      continue;
    }
    try {
      if (!at_barrier()) return;  // every node finished
      run_barrier_cb(barrier_cb);
    } catch (...) {
      record_failure(std::current_exception());
      if (!release_parallel_phase()) return;
      continue;
    }
    open_next_phase();
    if (!release_parallel_phase()) return;
  }
}

void Gang::run(const NodeFn& node_fn, const BarrierFn& barrier_cb) {
  UPDSM_CHECK_MSG(node_fn_ == nullptr, "Gang::run is not reentrant");
  node_fn_ = &node_fn;
  controller_thread_ = std::this_thread::get_id();
  shutdown_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  next_ = kController;
  for (auto& s : slots_) {
    s->status = NodeStatus::Ready;
    s->started = false;
    s->exit = NodeExit::None;
    s->error = nullptr;
  }
  if (mode_ == GangMode::Parallel) {
    phase_remaining_.store(num_workers_, std::memory_order_relaxed);
    active_workers_.store(num_workers_ - 1, std::memory_order_relaxed);
    job_epoch_.fetch_add(1, std::memory_order_release);
    for (int w = 1; w < num_workers_; ++w) {
      parkers_[static_cast<std::size_t>(w)]->wake();
    }
    controller_parallel(barrier_cb);
    // Wait for every pool worker to finish (or abandon) this job before
    // returning, so the pool is quiescent for the next run() and errors
    // are complete.
    await_zero(active_workers_);
  } else {
    run_serial(barrier_cb);
  }
  node_fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr error;
    std::swap(error, first_error_);
    std::rethrow_exception(error);
  }
}

}  // namespace updsm::sim
