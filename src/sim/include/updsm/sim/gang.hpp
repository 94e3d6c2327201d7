// Deterministic gang scheduler for simulated DSM nodes.
//
// N simulated node contexts are multiplexed over a bounded pool of M
// worker threads (M = `workers`, default hardware_concurrency, clamped to
// [1, N]) -- a 1024-node run no longer creates 1024 OS threads. Each node
// runs on its own Fiber (stackful coroutine) so it can block mid-stack in
// barrier_wait; nodes are assigned to workers in deterministic contiguous
// blocks (Gang::owner_worker), and each worker resumes its own nodes in
// ascending node order, so the interleaving observable through the DSM
// layer's determinism discipline is a pure function of (N, inputs) --
// never of M or of host scheduling. Two scheduling modes:
//
//  - GangMode::Baton (constructor default): a baton protocol admits exactly
//    ONE runnable node at a time and hands control over only at barriers
//    (or node exit). Rounds are strictly ordered 0..n-1, so every run is
//    bit-deterministic and free of data races by construction -- no atomics
//    or locks are needed anywhere in protocol or application code.
//
//  - GangMode::Parallel: between barriers ALL ready nodes run concurrently
//    (up to M at a time, one per worker); the controller runs the barrier
//    callback, and the workers run only the per-node shares it fans out
//    through for_each_node. Determinism is preserved by the DSM layer's
//    discipline, not by scheduling: mid-phase code may only
//    (a) read state frozen at the previous barrier, (b) perform commutative
//    accounting (relaxed atomic adds), or (c) append to its own per-node
//    logs, which the barrier callback merges in node order. See
//    docs/SIMULATION.md ("Execution model" and "Host-parallel execution").
//
//  - GangMode::Async: like the baton, exactly ONE runnable node at a time,
//    but turns are granted by minimum virtual clock (via set_clock_source,
//    ties to the lowest node id) instead of round order, and a node may
//    yield its turn *without* parking at a barrier (async_step). This is a
//    deterministic discrete-event scheduler for barrier-free iteration:
//    replayable and bit-identical for every worker count, because the
//    event order is a pure function of the virtual clocks. Collectives
//    (barrier_wait) still work and are used for setup/teardown phases.
//
// There is no global mutex/notify_all herd on the phase transitions: every
// worker (and the controller) parks on its own cache-line-padded
// mutex+condvar "parker", phase hand-off in parallel mode goes through an
// atomic arrival counter plus an atomic release epoch (a sense counter),
// and barrier release is O(M) targeted wakes. The baton path wakes exactly
// the next node's owning worker -- or nobody at all, when the next node
// lives on the worker already running.
//
// Both modes are sound for the protocols under study because they are all
// barrier-synchronous (paper §2.2.1 restricts to barrier-only codes): any
// mid-epoch remote request is serviced against protocol state that was
// *published at the previous barrier* and is therefore frozen while other
// nodes execute their part of the same epoch. Publishing new state happens
// exclusively inside the barrier callback, which runs on the controller
// thread while every node is parked.
//
// Workers inside the barrier callback: for_each_node(fn) runs fn(n) for
// every node as its owner worker's share and returns once all shares are
// done -- concurrently under Parallel, one share after another (ascending
// node order) under Baton and Async. Worker 0's share runs on the caller,
// which would otherwise sit idle, while that worker stays parked; so each
// node's work, and each per-worker allocation arena, is still touched by
// one thread at a time. It is how a protocol runs the node-local part of
// its barrier work (diff capture, release-side application) on all
// workers at once, the way every CVM node does it on its own CPU; the
// callback keeps every cross-node write on the controller, in node order.
//
// Lifecycle:
//   Gang gang(8, GangMode::Parallel, /*workers=*/4);
//   gang.run(node_fn /* void(int node) */,
//            barrier_cb /* void(uint64_t barrier_index) */);
// node_fn calls gang.barrier_wait(node) at each application barrier.
// All nodes must execute identical barrier sequences; a node exiting while
// another still synchronizes is reported as UsageError. Node fibers are
// stamped with their node id (sim::current_exec_node()) in both modes;
// worker threads carry sim::current_exec_worker().
//
// Caveat vs the old thread-per-node pool: with M < N, a node that busy-
// waits mid-phase on another node's shared write without reaching a
// barrier can starve that node forever (they may share a worker). The DSM
// protocols never do this -- nodes only communicate at barriers -- and
// tests that want mid-phase cross-node spinning must pass workers == N.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/sim/fiber.hpp"

namespace updsm::sim {

enum class GangMode {
  Baton,     ///< one runnable node at a time, strict 0..n-1 round order
  Parallel,  ///< all ready nodes run concurrently between barriers
  Async,     ///< one runnable node at a time, picked by minimum virtual clock
};

[[nodiscard]] const char* to_string(GangMode mode);

class Gang {
 public:
  using NodeFn = std::function<void(int)>;
  using BarrierFn = std::function<void(std::uint64_t)>;

  /// Spawns the persistent worker pool: resolve_workers(workers, num_nodes)
  /// threads multiplexing num_nodes fiber contexts. Baton is the default so
  /// that plain `Gang g(n)` keeps the historical serialized semantics;
  /// callers opt into concurrency explicitly. Requests above num_nodes are
  /// clamped with a stderr warning; negative requests are UsageErrors.
  explicit Gang(int num_nodes, GangMode mode = GangMode::Baton,
                int workers = 0);
  ~Gang();

  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  /// Runs `node_fn(i)` for every node to completion, invoking
  /// `barrier_cb(k)` on the controller thread (the caller) at the k-th
  /// global barrier. Rethrows the first exception raised by any node or by
  /// the callback. May be called repeatedly; the pool is reused.
  void run(const NodeFn& node_fn, const BarrierFn& barrier_cb);

  /// Called from inside node_fn: parks this node at the global barrier and
  /// returns once the barrier callback has completed and this node may run
  /// again (its baton turn, or the next phase in parallel mode).
  void barrier_wait(int node);

  /// Barrier-callback fan-out: runs `fn(n)` once for every node, with
  /// current_exec_node() == n inside the call (restored afterwards). The
  /// nodes of worker w > 0 run on that worker; worker 0's nodes run on the
  /// caller while worker 0 stays parked. That keeps what a node's share
  /// allocates in the same heap every run (one worker's large share would
  /// otherwise land in whichever malloc arena its new thread drew) and
  /// saves a wake-up. Under Parallel the shares run concurrently; under
  /// Baton and Async one at a time, in ascending node order. Returns once
  /// every share has finished; if any fn(n) threw, every other share still
  /// ran and the exception of the lowest such n is rethrown. Only the
  /// controller may call it, from inside the barrier callback (never from
  /// fn itself); any other call throws UsageError.
  void for_each_node(const NodeFn& fn);

  /// Async mode only: yields this node's turn without parking it at a
  /// barrier. The scheduler re-admits the Ready node with the minimum
  /// (clock_source(node), node) pair; when the caller is still that
  /// minimum, the call returns immediately with no fiber switch. Exactly
  /// one node runs at a time, so async runs are as race-free (and as
  /// bit-deterministic across worker counts) as the baton.
  void async_step(int node);

  /// Wires the virtual-clock lookup used by Async-mode scheduling; must be
  /// monotone per node between async_step calls. Harmless in other modes.
  void set_clock_source(std::function<std::uint64_t(int)> clock_source) {
    clock_source_ = std::move(clock_source);
  }

  [[nodiscard]] int size() const { return num_nodes_; }

  [[nodiscard]] GangMode mode() const { return mode_; }

  /// OS worker threads actually spawned (after auto-detect and clamping).
  [[nodiscard]] int workers() const { return num_workers_; }

  /// Number of barriers completed so far (valid during and after run();
  /// accumulates across run() calls).
  [[nodiscard]] std::uint64_t barriers_completed() const { return barriers_; }

  /// Resolves a requested worker count against a node count: 0 means auto
  /// (hardware_concurrency, minimum 1); anything above num_nodes clamps to
  /// num_nodes. Negative requests throw UsageError. Pure -- shared with the
  /// DSM runtime's per-worker arena sizing so both always agree.
  [[nodiscard]] static int resolve_workers(int workers, int num_nodes);

  /// The worker that owns `node` under the deterministic contiguous-block
  /// assignment: worker w owns nodes [w*base + min(w, rem), ...) of size
  /// base + (w < rem), where base = num_nodes / workers and rem =
  /// num_nodes % workers. Contiguity keeps baton handoffs worker-local and
  /// per-worker node scans cache-friendly.
  [[nodiscard]] static int owner_worker(int node, int num_nodes, int workers);

 private:
  enum class NodeStatus : std::uint8_t { Ready, AtBarrier, Done };
  enum class NodeExit : std::uint8_t { None, Returned, Torn, Errored };
  static constexpr int kController = -1;

  /// Thrown into parked node fibers when the gang shuts down on error.
  struct Shutdown {};

  struct NodeSlot {
    Fiber fiber;
    NodeStatus status = NodeStatus::Done;
    bool started = false;  // fiber armed and resumed at least once this job
    NodeExit exit = NodeExit::None;
    std::exception_ptr error;
  };

  /// One parked thread's private wait channel: an eventcount (ticket =
  /// sequence number) over its own mutex+condvar, cache-line padded so
  /// neighbouring parkers never false-share. Usage: t = prepare(); re-check
  /// the wake condition; wait(t) only if it still does not hold. A waker
  /// that publishes state before wake() can never be lost.
  struct alignas(64) Parker {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t seq = 0;

    [[nodiscard]] std::uint64_t prepare() {
      std::lock_guard<std::mutex> lock(mu);
      return seq;
    }
    void wait(std::uint64_t ticket) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return seq != ticket; });
    }
    void wake() {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++seq;
      }
      cv.notify_one();
    }
  };

  void worker_main(int worker);
  void run_job_baton(int worker, std::uint64_t& task_seen);
  void run_job_parallel(int worker, std::uint64_t& task_seen);
  /// True when a for_each_node share is posted for `worker` (never 0) and
  /// it is its turn (always, under Parallel) -- the workers' parking loops
  /// check it.
  [[nodiscard]] bool task_ready(int worker, std::uint64_t task_seen) const;
  /// Runs fn(n) for every node of `worker`'s span, in node order, keeping
  /// the span's first exception in task_errors_[worker].
  void run_share(int worker);
  /// Baton and Async: lets the next worker run its share.
  void pass_turn(int worker);
  /// Runs `worker`'s share of the posted fan-out and reports it done.
  void run_task(int worker, std::uint64_t& task_seen);
  /// controller_*: barrier_cb(barriers_) with for_each_node enabled.
  void run_barrier_cb(const BarrierFn& barrier_cb);
  [[nodiscard]] bool run_node_fiber(int node);  // true when node finished
  void unwind_owned(int worker);
  void detach_worker();
  void record_failure(std::exception_ptr error);
  void controller_baton(const BarrierFn& barrier_cb);
  void controller_parallel(const BarrierFn& barrier_cb);
  [[nodiscard]] bool release_parallel_phase();
  void advance_baton_locked(int after);              // requires baton_mu_
  void advance_async_locked();                       // requires baton_mu_
  void fail_baton_locked(std::exception_ptr error);  // requires baton_mu_
  [[nodiscard]] int span_first(int worker) const { return span_[worker]; }
  [[nodiscard]] int span_last(int worker) const {
    return span_[static_cast<std::size_t>(worker) + 1];
  }

  const GangMode mode_;
  const int num_nodes_;
  int num_workers_ = 0;

  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::vector<int> span_;  // worker w owns nodes [span_[w], span_[w+1])
  std::vector<std::unique_ptr<Parker>> parkers_;  // one per worker
  Parker controller_;
  std::vector<std::thread> threads_;

  // Job hand-off: run() bumps job_epoch_ and wakes every worker; each
  // worker picks the job up once and reports back via active_workers_.
  std::atomic<std::uint64_t> job_epoch_{0};
  std::atomic<int> active_workers_{0};
  std::atomic<bool> destroy_{false};
  const NodeFn* node_fn_ = nullptr;
  std::function<std::uint64_t(int)> clock_source_;  // Async-mode scheduling

  // Parallel mode: workers still to arrive at the current phase barrier,
  // and the release epoch (sense counter) parked workers watch. Statuses
  // are plain fields there; they synchronize through these atomics
  // (workers publish with the acq_rel arrival decrement, the controller
  // publishes with the release epoch increment).
  std::atomic<int> phase_remaining_{0};
  std::atomic<std::uint64_t> phase_epoch_{0};
  /// release_parallel_phase() scratch: the workers it wakes (controller
  /// only; reserved up front so no barrier allocates).
  std::vector<int> live_workers_;

  // for_each_node hand-off: the controller publishes task_fn_ with the
  // task_epoch_ bump; each worker w > 0 runs its share once per epoch and
  // counts down task_remaining_ (the last one wakes the controller). Under
  // Baton and Async, task_turn_ passes the share from worker w to w + 1
  // (0 = the caller, running worker 0's share). task_errors_[w] holds the
  // first exception of w's share, which is its lowest-numbered throwing
  // node (shares run in node order).
  const NodeFn* task_fn_ = nullptr;
  std::atomic<std::uint64_t> task_epoch_{0};
  std::atomic<int> task_remaining_{0};
  std::atomic<int> task_turn_{0};
  std::vector<std::exception_ptr> task_errors_;  // [worker]
  /// Set by the controller around barrier_cb; for_each_node's guard.
  std::atomic<bool> in_barrier_cb_{false};
  std::thread::id controller_thread_;  // the caller of run()

  // Baton mode: whose turn it is (kController between phases); turn_ and
  // the node statuses are guarded by baton_mu_ there.
  std::mutex baton_mu_;
  int turn_ = 0;

  std::atomic<bool> shutdown_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::uint64_t barriers_ = 0;
};

}  // namespace updsm::sim
