// Deterministic gang scheduler for simulated DSM nodes.
//
// Each of the N simulated nodes runs on its own Fiber (stackful coroutine),
// so it can block mid-stack in barrier_wait. Three scheduling modes:
//
//  - GangMode::Baton (constructor default): exactly ONE node runs at a
//    time, on the thread that calls run(), and it hands control back only
//    at barriers (or node exit). Each phase resumes the nodes in ascending
//    id order, so every run is bit-deterministic and free of data races by
//    construction -- no atomics or locks are needed anywhere in protocol or
//    application code.
//
//  - GangMode::Async: like the baton, one node at a time on the calling
//    thread, but the next node is the Ready one with the least (virtual
//    clock, id) pair (via set_clock_source), and a node may yield its turn
//    *without* parking at a barrier (async_step). This is a deterministic
//    discrete-event scheduler for barrier-free iteration: replayable and
//    bit-identical, because the event order is a pure function of the
//    virtual clocks. Collectives (barrier_wait) still work and are used for
//    setup/teardown phases.
//
//  - GangMode::Parallel: the node fibers are multiplexed over M workers
//    (M = `workers`, default hardware_concurrency, clamped to [1, N]). The
//    thread that calls run() is worker 0, and a persistent pool holds one
//    thread for each of workers 1..M-1 -- a 1024-node run does not create
//    1024 OS threads, and a one-worker gang creates none. Nodes are
//    assigned to workers in deterministic contiguous blocks
//    (Gang::owner_worker), and between barriers ALL ready nodes run
//    concurrently (up to M at a time, each worker resuming its own nodes in
//    ascending order); once every worker has arrived, the caller runs the
//    barrier callback, and the pool threads run only the per-node shares it
//    fans out through for_each_node. Determinism is preserved by the DSM
//    layer's discipline, not by scheduling: mid-phase code may only (a)
//    read state frozen at the previous barrier, (b) perform commutative
//    accounting (relaxed atomic adds), or (c) append to its own per-node
//    logs, which the barrier callback merges in node order. See
//    docs/SIMULATION.md ("Execution model" and "Host-parallel execution").
//
// The two serial modes spawn no thread and report workers() == 1: one loop
// on the caller resumes the node that one pick function chooses (pick_next:
// lowest Ready id, or least (clock, id)), runs the barrier callback once no
// node is Ready, and runs for_each_node's shares inline in node order. Both
// orders are pure functions of node ids and virtual clocks, so the `workers`
// request cannot change a serial run.
//
// The parallel gang has no global mutex/notify_all herd on the phase
// transitions: every pool thread (and the caller) parks on its own
// cache-line-padded mutex+condvar "parker", phase hand-off goes through an
// atomic arrival counter plus an atomic release epoch (a sense counter),
// and barrier release is O(M) targeted wakes.
//
// Every mode is sound for the protocols under study because they are all
// barrier-synchronous (paper §2.2.1 restricts to barrier-only codes): any
// mid-epoch remote request is serviced against protocol state that was
// *published at the previous barrier* and is therefore frozen while other
// nodes execute their part of the same epoch. Publishing new state happens
// exclusively inside the barrier callback, which runs on the controller
// thread (the caller of run()) while every node is parked.
//
// Workers inside the barrier callback: for_each_node(fn) runs fn(n) for
// every node as its owner worker's share and returns once all shares are
// done -- concurrently under Parallel, one share after another (ascending
// node order) on the caller under Baton and Async. Each share runs on the
// thread of the worker that owns the node, worker 0's on the caller; so
// each node's work, and each per-worker allocation arena, is touched by
// one thread at a time. It is how a protocol runs the node-local part of
// its barrier work (diff capture, release-side application) on all workers
// at once, the way every CVM node does it on its own CPU; the callback
// keeps every cross-node write on the controller, in node order.
//
// Lifecycle:
//   Gang gang(8, GangMode::Parallel, /*workers=*/4);
//   gang.run(node_fn /* void(int node) */,
//            barrier_cb /* void(uint64_t barrier_index) */);
// node_fn calls gang.barrier_wait(node) at each application barrier.
// All nodes must execute identical barrier sequences; a node exiting while
// another still synchronizes is reported as UsageError. Node fibers are
// stamped with their node id (sim::current_exec_node()) in every mode; the
// parallel pool's threads carry sim::current_exec_worker() (1..M-1), while
// the caller, worker 0 included, reports kControllerContext there.
//
// Caveat: a node that busy-waits mid-phase on another node's shared write
// without reaching a barrier starves that node forever under the serial
// gangs, and under Parallel whenever the two share a worker. The DSM
// protocols never do this -- nodes only communicate at barriers -- and
// tests that want mid-phase cross-node spinning must run Parallel with
// workers == N.
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
  Baton,     ///< one node at a time on the caller, ascending id order
  Parallel,  ///< all ready nodes run concurrently between barriers
  Async,     ///< one node at a time on the caller, least virtual clock first
};

[[nodiscard]] const char* to_string(GangMode mode);

class Gang {
 public:
  using NodeFn = std::function<void(int)>;
  using BarrierFn = std::function<void(std::uint64_t)>;

  /// Under Parallel, resolves M = resolve_workers(workers, num_nodes)
  /// workers to multiplex num_nodes fiber contexts and spawns the
  /// persistent pool of M - 1 threads (worker 0 is the caller of run(), so
  /// a one-worker gang spawns none); requests above num_nodes are clamped
  /// with a stderr warning. Baton and Async spawn no thread and ignore the
  /// request: they run every node on the caller of run(). Negative
  /// requests are UsageErrors in every mode. Baton is the default so that
  /// plain `Gang g(n)` keeps the serialized semantics; callers opt into
  /// concurrency explicitly.
  explicit Gang(int num_nodes, GangMode mode = GangMode::Baton,
                int workers = 0);
  ~Gang();

  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  /// Runs `node_fn(i)` for every node to completion, invoking
  /// `barrier_cb(k)` on the controller thread (the caller) at the k-th
  /// global barrier; under Parallel the caller also runs worker 0's nodes.
  /// Rethrows the first exception raised by any node or by the callback;
  /// nodes that had not started by then never run. May be called
  /// repeatedly; the parallel pool is reused.
  void run(const NodeFn& node_fn, const BarrierFn& barrier_cb);

  /// Called from inside node_fn: parks this node at the global barrier and
  /// returns once the barrier callback has completed and this node may run
  /// again (its next turn, or the next phase in parallel mode). Only the
  /// running node may call it, for itself: a call for another node, from
  /// the barrier callback or from a for_each_node share throws
  /// InternalError in every mode.
  void barrier_wait(int node);

  /// Barrier-callback fan-out: runs `fn(n)` once for every node, with
  /// current_exec_node() == n inside the call (restored afterwards). Each
  /// node's share runs on the thread that runs the node: the nodes of
  /// worker w > 0 on that pool thread, worker 0's on the caller. Under
  /// Parallel the shares run concurrently; under Baton and Async, whose
  /// one worker is the caller, one at a time in ascending node order.
  /// Returns once every share has finished; if any fn(n) threw, every
  /// other share still ran and the exception of the lowest such n is
  /// rethrown. Only the
  /// controller may call it, from inside the barrier callback (never from
  /// fn itself); any other call throws UsageError.
  void for_each_node(const NodeFn& fn);

  /// Async mode only, from the running node: yields this node's turn
  /// without parking it at a barrier. The scheduler resumes the Ready node
  /// with the least (clock_source(node), node) pair; when the caller is
  /// still that minimum, the call returns immediately with no fiber switch.
  /// Exactly one node runs at a time, so async runs are as race-free and
  /// as bit-deterministic as the baton.
  void async_step(int node);

  /// Wires the virtual-clock lookup used by Async-mode scheduling; must be
  /// monotone per node between async_step calls. Harmless in other modes.
  void set_clock_source(std::function<std::uint64_t(int)> clock_source) {
    clock_source_ = std::move(clock_source);
  }

  [[nodiscard]] int size() const { return num_nodes_; }

  [[nodiscard]] GangMode mode() const { return mode_; }

  /// Workers of the parallel gang (after auto-detect and clamping), worker
  /// 0 being the caller of run(), so the pool holds workers() - 1 threads;
  /// 1 for Baton and Async, whose one worker is the caller too.
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
  /// num_nodes % workers. Contiguity keeps per-worker node scans
  /// cache-friendly.
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

  /// A pool thread's life: waits for each run()'s job and runs it.
  void worker_main(int worker);
  /// One job on pool worker `worker` (>= 1): run_phase each phase, and
  /// between phases the posted for_each_node shares.
  void run_job_parallel(int worker, std::uint64_t& task_seen);
  /// Parallel: one phase of `worker`'s span, on its pool thread or, for
  /// worker 0, on the caller. Resumes the span's Ready nodes in ascending
  /// order (on shutdown, unwinds them all instead), then arrives at the
  /// phase barrier. Returns whether the span still holds a live node.
  /// noexcept: node errors stay in their fibers, so what could escape (a
  /// failed fiber stack mmap) terminates on the caller as on a pool thread.
  [[nodiscard]] bool run_phase(int worker) noexcept;
  /// Runs fn(n) for every node of `worker`'s span, in node order, keeping
  /// the span's first exception in task_errors_[worker].
  void run_share(int worker);
  /// Runs `worker`'s share of the posted fan-out and reports it done.
  void run_task(int worker, std::uint64_t& task_seen);
  /// barrier_cb(barriers_) with for_each_node enabled.
  void run_barrier_cb(const BarrierFn& barrier_cb);
  [[nodiscard]] bool run_node_fiber(int node);  // true when node finished
  void unwind_owned(int worker);
  void detach_worker();
  void record_failure(std::exception_ptr error);
  /// Called with no node Ready: true when every live node waits at the
  /// barrier, false once every node has finished; a mix (mismatched
  /// barrier counts) throws UsageError.
  [[nodiscard]] bool at_barrier() const;
  /// Counts the barrier and makes every node parked at it Ready again.
  void open_next_phase();
  /// Parallel: the caller's part of the whole run (worker 0's phases and
  /// every barrier callback).
  void controller_parallel(const BarrierFn& barrier_cb);
  [[nodiscard]] bool release_parallel_phase();
  /// Parks the caller on controller_ until `count` reads 0.
  void await_zero(const std::atomic<int>& count);
  /// Baton and Async: the whole run, on the caller.
  void run_serial(const BarrierFn& barrier_cb);
  /// Baton and Async: the node to resume next, or kController when none is
  /// Ready. Baton takes the lowest Ready id (scanning from after + 1, the
  /// node that just ran); Async the least (clock, id) pair.
  [[nodiscard]] int pick_next(int after) const;
  /// Refuses a call for `node` that does not come from that node's own
  /// running fiber.
  void check_running(int node, const char* call) const;
  [[nodiscard]] int span_first(int worker) const { return span_[worker]; }
  [[nodiscard]] int span_last(int worker) const {
    return span_[static_cast<std::size_t>(worker) + 1];
  }

  const GangMode mode_;
  const int num_nodes_;
  int num_workers_ = 0;

  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::vector<int> span_;  // worker w owns nodes [span_[w], span_[w+1])
  /// [worker]: one per pool thread; none for worker 0, the caller of run(),
  /// which parks on controller_.
  std::vector<std::unique_ptr<Parker>> parkers_;
  Parker controller_;
  std::vector<std::thread> threads_;  // workers 1..M-1, in order

  // Job hand-off: run() bumps job_epoch_ and wakes every pool worker; each
  // picks the job up once and reports back via active_workers_.
  std::atomic<std::uint64_t> job_epoch_{0};
  std::atomic<int> active_workers_{0};
  std::atomic<bool> destroy_{false};
  const NodeFn* node_fn_ = nullptr;
  std::function<std::uint64_t(int)> clock_source_;  // Async-mode scheduling

  // Parallel mode: workers still to arrive at the current phase barrier
  // (the caller counts as worker 0 while its span is live), and the release
  // epoch (sense counter) parked pool workers watch. Statuses are plain
  // fields there; they synchronize through these atomics (pool workers
  // publish with the acq_rel arrival decrement, the caller publishes with
  // the release epoch increment).
  std::atomic<int> phase_remaining_{0};
  std::atomic<std::uint64_t> phase_epoch_{0};
  /// release_parallel_phase() scratch: the live workers it counts (caller
  /// only; reserved up front so no barrier allocates).
  std::vector<int> live_workers_;

  // for_each_node hand-off: the controller publishes task_fn_ with the
  // task_epoch_ bump; each worker w > 0 runs its share once per epoch and
  // counts down task_remaining_ (the last one wakes the controller), while
  // the caller runs worker 0's share. task_errors_[w] holds the first
  // exception of w's share, which is its lowest-numbered throwing node
  // (shares run in node order).
  const NodeFn* task_fn_ = nullptr;
  std::atomic<std::uint64_t> task_epoch_{0};
  std::atomic<int> task_remaining_{0};
  std::vector<std::exception_ptr> task_errors_;  // [worker]
  /// Set by the controller around barrier_cb; for_each_node's guard.
  std::atomic<bool> in_barrier_cb_{false};
  std::thread::id controller_thread_;  // the caller of run()

  /// Async: the node async_step picked when it yielded, so the serial loop
  /// resumes it without a second scan (kController when none is pending).
  int next_ = kController;

  std::atomic<bool> shutdown_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::uint64_t barriers_ = 0;
};

}  // namespace updsm::sim
