// The coherence-protocol interface.
//
// A protocol implements the paper's per-event behaviour. The threading
// contract has two tiers, selected by parallel_safe():
//
//  * read_fault / write_fault run on the faulting node's thread, mid-epoch.
//    Under GangMode::Baton exactly one node runs at a time; under
//    GangMode::Parallel (only if parallel_safe() returns true) several
//    fault handlers run CONCURRENTLY. A parallel-safe handler must
//    therefore (a) base every *decision* on state frozen at the previous
//    barrier, (b) mutate only state logically local to the faulting node,
//    plus commutative accounting (relaxed-atomic counters/copysets) and the
//    node's own deferred-work logs, and (c) copy served page bytes from
//    immutable mid-phase sources (twins, service snapshots, or read-only
//    frames -- runtime.service_mutex() guards the upgrade race). State the
//    handler reads on other nodes was published at the previous barrier and
//    is frozen (LRC legality; see sim/gang.hpp).
//
//  * The barrier hooks run on the controller thread while every node is
//    parked, in globally ordered phases:
//      barrier_begin()    -- (optional) replay per-node deferred-work logs
//                            from the finished phase, in node order, before
//                            any arrival processing;
//      barrier_arrive(n)  -- node n's arrival: capture its modifications
//                            (diff creation, flush staging); must not touch
//                            other nodes' frames;
//      barrier_master()   -- apply queued diffs at homes, bump versions,
//                            aggregate write notices, decide migrations;
//      barrier_release(n) -- (optional, default no-op) serial node-n-side
//                            release work: invalidations, applying received
//                            updates, re-arming write traps, overdrive
//                            pre-twinning;
//      barrier_finish()   -- (optional) release work fanned out, then
//                            refresh barrier-frozen shadow state (e.g.
//                            frozen copysets).
//    The phase split mirrors the real message flow and guarantees that diff
//    creation always reads frames that contain exactly the creator's own
//    epoch modifications.
//
//  * Node-local barrier work may run on the gang workers: from inside
//    barrier_begin() or barrier_finish() a protocol calls
//    Runtime::for_each_node(fn), which runs fn(n) for every node as a
//    share of the worker that owns n (worker 0's on the controller) --
//    concurrently under GangMode::Parallel. Such a
//    share follows the fault handlers' rule (b) strictly: it reads state
//    frozen for the barrier, writes only node n's own state (frames,
//    clock, arena, outbox, per-node logs) plus commutative counters, and
//    emits trace lines only into node n's buffer. Every cross-node write
//    is logged per node and *published* by the serial hook. bar and lmw
//    split arrival this way: barrier_begin() fans the capture out, and
//    barrier_arrive(n) replays node n's log in node order (note_writer,
//    write notices, queued diffs, arrival payload), emitting no trace
//    lines; their release is node-local already, so barrier_finish() fans
//    it out and barrier_release(n) stays the default no-op. Hooks that are
//    themselves serial and node-ordered (async-*, sc-sw) need no split.
//    Either way every barrier effect, counter and trace line is identical
//    in every gang mode and for every worker count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"

namespace updsm::dsm {

class Runtime;

enum class AccessMode { Read, Write };

class CoherenceProtocol {
 public:
  virtual ~CoherenceProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once, after the Runtime is fully constructed and before any
  /// application code runs. Protocols set initial page protections here.
  virtual void init(Runtime& rt) = 0;

  /// Node `n` accessed `page` with insufficient protection. The segv
  /// dispatch cost has already been charged by the MMU layer; the handler
  /// must leave the page readable (read_fault) or writable (write_fault).
  virtual void read_fault(NodeId n, PageId page) = 0;
  virtual void write_fault(NodeId n, PageId page) = 0;

  /// True when the protocol's fault handlers obey the parallel-safety
  /// contract above. The cluster downgrades GangMode::Parallel to Baton for
  /// protocols that return false (e.g. sc-sw, whose fault handlers perform
  /// mid-phase cross-node protection changes and ownership transfers).
  [[nodiscard]] virtual bool parallel_safe() const { return false; }

  /// Runs first at every barrier, before arrival processing: the place to
  /// replay mid-phase per-node logs in deterministic node order.
  virtual void barrier_begin() {}

  virtual void barrier_arrive(NodeId n) = 0;
  virtual void barrier_master() = 0;

  /// Serial per-node release work; a no-op for protocols that fan their
  /// release out from barrier_finish().
  virtual void barrier_release(NodeId n) { (void)n; }

  /// Runs last at every barrier, after every barrier_release: the place to
  /// fan release work out and to refresh shadow copies of state that the
  /// next phase reads mid-phase.
  virtual void barrier_finish() {}

  /// SUIF-style annotation: node `n` is starting the body of a new
  /// time-step iteration. Drives home migration and overdrive learning.
  virtual void iteration_begin(NodeId n, std::uint64_t iteration) {
    (void)n;
    (void)iteration;
  }

  // --- asynchronous stepping (GangMode::Async) ---------------------------
  // Under the async gang there are no mid-run barriers: instead, each node
  // brackets every iteration with a two-phase protocol hook around the
  // scheduler yield. Exactly one node runs at a time (see sim/gang.hpp), so
  // both hooks run with every other node parked and need no locking:
  //
  //   async_publish(n, step, residual)  -- BEFORE the yield: flush node n's
  //     modifications to the homes, bump versions, push/invalidate remote
  //     caches, and feed `residual` to the convergence detector. Returns
  //     true once global convergence has been detected (sticky).
  //   async_refresh(n)                  -- AFTER the yield returns: re-fetch
  //     every cached page whose home version ran ahead of the staleness
  //     bound while n was parked. Because versions only advance while n is
  //     parked, this is exactly the point that enforces the bound.
  //
  // Protocols that do not support barrier-free execution keep the throwing
  // defaults; the cluster additionally rejects gang=Async for them up
  // front (validate_gang_protocol).

  /// Publish node n's writes and its local residual for async step `step`;
  /// returns true when the run has globally converged.
  [[nodiscard]] virtual bool async_publish(NodeId n, std::uint64_t step,
                                           double residual) {
    (void)step;
    (void)residual;
    throw UsageError(std::string("protocol '") + std::string(name()) +
                     "' does not support asynchronous stepping (node " +
                     std::to_string(n.index()) + ")");
  }

  /// Refresh node n's stale cached pages after an async yield.
  virtual void async_refresh(NodeId n) {
    throw UsageError(std::string("protocol '") + std::string(name()) +
                     "' does not support asynchronous stepping (node " +
                     std::to_string(n.index()) + ")");
  }

  /// The global convergence verdict, readable after nodes drain out of
  /// their async loops. A node can exhaust its local sweep backstop while
  /// stragglers are still settling; once every node has drained (i.e. at
  /// the first post-loop barrier) this is the authoritative answer, not
  /// the per-node loop-exit flag. False for protocols without a detector.
  [[nodiscard]] virtual bool async_converged() const { return false; }

  /// Page-sized buffers (twins + service snapshots) currently held live
  /// across all nodes -- i.e. the open loans against the per-worker
  /// arenas' page pools. Simulator introspection for the pool-ownership
  /// property test; protocols without pooled page buffers report 0.
  [[nodiscard]] virtual std::uint64_t live_page_buffers() const { return 0; }
};

}  // namespace updsm::dsm
