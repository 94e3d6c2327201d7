// Per-worker allocation arenas for the host-parallel execution engine.
//
// Before the bounded worker pool, bar.cpp shared one DiffPool across all
// nodes and every TwinStore/DiffStore carried its own private free-list;
// under the parallel gang the shared pool would need a lock on the hottest
// allocation path of every barrier. Instead each gang worker owns one
// PoolArena, and every node's allocations route to the arena of the worker
// that *owns the node* (Gang::owner_worker) -- not whichever thread happens
// to run -- so the routing is deterministic and completely uncontended: no
// pool is ever touched by two threads at once. Mid-phase only the owning
// worker executes a node (worker 0 is the controller, the caller of
// Gang::run); a barrier fan-out (Gang::for_each_node) runs each node's
// share on that same worker; and the controller's serial barrier work runs
// only while no node and no share does (the phase barrier and the
// fan-out's completion count provide the happens-before).
//
// Pool state can never affect simulation results: takers clear or
// fully overwrite recycled buffers (Diff::create_into clears, twin create
// memcpys the whole page), so runs are bit-identical for every worker
// count. The loan counters (takes - recycles) let tests prove arenas never
// leak or cross-serve.
#pragma once

#include "updsm/mem/buffer_pool.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm::dsm {

/// One worker's private pools, padded to a cache line so adjacent arenas
/// never false-share under concurrent mid-phase use.
struct alignas(64) PoolArena {
  /// Diff scratch for every node this worker owns: Runtime::diff_page,
  /// lmw's retained diffs and lmw-u's decoded updates (no other receiver
  /// copies a diff; it applies the delivered view).
  mem::DiffPool diffs{256};
  /// Page-sized buffers: twins and service snapshots.
  mem::BufferPool pages{256};
  /// FlushBatchWriter backing stores, borrowed when a sender opens a
  /// batch for a destination at stage time and returned by
  /// Runtime::recycle_flush_batches once the barrier's release has read
  /// the delivered views -- retained batch capacity is O(active pairs
  /// through bounded pools).
  mem::BufferPool batch_buffers{64};
};

}  // namespace updsm::dsm
