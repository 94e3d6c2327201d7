// Thread-local identity of the simulated node running on this OS thread.
//
// The gang scheduler stamps the thread that resumes a node fiber -- the
// caller of Gang::run under the baton and async gangs, the node's owner
// worker under the parallel one (the caller for worker 0, a pool thread for
// the others) -- with the node id for as long as the fiber runs, and with n
// inside each for_each_node share; otherwise a thread (the controller
// running barrier callbacks, test main threads, harness grid workers)
// reports kControllerContext. Shared simulator facilities (Network
// stat shards, TraceLog buffers) key their per-node storage off this value
// so call sites need no explicit node argument and cannot pick the wrong
// shard.
#pragma once

namespace updsm::sim {

/// Reported by current_exec_node() on any thread that is not a gang node
/// worker (controller, tests, harness workers).
inline constexpr int kControllerContext = -1;

/// The simulated node whose code is executing on the calling OS thread, or
/// kControllerContext outside node functions.
[[nodiscard]] int current_exec_node();

/// The parallel gang's pool thread this OS thread is (1..workers-1), or
/// kControllerContext on any other thread, the caller of Gang::run
/// included, which is worker 0 of a parallel gang. Unlike
/// current_exec_node, this is a property of the thread itself, not of the
/// fiber it is running; Runtime::stage_flush uses it to check that a node
/// stages only on its owner worker or on the caller.
[[nodiscard]] int current_exec_worker();

namespace detail {
/// Set by Gang around each node fiber resume; pass kControllerContext to
/// clear.
void set_exec_node(int node);
/// Set once by each parallel pool thread at startup.
void set_exec_worker(int worker);
}  // namespace detail

}  // namespace updsm::sim
