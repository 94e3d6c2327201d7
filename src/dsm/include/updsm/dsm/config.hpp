// Cluster-level configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/race_detector.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/fault_plan.hpp"
#include "updsm/sim/gang.hpp"
#include "updsm/sim/time.hpp"

namespace updsm::dsm {

/// What bar-s / bar-m should do when an *unpredicted* write is trapped while
/// overdrive is active (paper §4.1: "revert to bar-u, or, as in our
/// prototype, complain loudly and exit").
enum class OverdriveFallback {
  Strict,  // throw ProtocolError (the paper's prototype behaviour)
  Revert,  // handle the fault like bar-u and keep going
};

/// Retry bound for the reliable channel under fault injection.
/// Request/reply exchanges and reliable one-way messages (sync, control,
/// diff-to-home flushes) that the FaultPlan drops are retransmitted after a
/// timeout with bounded exponential backoff (2 ms doubling to 16 ms, the
/// kRetry* constants in runtime.cpp); the sender is charged the full
/// timeout as Wait time for every lost attempt. Exhausting max_attempts
/// throws ProtocolError (only reachable with drop probabilities near 1).
struct RetryPolicy {
  int max_attempts = 25;
};

struct ClusterConfig {
  /// Number of DSM nodes. The paper's testbed is an 8-node SP-2.
  int num_nodes = 8;
  /// Protection granularity; the paper used 8 KB on AIX (§3.2).
  std::uint32_t page_size = 8192;
  /// Calibrated platform model (§3.2 micro-benchmarks). Authoritative --
  /// every cost charged comes from here. `net_profile` below records which
  /// named profile it was built from.
  sim::CostModel costs = sim::CostModel::sp2_defaults();
  /// Named base profile `costs` was derived from ("sp2" | "rdma"), recorded
  /// so benches can stamp provenance into BENCH_*.json. The CLIs set both:
  /// `costs = sim::CostModel::from_profile(net_profile)` plus any --cost
  /// overrides. Changing this string alone does NOT change the costs.
  std::string net_profile = "sp2";
  /// Unused: nothing in the simulator reads it. Message loss comes from
  /// `faults` (seeded by `fault_seed`) and app datasets draw from
  /// AppParams::seed. Kept because perfbench/bench.cpp still assigns it.
  std::uint64_t seed = 0x1998'0330;
  /// Intra-run node scheduling. Parallel runs all ready nodes concurrently
  /// between barriers (results are bit-identical to Baton -- a ctest pins
  /// it); the cluster silently downgrades to Baton for protocols whose
  /// fault handlers are not parallel-safe (sc-sw).
  sim::GangMode gang = sim::GangMode::Parallel;
  /// OS threads the parallel gang multiplexes the node contexts over.
  /// 0 = auto (hardware concurrency); values above num_nodes are clamped
  /// with a warning. Results are bit-identical for every worker count --
  /// only host wall-clock changes. `--workers` on the tools.
  int workers = 0;

  // --- large-cluster topology ---------------------------------------------
  /// Barrier topology: 0 = the paper's flat master barrier (every slave
  /// messages node 0 directly; it runs as the one-level tree of fanout
  /// max(N-1, 2)); k >= 2 = a k-ary reduction/broadcast tree in heap
  /// layout (children of i are k*i+1 .. k*i+k), charging
  /// barrier_master_per_node per tree hop instead of N times on the master.
  /// Results are bit-identical to flat -- only simulated times and the
  /// per-pair message census differ; a conformance test pins it.
  /// `--fanout` on the tools.
  int barrier_fanout = 0;
  /// Relayed multicast flush dissemination: when a producer's sealed
  /// unreliable FlushBatches for one barrier target more than this many
  /// distinct destinations, they travel as one FlushRelay message up/down a
  /// deterministic 4-ary dissemination tree (kRelayFanout in runtime.cpp;
  /// intermediate nodes forward the zero-copy wire bytes unmodified)
  /// instead of N unicasts.
  /// 0 disables relaying. Reliable batches (diffs to home) always stay
  /// unicast. Results are bit-identical either way; a dropped relay loses
  /// the whole subtree and heals through the usual recovery.
  /// `--relay-threshold` on the tools.
  int relay_threshold = 0;

  // --- fault injection ----------------------------------------------------
  /// Adversarial transport behaviour (see sim/fault_plan.hpp). Empty = the
  /// perfect network. Lost update pushes are a plan like
  /// `kind=flushbatch,drop=0.1`.
  sim::FaultSpec faults;
  /// Seed for the fault plan's decision streams, so a fault schedule can be
  /// varied while the app's dataset stays fixed.
  std::uint64_t fault_seed = 0;
  /// Reliable-channel retry behaviour when `faults` is non-empty.
  RetryPolicy retry;

  // --- home-based protocol options (bar-*) -------------------------------
  /// Runtime home migration after the first iteration (§2.2.1, third
  /// extension). Disabling reverts to static homes -- ablation X4.
  bool home_migration = true;
  /// Zhou-style user ANNOTATIONS (the alternative the paper's migration
  /// replaces, §2.2.1): an explicit home node per page. Empty = the
  /// default block distribution. Entries beyond the segment are ignored;
  /// a short vector leaves the remaining pages block-distributed.
  std::vector<std::uint32_t> static_homes;

  // --- overdrive options (bar-s / bar-m) ---------------------------------
  OverdriveFallback overdrive_fallback = OverdriveFallback::Strict;
  /// Sliding-window length, in touched epochs per page, of the adaptive
  /// protocol's history (writers, diff bytes, consumers). A page's delivery
  /// mode is re-evaluated at each barrier it was written in, and overdrive
  /// needs a full window of identical writer sets before it is considered.
  int adaptive_window = 4;
  /// Test-only: bar-m scans writable-but-unpredicted pages at each barrier
  /// to *detect* silent divergence (the paper's bar-m is "not guaranteed to
  /// maintain consistency"; the audit makes that observable in tests).
  bool overdrive_audit = false;

  // --- asynchronous iteration (gang=Async, async-u / async-i) -------------
  /// Bounded-staleness window for the async protocols: after yielding its
  /// turn, a node refreshes every cached page whose home version has
  /// advanced by MORE than this many publishes since the cached copy. 0 =
  /// always-fresh reads (refetch on any newer version); larger values trade
  /// refresh traffic for staler reads. `--staleness` on the tools.
  int staleness_bound = 4;
  /// Residual tolerance the async detector settles against. Apps use the
  /// same value to pick their own drain criterion, so sync and async runs
  /// of a workload converge to the same residual. `--tolerance` on the
  /// tools.
  double async_tolerance = 1e-6;

  // --- debugging tools ----------------------------------------------------
  /// Byte-granularity data-race detection (paper §5.2's companion tool):
  /// reports same-epoch conflicting accesses at each barrier. Off by
  /// default (zero overhead).
  RaceCheck race_check = RaceCheck::Off;
  /// Protocol event tracing (see dsm/trace.hpp). Off by default.
  bool trace = false;

  // --- lmw options --------------------------------------------------------
  /// Garbage-collection threshold for retained diff bytes in homeless
  /// protocols (paper §2.2: diffs "can not be discarded until explicitly
  /// garbage-collected"). 0 disables GC.
  std::uint64_t lmw_gc_threshold_bytes = 64ULL << 20;
};

/// Friendly front-door validation shared by Runtime and the CLIs, so an
/// out-of-range cluster size fails at parse time with a usable message
/// instead of tripping a check deep inside the copyset bitmap.
inline void validate_cluster_config(const ClusterConfig& config) {
  if (config.num_nodes < 1 ||
      config.num_nodes > static_cast<int>(kMaxNodes)) {
    throw UsageError("num_nodes must be between 1 and " +
                     std::to_string(kMaxNodes) + ", got " +
                     std::to_string(config.num_nodes));
  }
  if (config.page_size < 64 ||
      (config.page_size & (config.page_size - 1)) != 0) {
    throw UsageError("page_size must be a power of two >= 64, got " +
                     std::to_string(config.page_size));
  }
  if (config.workers < 0) {
    throw UsageError("workers must be >= 1 (or 0 for auto), got " +
                     std::to_string(config.workers));
  }
  if (config.barrier_fanout != 0 && config.barrier_fanout < 2) {
    throw UsageError(
        "barrier_fanout must be 0 (flat) or >= 2 (k-ary tree), got " +
        std::to_string(config.barrier_fanout));
  }
  if (config.relay_threshold < 0) {
    throw UsageError("relay_threshold must be >= 0 (0 = off), got " +
                     std::to_string(config.relay_threshold));
  }
  if (!sim::CostModel::known_profile(config.net_profile)) {
    throw UsageError("unknown net profile: '" + config.net_profile +
                     "' (valid: sp2, rdma)");
  }
  if (config.adaptive_window < 2 || config.adaptive_window > 64) {
    throw UsageError("adaptive_window must be between 2 and 64, got " +
                     std::to_string(config.adaptive_window));
  }
  if (config.staleness_bound < 0) {
    throw UsageError("staleness_bound must be >= 0 (0 = always fresh), got " +
                     std::to_string(config.staleness_bound));
  }
  if (!(config.async_tolerance > 0.0)) {
    throw UsageError("async_tolerance must be > 0, got " +
                     std::to_string(config.async_tolerance));
  }
}

/// Gang/protocol compatibility check, shared by the CLIs and the cluster
/// constructor: the async gang hands turns to exactly one node at a time,
/// but its yield points interleave *mid-iteration* protocol work, so it
/// requires a protocol whose handlers follow the parallel-safe discipline.
/// `parallel_safe` comes from the protocol object (config.hpp cannot see
/// CoherenceProtocol); `protocol_name` makes the message friendly.
inline void validate_gang_protocol(sim::GangMode gang, bool parallel_safe,
                                   const std::string& protocol_name) {
  if (gang == sim::GangMode::Async && !parallel_safe) {
    throw UsageError("--gang=async is not supported with protocol '" +
                     protocol_name +
                     "' (its handlers are not parallel-safe); pick a "
                     "parallel-safe protocol or --gang=baton/parallel");
  }
}

}  // namespace updsm::dsm
