// Protocol event counters: the raw material for Table 1 and Figures 2-4.
//
// Counters are cluster-wide sums (the paper reports per-run totals).
// Network message/byte statistics live in sim::NetworkStats; time breakdowns
// in the per-node sim::VirtualClock.
//
// Fields are relaxed-atomic cells (common/atomic_stat.hpp): under the
// parallel gang, concurrent fault handlers bump the same cluster-wide
// counters mid-phase, and integer adds commute so totals stay bit-exact in
// any schedule. The struct keeps value semantics (snapshots, += merging).
#pragma once

#include <cstdint>

#include "updsm/common/atomic_stat.hpp"

namespace updsm::dsm {

struct ProtocolCounters {
  using Cell = Relaxed<std::uint64_t>;
  /// Diffs created (Table 1, "Diffs"). Includes zero-length diffs created
  /// speculatively by bar-s/bar-m only in `zero_diffs`, not here, matching
  /// the paper's accounting of real modifications.
  Cell diffs_created = 0;
  /// Speculative diffs that turned out empty (bar-s/bar-m pure overhead).
  Cell zero_diffs = 0;
  /// Remote misses: page faults whose service required network traffic
  /// (Table 1, "Remote Misses"). lmw-u faults satisfied entirely from
  /// locally stored updates do NOT count (paper §3.3).
  Cell remote_misses = 0;
  /// All faults, including locally satisfiable ones.
  Cell read_faults = 0;
  Cell write_faults = 0;
  /// Twins created (including ahead-of-time twins in overdrive).
  Cell twins_created = 0;
  /// Update (flush) messages carrying diffs that were sent / received /
  /// stored-for-later (lmw-u) / applied-at-barrier (bar-u).
  Cell updates_sent = 0;
  Cell updates_received = 0;
  Cell updates_stored = 0;
  Cell updates_applied = 0;
  /// Updates discarded because the receiver's copy was not current.
  Cell updates_ignored = 0;
  /// Whole pages fetched from homes (bar-*) or full fetches in sc-sw.
  Cell pages_fetched = 0;
  /// Home reassignments performed by the runtime migration pass.
  Cell migrations = 0;
  /// Peak bytes of retained (not-yet-garbage-collected) diffs -- the
  /// homeless protocols' "voracious appetite for memory".
  Cell retained_diff_bytes_peak = 0;
  /// Homeless-protocol garbage collections triggered.
  Cell gc_rounds = 0;
  /// Unpredicted writes trapped during overdrive (bar-s/bar-m fallback).
  Cell overdrive_mispredictions = 0;
  /// Pages that entered the private fast path: lmw single-writer mode /
  /// bar home-untracked mode (no per-epoch trapping while private).
  Cell private_entries = 0;
  /// Private pages pulled back into normal coherence by a remote access.
  Cell private_exits = 0;
  /// Reliable-channel retransmissions triggered by fault-injected drops
  /// (one per resend; a message lost k times retries k times).
  Cell reliable_retries = 0;
  /// Duplicate deliveries suppressed by idempotent service-side handling
  /// (retransmissions arriving after the original plus injected dups).
  Cell dup_suppressed = 0;
  /// Recovery work attributable to a lost unreliable update push: a bar-*
  /// barrier invalidation of an otherwise-current copy, or an lmw-u fetch
  /// for a page whose update should have been stored locally.
  Cell recovery_faults = 0;
  /// Transient node stalls injected between barriers by the fault plan.
  Cell node_stalls = 0;
  /// Aggregated FlushBatch messages sealed and transmitted (one per
  /// non-empty (sender, destination) pair per barrier).
  Cell flush_batches = 0;
  /// Page records carried by those batches (sum; mean = records / batches).
  Cell flush_batch_records = 0;
  /// Largest / smallest record count observed in one batch (min is 0 until
  /// the first batch seals; merged by max/min, not summed).
  Cell flush_batch_records_max = 0;
  Cell flush_batch_records_min = 0;
  /// Network header bytes saved by aggregation: (records - 1) * header per
  /// batch -- the headers one message per page record would have paid.
  Cell flush_batch_header_bytes_saved = 0;
  /// Sealed batches that travelled the dissemination tree instead of being
  /// unicast (sender crossed relay_threshold distinct destinations).
  Cell relay_batches = 0;
  /// FlushRelay tree-hop messages actually sent (each may carry many
  /// batches as segments).
  Cell relay_messages = 0;
  /// Total bytes forwarded along tree hops (segment bytes + per-segment
  /// relay headers, summed over every hop traversed).
  Cell relay_forwarded_bytes = 0;
  /// Dropped relay hops: each loses every segment aboard (the destination
  /// subtree heals through the usual per-record recovery).
  Cell relay_subtree_losses = 0;
  /// Adaptive protocol: per-page delivery-mode changes applied at barrier
  /// sequence points (invalidate <-> update <-> overdrive).
  Cell adaptive_switches = 0;
  /// Adaptive protocol: history samples evicted from full per-page sliding
  /// windows (window pressure; 0 means every page's history fit).
  Cell adaptive_window_evictions = 0;
  /// Barrier-free iteration boundaries executed (gang=async; one per
  /// node-iteration, the async analogue of node-barriers).
  Cell async_steps = 0;
  /// Pages refetched by the async staleness refresh (cached copy lagged
  /// the home version by more than the staleness bound).
  Cell async_refreshes = 0;
  /// Cached copies invalidated by async-i publishes.
  Cell async_invalidations = 0;
  /// Times a node blocked on the bounded-asynchrony throttle
  /// (ClusterConfig::async_max_lead) waiting for a straggler to catch up.
  Cell async_throttles = 0;

  ProtocolCounters& operator+=(const ProtocolCounters& o) {
    diffs_created += o.diffs_created;
    zero_diffs += o.zero_diffs;
    remote_misses += o.remote_misses;
    read_faults += o.read_faults;
    write_faults += o.write_faults;
    twins_created += o.twins_created;
    updates_sent += o.updates_sent;
    updates_received += o.updates_received;
    updates_stored += o.updates_stored;
    updates_applied += o.updates_applied;
    updates_ignored += o.updates_ignored;
    pages_fetched += o.pages_fetched;
    migrations += o.migrations;
    retained_diff_bytes_peak =
        retained_diff_bytes_peak > o.retained_diff_bytes_peak
            ? retained_diff_bytes_peak
            : o.retained_diff_bytes_peak;
    gc_rounds += o.gc_rounds;
    overdrive_mispredictions += o.overdrive_mispredictions;
    private_entries += o.private_entries;
    private_exits += o.private_exits;
    reliable_retries += o.reliable_retries;
    dup_suppressed += o.dup_suppressed;
    recovery_faults += o.recovery_faults;
    node_stalls += o.node_stalls;
    flush_batches += o.flush_batches;
    flush_batch_records += o.flush_batch_records;
    flush_batch_records_max = flush_batch_records_max > o.flush_batch_records_max
                                  ? flush_batch_records_max
                                  : o.flush_batch_records_max;
    if (flush_batch_records_min.load() == 0 ||
        (o.flush_batch_records_min.load() != 0 &&
         o.flush_batch_records_min < flush_batch_records_min)) {
      flush_batch_records_min = o.flush_batch_records_min;
    }
    flush_batch_header_bytes_saved += o.flush_batch_header_bytes_saved;
    relay_batches += o.relay_batches;
    relay_messages += o.relay_messages;
    relay_forwarded_bytes += o.relay_forwarded_bytes;
    relay_subtree_losses += o.relay_subtree_losses;
    adaptive_switches += o.adaptive_switches;
    adaptive_window_evictions += o.adaptive_window_evictions;
    async_steps += o.async_steps;
    async_refreshes += o.async_refreshes;
    async_invalidations += o.async_invalidations;
    async_throttles += o.async_throttles;
    return *this;
  }
};

}  // namespace updsm::dsm
