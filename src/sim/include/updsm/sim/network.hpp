// Simulated interconnect: cost computation + message/data accounting.
//
// The network never moves bytes itself (protocol state lives in one address
// space); it is the single point through which every cross-node transfer
// must be *recorded*, so that Table 1's "Messages" and "Data" columns are a
// mechanical census of protocol behaviour. Costs follow NetworkCosts.
//
// Message conventions (matching the paper's counting, §3.3/Table 1):
//  * a miss costs a request/response *pair*; the table's "Messages" column
//    counts requests and flushes ("there are an equal number of replies"),
//    so replies are recorded with `counts_in_table = false`;
//  * a flush/update is a single unreliable message (no ack, droppable);
//  * barrier arrivals and releases are synchronization messages and count.
//
// Concurrency (parallel gang): accounting is sharded per executing thread.
// record() writes to the shard of sim::current_exec_node() (one private
// shard per node, plus one for the controller), so concurrent mid-phase
// node code never touches a shared counter. stats() sums the shards into a
// cached aggregate; because every field is a sum, the merged result is
// identical whatever order the nodes ran in. stats()/reset_stats() must be
// called only while no node is mid-phase (controller context: barriers,
// before/after runs) -- exactly where all existing callers sit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "updsm/common/types.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/time.hpp"

namespace updsm::sim {

enum class MsgKind : int {
  DataRequest = 0,   // diff request (lmw) or page request (bar)
  DataReply = 1,     // the corresponding reply
  Flush = 2,         // one-off unreliable push (async residual report)
  SyncArrive = 3,    // barrier arrival at the master
  SyncRelease = 4,   // barrier release from the master
  Control = 5,       // async-i's 16-byte invalidations
  FlushBatch = 6,    // aggregated per-destination flush (many page records)
  FlushRelay = 7,    // batches forwarded along the dissemination tree
};
inline constexpr std::size_t kMsgKindCount = 8;

[[nodiscard]] constexpr const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::DataRequest:
      return "data-request";
    case MsgKind::DataReply:
      return "data-reply";
    case MsgKind::Flush:
      return "flush";
    case MsgKind::SyncArrive:
      return "sync-arrive";
    case MsgKind::SyncRelease:
      return "sync-release";
    case MsgKind::Control:
      return "control";
    case MsgKind::FlushBatch:
      return "flushbatch";
    case MsgKind::FlushRelay:
      return "flush-relay";
  }
  return "?";
}

struct MsgCounter {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;    // payload + header
  std::uint64_t dropped = 0;  // sent (counted above) but never delivered
  std::uint64_t records = 0;  // page records carried (batched kinds only)
};

/// Aggregate traffic statistics for a run.
struct NetworkStats {
  std::array<MsgCounter, kMsgKindCount> by_kind{};
  std::uint64_t injected_dups = 0;    // fault-injected duplicate deliveries
  std::uint64_t injected_delays = 0;  // fault-injected extra-delay events

  [[nodiscard]] const MsgCounter& of(MsgKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }

  /// Table-1 "Messages": requests + flushes + sync messages (replies are
  /// implied by requests and not double-counted, per the paper's caption).
  /// An aggregated FlushBatch is one message however many records it packs.
  [[nodiscard]] std::uint64_t table_messages() const {
    return of(MsgKind::DataRequest).count + of(MsgKind::Flush).count +
           of(MsgKind::FlushBatch).count + of(MsgKind::FlushRelay).count +
           of(MsgKind::SyncArrive).count + of(MsgKind::SyncRelease).count +
           of(MsgKind::Control).count;
  }

  /// Flush-class messages: one-off flushes plus aggregated batches plus
  /// tree-relayed batch hops. Barrier flushes are ~one per (sender,
  /// destination) pair per barrier; with relaying they drop to ~one per
  /// dissemination-tree edge.
  [[nodiscard]] std::uint64_t flush_class_messages() const {
    return of(MsgKind::Flush).count + of(MsgKind::FlushBatch).count +
           of(MsgKind::FlushRelay).count;
  }

  /// Flush-class page records: each one-off flush carries one, a batch
  /// carries `records`. Relayed batches note their records once, under
  /// FlushRelay, however many tree hops the bytes traverse, so the census
  /// is invariant under relaying.
  [[nodiscard]] std::uint64_t flush_class_records() const {
    return of(MsgKind::Flush).count + of(MsgKind::FlushBatch).records +
           of(MsgKind::FlushRelay).records;
  }

  /// Table-1 "Data (kbytes)": every byte that crossed the wire.
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& c : by_kind) sum += c.bytes;
    return sum;
  }

  [[nodiscard]] std::uint64_t total_one_way_messages() const {
    std::uint64_t sum = 0;
    for (const auto& c : by_kind) sum += c.count;
    return sum;
  }

  /// Every message the fault plan lost in transit, whatever its kind.
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t sum = 0;
    for (const auto& c : by_kind) sum += c.dropped;
    return sum;
  }
};

/// The cluster-wide interconnect.
class Network {
 public:
  /// `num_nodes` sizes the per-thread stat shards; accounting from node i
  /// lands in shard i+1, everything else (controller, tests) in shard 0.
  explicit Network(const NetworkCosts& costs, int num_nodes = 1);

  /// Records one message of `kind` with `payload_bytes` of payload and
  /// returns its one-way wire time. Self-sends (from == to) are free and
  /// unrecorded: a node never talks to itself over the switch. Thread-safe
  /// under the parallel gang: writes only the calling thread's shard.
  SimTime record(MsgKind kind, NodeId from, NodeId to,
                 std::uint64_t payload_bytes);

  /// Accounts `records` page records carried by a message of `kind` (called
  /// once per batch, not per transmission attempt, so retries never inflate
  /// the record census). Thread-safe like record().
  void note_records(MsgKind kind, std::uint64_t records);

  /// Marks the last recorded message of `kind` as lost in transit (it was
  /// sent, so record() already counted it). Thread-safe like record().
  void record_drop(MsgKind kind);
  /// Accounts one fault-injected duplicate delivery. The duplicate copy
  /// itself should also be record()ed -- it crossed the wire.
  void note_dup();
  /// Accounts one fault-injected extra-delay event.
  void note_delay();

  /// Sums the per-thread shards. Controller context only (no node mid-phase).
  [[nodiscard]] const NetworkStats& stats() const;
  [[nodiscard]] const NetworkCosts& costs() const { return costs_; }

  /// Clears statistics at the start of the measurement window.
  /// Controller context only.
  void reset_stats();

 private:
  /// One cache line per shard so concurrent nodes never false-share.
  struct alignas(64) Shard {
    NetworkStats stats;
  };

  [[nodiscard]] Shard& my_shard();

  NetworkCosts costs_;
  std::vector<Shard> shards_;    // [0]=controller, [i+1]=node i
  mutable NetworkStats merged_;  // scratch for stats(); controller-only
};

}  // namespace updsm::sim
