// Protocol event tracing.
//
// When ClusterConfig::trace is set, every externally visible protocol
// action -- faults, protection changes, request/reply exchanges, flushes,
// barriers -- is appended to a TraceLog as one compact text line. Because
// runs are bit-deterministic, a trace is a complete behavioural fingerprint
// of a protocol on a scenario: the golden tests in tests/trace_test.cpp pin
// entire event sequences, so any unintended protocol change shows up as a
// readable diff.
//
// Line grammar (space-separated, stable):
//   barrier <k>                 global barrier k completed
//   fault r|w n<node> p<page>   read/write segv on a page
//   mprot n<node> p<page> none|r|rw
//   req n<from>>n<to> <req>B <reply>B     request/reply pair
//   flush n<from>>n<to> <bytes>B [drop]   one-off unreliable flush outside
//                                 the barrier batches (drop = lost);
//                                 summing <bytes> (+ header per line)
//                                 reconciles with NetworkStats' Flush
//                                 counter
//   flushbatch n<from>>n<to> <records>r <bytes>B [drop]
//                                 aggregated per-destination flush batch;
//                                 <records> page records, <bytes> the whole
//                                 sealed batch (batch + record headers
//                                 count as payload)
//   ctl n<from>>n<to> <bytes>B            control message
//
// Fault-injection events (only with a non-empty ClusterConfig::faults; the
// no-fault trace is byte-identical to the pre-fault-injection grammar):
//   retry <kind> n<from>>n<to>    reliable message lost; sender timed out
//                                 and retransmitted (kind per
//                                 sim::to_string(MsgKind))
//   dup <kind> n<from>>n<to>      duplicate delivery suppressed by the
//                                 receiver's idempotent handling
//   stall n<node> <t>ns           transient node stall injected after a
//                                 barrier release
//
// Concurrency: under the parallel gang, lines emitted mid-phase go to a
// private per-node buffer (keyed by sim::current_exec_node(), no locking),
// and the cluster flushes the buffers in node order at each barrier and at
// run end. Since every mid-phase line is emitted by the acting node's own
// thread, the flushed order -- node 0's phase events, then node 1's, ... --
// is exactly the order the serializing baton produced, so golden traces are
// identical across gang modes. Barrier work fanned out to the workers
// (Runtime::for_each_node) runs with the share's node as exec node, so its
// lines land in the same per-node buffers, and the fan-out flushes them in
// node order before the controller's next line: the order a node-ordered
// serial loop emits. Controller-context lines (the rest of the barrier
// work) append directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "updsm/sim/exec_context.hpp"

namespace updsm::dsm {

class TraceLog {
 public:
  /// `num_nodes` sizes the per-node mid-phase buffers; the default keeps
  /// the log a plain single-threaded line vector (tests, tools).
  explicit TraceLog(int num_nodes = 0)
      : buffers_(static_cast<std::size_t>(num_nodes)) {}

  void emit(std::string line) {
    const int exec = sim::current_exec_node();
    if (exec >= 0 && static_cast<std::size_t>(exec) < buffers_.size()) {
      buffers_[static_cast<std::size_t>(exec)].push_back(std::move(line));
    } else {
      lines_.push_back(std::move(line));
    }
  }

  /// Appends each node's buffered mid-phase lines, in node order, to the
  /// main log. Controller context only (all nodes parked).
  void flush_node_buffers() {
    for (auto& buf : buffers_) {
      for (auto& line : buf) lines_.push_back(std::move(line));
      buf.clear();
    }
  }

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  [[nodiscard]] std::size_t size() const { return lines_.size(); }
  void clear() {
    lines_.clear();
    for (auto& buf : buffers_) buf.clear();
  }

  /// Joins all lines with '\n' (golden-test comparison form).
  [[nodiscard]] std::string str() const {
    std::string out;
    for (const auto& line : lines_) {
      out += line;
      out += '\n';
    }
    return out;
  }

 private:
  std::vector<std::string> lines_;
  std::vector<std::vector<std::string>> buffers_;
};

}  // namespace updsm::dsm
