// Deterministic transport fault injection.
//
// A FaultPlan is the adversarial half of the simulated interconnect: given
// a seed and a declarative FaultSpec, it decides -- per message -- whether
// that message is dropped, delivered twice, or delayed, and whether a node
// transiently stalls after a barrier. The DSM runtime consults the plan on
// every reliable-channel exchange (requests/replies, diff flushes to homes,
// sync and control messages) and reacts with timeout/backoff retries and
// service-side dedup; barrier-time update pushes stay fire-and-forget and
// are healed lazily by the protocols' version indices (paper §2.1.2). The
// plan is the only source of message loss: `kind=flushbatch,drop=p` is how
// a run loses update pushes. Without a plan every message is delivered
// once, on time.
//
// Determinism contract: the decision for the k-th message of a given (kind,
// from, to) triple depends only on (seed, spec, triple, k) -- a stateless
// splitmix64 hash keyed by the triple's private sequence counter. Every
// triple's message sequence is issued in one thread's program order (a
// sender's requests mid-phase, or the controller at barriers), so the
// injected schedule -- and everything downstream -- is bit-identical across
// gang modes and host schedules.
// Node stalls are keyed (node, barrier index) and drawn statelessly.
//
// Concurrency: next() mutates only the counter of the queried triple.
// Distinct triples live in distinct cells, and one triple is only ever
// queried by the thread that issues that traffic (requester threads query
// both directions of their own exchanges; barrier traffic is controller
// only), so no cell is ever written concurrently.
//
// A FaultSpec is parsed from a compact text form (`--faults` reads it from
// the command line or from a file):
//
//   rule[;rule...]
//   rule  := field[,field...]
//   field := kind=<msg-kind|*> | from=<node|*> | to=<node|*> | node=<id|*>
//          | drop=<p> | dup=<p> | delay=<p> | delay_us=<t>
//          | stall=<p> | stall_us=<t>
//
// The first rule matching a message's (kind, from, to) decides its fate;
// omitted filters match anything, so `drop=0.1` alone drops 10% of every
// message the plan governs. Stall probabilities are matched separately
// (first rule with stall > 0 whose node filter matches).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "updsm/common/types.hpp"
#include "updsm/sim/network.hpp"
#include "updsm/sim/time.hpp"

namespace updsm::sim {

/// One declarative injection rule. -1 filters mean "any".
struct FaultRule {
  int kind = -1;  ///< static_cast<int>(MsgKind), or -1 for every kind.
  int from = -1;  ///< sending node, or -1 for any.
  int to = -1;    ///< receiving node (also the stall target), or -1.
  double drop = 0.0;   ///< P(message silently lost)
  double dup = 0.0;    ///< P(message delivered twice)
  double delay = 0.0;  ///< P(message delayed by delay_time)
  SimTime delay_time = usec(200);
  double stall = 0.0;  ///< P(node stalls after a barrier)
  SimTime stall_time = usec(500);

  [[nodiscard]] bool matches(MsgKind k, NodeId f, NodeId t) const {
    return (kind < 0 || kind == static_cast<int>(k)) &&
           (from < 0 || from == static_cast<int>(f.value())) &&
           (to < 0 || to == static_cast<int>(t.value()));
  }

  friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

/// An ordered rule list; empty means "no injection".
struct FaultSpec {
  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }

  /// Parses the grammar above. Throws UsageError on malformed input.
  [[nodiscard]] static FaultSpec parse(std::string_view text);

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// The fate the plan assigned to one message.
struct FaultDecision {
  bool drop = false;       ///< never arrives; the sender must time out
  bool duplicate = false;  ///< arrives twice; receiver must dedup
  SimTime extra_delay = 0; ///< reorder/queueing delay on top of wire time
};

class FaultPlan {
 public:
  /// `num_nodes` sizes the per-triple sequence counters.
  FaultPlan(FaultSpec spec, std::uint64_t seed, int num_nodes);

  /// Decides the fate of the next message of `kind` from `from` to `to`,
  /// advancing that triple's sequence counter. See the header comment for
  /// the determinism and concurrency contract.
  [[nodiscard]] FaultDecision next(MsgKind kind, NodeId from, NodeId to);

  /// Extra stall time for `node` after global barrier `barrier` (0 = no
  /// stall). Stateless: safe from any thread, any number of times.
  [[nodiscard]] SimTime stall(NodeId node, std::uint64_t barrier) const;

 private:
  [[nodiscard]] double draw(std::uint64_t stream, std::uint64_t k,
                            std::uint64_t salt) const;
  [[nodiscard]] const FaultRule* match(MsgKind kind, NodeId from,
                                       NodeId to) const;

  FaultSpec spec_;
  std::uint64_t seed_;
  int num_nodes_;
  std::vector<std::uint64_t> counters_;  // [kind][from][to] sequence numbers
};

}  // namespace updsm::sim
