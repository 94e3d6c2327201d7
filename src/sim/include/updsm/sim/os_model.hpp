// Per-node operating-system model.
//
// The paper's central section-4 observation is that the OS, not the network,
// limits DSM performance once updates eliminate remote misses: mprotect and
// segv traffic from write trapping stresses the AIX VM layer, whose
// primitives are "location-dependent, occasionally increasing the cost of
// page protection changes by an order of magnitude". OsModel charges those
// costs and counts every event so that bar-s/bar-m's savings are mechanical
// consequences of the event counts, not hand-tuned outcomes.
#pragma once

#include <cstdint>

#include "updsm/common/atomic_stat.hpp"
#include "updsm/common/types.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/time.hpp"

namespace updsm::sim {

/// Event counters for one node's OS interactions. Relaxed-atomic cells:
/// under the parallel gang a remote requester's thread counts the send/recv
/// pair of the service it charged to this node (the sigio model), racing
/// with the node's own counting; the adds commute.
struct OsCounters {
  Relaxed<std::uint64_t> segvs = 0;
  Relaxed<std::uint64_t> mprotects = 0;
  Relaxed<std::uint64_t> sends = 0;
  Relaxed<std::uint64_t> recvs = 0;
};

/// Computes OS trap costs for one node. Stateless apart from counters;
/// the "location-dependent" mprotect penalty is a pure function of the page
/// id so that identical runs charge identical costs.
class OsModel {
 public:
  OsModel(const OsCosts& costs, std::uint32_t shared_pages);

  /// True when the shared segment is large enough to stress the VM layer.
  [[nodiscard]] bool stressed() const { return stressed_; }

  /// Whether `page` falls in the deterministic slow set.
  [[nodiscard]] bool slow_page(PageId page) const;

  /// Cost of one mprotect call covering `page` (counts the call).
  [[nodiscard]] SimTime mprotect_cost(PageId page);

  /// Cost of dispatching a segv to the user-level handler (counts it).
  [[nodiscard]] SimTime segv_cost();

  /// Extra kernel bookkeeping on the remote-fault path (no counter; it is
  /// part of the fault whose segv was already counted).
  [[nodiscard]] SimTime fault_service_extra() const {
    return costs_.fault_service_extra;
  }

  void count_send() { ++counters_.sends; }
  void count_recv() { ++counters_.recvs; }

  [[nodiscard]] const OsCounters& counters() const { return counters_; }
  [[nodiscard]] const OsCosts& costs() const { return costs_; }

 private:
  OsCosts costs_;
  bool stressed_;
  OsCounters counters_;
};

}  // namespace updsm::sim
