// sc-sw: a canonical sequentially-consistent single-writer invalidate
// protocol (paper §2.1's foil: "sequentially consistent systems require
// processes to gain exclusive access to shared pages before modifying any
// items that reside on the pages").
//
// Not part of the paper's measured set; included as an extra baseline so
// the benches can show *why* multi-writer LRC exists: false sharing makes
// sc-sw ping-pong pages between concurrent writers inside an epoch.
//
// Usage note: sc-sw invalidates pages *mid-epoch* (a remote write fault
// revokes local access immediately). Applications run under sc-sw must use
// element accessors (SharedArray::get/set), never cached views -- a raw
// view span would bypass the revocation. The protocol cannot detect stale
// view usage; the dedicated sc-sw benches honour this contract.
#pragma once

#include <vector>

#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/runtime.hpp"

namespace updsm::protocols {

class ScSwProtocol final : public dsm::CoherenceProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "sc-sw"; }

  void init(dsm::Runtime& rt) override;
  void read_fault(NodeId n, PageId page) override;
  void write_fault(NodeId n, PageId page) override;
  // Deliberately NOT parallel-safe (keeps the base-class `false`): the
  // fault handlers perform mid-phase ownership transfers, cross-node
  // invalidations and protection downgrades -- eager SC semantics cannot
  // be deferred to the barrier. The cluster runs sc-sw under the baton.
  void barrier_arrive(NodeId) override {}
  void barrier_master() override {}

  [[nodiscard]] NodeId owner(PageId p) const { return pages_[p.index()].owner; }

 private:
  struct PageDir {
    NodeId owner{0};     // current exclusive or last writer
    dsm::Copyset holders;  // every node with a valid copy (incl. owner)
  };

  /// Copies the authoritative frame to node n and charges the transfer.
  void transfer(NodeId n, PageId page);

  dsm::Runtime* rt_ = nullptr;
  std::vector<PageDir> pages_;
};

}  // namespace updsm::protocols
