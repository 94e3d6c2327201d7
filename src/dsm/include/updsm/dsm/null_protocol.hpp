// NullProtocol: the sequential baseline's "protocol".
//
// The paper computes speedups "with reference to a single-process version
// of the same program with all synchronization macros nulled out" (§3.1).
// NullProtocol realises exactly that: every page is mapped read-write from
// the start, no faults can occur, and barrier hooks are empty (on a 1-node
// cluster no sync messages exist either), so a 1-node run under it charges
// pure application compute time.
#pragma once

#include "updsm/dsm/protocol.hpp"
#include "updsm/dsm/runtime.hpp"

namespace updsm::dsm {

class NullProtocol final : public CoherenceProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "null"; }

  void init(Runtime& rt) override {
    // Frames are node-private: with no coherence actions, a multi-node run
    // would silently diverge. The null protocol is single-node by design.
    UPDSM_REQUIRE(rt.num_nodes() == 1,
                  "NullProtocol is the 1-node sequential baseline; got "
                      << rt.num_nodes() << " nodes");
    for (int i = 0; i < rt.num_nodes(); ++i) {
      const NodeId n{static_cast<std::uint32_t>(i)};
      for (std::uint32_t p = 0; p < rt.num_pages(); ++p) {
        rt.table(n).set_prot(PageId{p}, mem::Protect::ReadWrite);
      }
    }
  }

  void read_fault(NodeId, PageId) override {
    throw InternalError("NullProtocol cannot fault");
  }
  void write_fault(NodeId, PageId) override {
    throw InternalError("NullProtocol cannot fault");
  }
  // Trivially parallel-safe: no faults, no shared protocol state (and only
  // one node anyway).
  [[nodiscard]] bool parallel_safe() const override { return true; }
  void barrier_arrive(NodeId) override {}
  void barrier_master() override {}
};

}  // namespace updsm::dsm
