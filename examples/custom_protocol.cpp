// custom_protocol: extending the library with your own coherence protocol.
//
// Implements, outside the library, the classic EAGER update protocol of
// Munin's "write-shared" class: every node keeps every page valid; at each
// barrier, each node's diffs are broadcast to ALL other nodes and applied
// during the release. It is the natural strawman the paper's lazy
// protocols improve on -- correct, simple, and communication-hungry.
//
// It is built the way the library's own protocols are: the Runtime creates
// and prices every twin and diff (create_twin, diff_page,
// charge_diff_apply), and each receiver applies a diff straight from the
// sealed flush batch that delivered it (a FlushRecordView, valid until the
// barrier ends), with no decoded copy.
//
// The example runs the same stencil under eager-broadcast, lmw-u and
// bar-u, validates all three against sequential execution, and prints the
// traffic each one needed.
//
//   $ ./custom_protocol
#include <cstdio>
#include <vector>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/flush_batch.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/mem/diff.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/protocols/factory.hpp"

namespace {

using namespace updsm;

/// Munin-style eager write-shared protocol in ~70 lines: everything a
/// protocol needs is the CoherenceProtocol interface plus the Runtime's
/// DSM primitives (twins, diffs, flush staging) and charging helpers.
class EagerBroadcastProtocol final : public dsm::CoherenceProtocol {
 public:
  std::string_view name() const override { return "eager-bcast"; }

  void init(dsm::Runtime& rt) override {
    rt_ = &rt;
    twins_.resize(static_cast<std::size_t>(rt.num_nodes()));
    inbox_.resize(static_cast<std::size_t>(rt.num_nodes()));
    // Everyone starts with a valid, write-protected copy of everything;
    // twin buffers come from the node's arena.
    for (int i = 0; i < rt.num_nodes(); ++i) {
      const NodeId n{static_cast<std::uint32_t>(i)};
      rt.table(n).set_all_prot(mem::Protect::Read);
      twins_[n.index()].bind_pool(&rt.arena_for_node(n).pages);
    }
  }

  void read_fault(NodeId, PageId) override {
    // Pages are never invalidated: a read fault is impossible.
    throw InternalError("eager-bcast pages are always valid");
  }

  void write_fault(NodeId n, PageId page) override {
    rt_->create_twin(n, twins_[n.index()], page);
    rt_->mprotect(n, page, mem::Protect::ReadWrite);
  }

  void barrier_arrive(NodeId n) override {
    auto& twins = twins_[n.index()];
    for (const PageId page : twins.pages_sorted()) {
      mem::Diff diff = rt_->diff_page(n, twins, page);
      twins.discard(page);
      rt_->mprotect(n, page, mem::Protect::Read);  // re-arm the trap
      if (!diff.empty()) {
        // The eager part: one flush to EVERY other node, unconditionally.
        // Staged records ride the barrier's per-destination batches,
        // reliably; each delivery hands the receiver a view of its record.
        for (int i = 0; i < rt_->num_nodes(); ++i) {
          const NodeId to{static_cast<std::uint32_t>(i)};
          if (to == n) continue;
          ++rt_->counters().updates_sent;
          rt_->stage_flush(n, to, page, n, diff, /*reliable=*/true,
                           [this, to](const dsm::FlushRecordView& rec) {
                             inbox_[to.index()].push_back(rec);
                           });
        }
      }
      // The staged records carry their own copies of the bytes.
      rt_->arena_for_node(n).diffs.recycle(std::move(diff));
    }
  }

  void barrier_master() override {}

  void barrier_release(NodeId n) override {
    // Apply every foreign diff straight from its sealed batch (the views
    // stay valid until the barrier ends): each replica stays fully current.
    for (const dsm::FlushRecordView& rec : inbox_[n.index()]) {
      const bool writable =
          rt_->table(n).prot(rec.page) == mem::Protect::ReadWrite;
      if (!writable) rt_->mprotect(n, rec.page, mem::Protect::ReadWrite);
      rec.apply(rt_->table(n).frame(rec.page));
      rt_->charge_diff_apply(n, rec.payload.size());
      if (!writable) rt_->mprotect(n, rec.page, mem::Protect::Read);
      ++rt_->counters().updates_applied;
    }
    inbox_[n.index()].clear();  // diffs die at the barrier, as in home-based
  }

 private:
  dsm::Runtime* rt_ = nullptr;
  std::vector<dsm::TwinStore> twins_;
  std::vector<std::vector<dsm::FlushRecordView>> inbox_;  // [receiver]
};

struct Outcome {
  double checksum = 0;
  sim::SimTime elapsed = 0;
  std::uint64_t data_kb = 0;
  std::uint64_t messages = 0;
};

Outcome run_stencil(std::unique_ptr<dsm::CoherenceProtocol> protocol,
                    int nodes) {
  dsm::ClusterConfig config;
  config.num_nodes = nodes;
  constexpr std::size_t kN = 192;
  mem::SharedHeap heap(config.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(kN * kN * 8, "grid.a");
  const GlobalAddr b = heap.alloc_page_aligned(kN * kN * 8, "grid.b");
  dsm::Cluster cluster(config, heap, std::move(protocol));
  Outcome out;
  cluster.run([&](dsm::NodeContext& ctx) {
    auto ga = ctx.array<double>(a, kN * kN);
    auto gb = ctx.array<double>(b, kN * kN);
    if (ctx.node() == 0) {
      auto w = ga.write_all();
      for (std::size_t i = 0; i < kN * kN; ++i) {
        w[i] = static_cast<double>(i % 101);
      }
    }
    ctx.barrier();
    const std::size_t rows = (kN - 2) / static_cast<std::size_t>(ctx.num_nodes());
    const std::size_t lo = 1 + rows * static_cast<std::size_t>(ctx.node());
    const std::size_t hi =
        ctx.node() + 1 == ctx.num_nodes() ? kN - 1 : lo + rows;
    auto sweep = [&](dsm::SharedArray<double>& src,
                     dsm::SharedArray<double>& dst) {
      for (std::size_t r = lo; r < hi; ++r) {
        auto up = src.read_view((r - 1) * kN, r * kN);
        auto mid = src.read_view(r * kN, (r + 1) * kN);
        auto down = src.read_view((r + 1) * kN, (r + 2) * kN);
        auto o = dst.write_view(r * kN, (r + 1) * kN);
        for (std::size_t c = 1; c + 1 < kN; ++c) {
          o[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
        }
      }
      ctx.compute_flops((hi - lo) * kN * 4);
      ctx.barrier();
    };
    for (int iter = 0; iter < 10; ++iter) {
      ctx.iteration_begin();
      sweep(ga, gb);
      sweep(gb, ga);
    }
    if (ctx.node() == 0) {
      double sum = 0;
      for (const double v : ga.read_all()) sum += v;
      out.checksum = sum;
    }
    ctx.barrier();
  });
  out.elapsed = cluster.elapsed();
  out.data_kb = cluster.runtime().net().stats().total_bytes() / 1024;
  out.messages = cluster.runtime().net().stats().total_one_way_messages();
  return out;
}

}  // namespace

int main() {
  const Outcome seq = run_stencil(
      protocols::make_protocol(protocols::ProtocolKind::Null), 1);
  std::printf("custom protocol demo: 192x192 stencil, 10 steps, 8 nodes\n\n");
  std::printf("  %-12s %10s %9s %10s  %s\n", "protocol", "time(ms)",
              "speedup", "data(kB)", "correct");

  struct Entry {
    const char* label;
    Outcome out;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"eager-bcast",
       run_stencil(std::make_unique<EagerBroadcastProtocol>(), 8)});
  entries.push_back(
      {"lmw-u",
       run_stencil(protocols::make_protocol(protocols::ProtocolKind::LmwU),
                   8)});
  entries.push_back(
      {"bar-u",
       run_stencil(protocols::make_protocol(protocols::ProtocolKind::BarU),
                   8)});
  for (const Entry& e : entries) {
    std::printf("  %-12s %10.1f %9.2f %10llu  %s\n", e.label,
                sim::to_msec(e.out.elapsed),
                static_cast<double>(seq.elapsed) /
                    static_cast<double>(e.out.elapsed),
                static_cast<unsigned long long>(e.out.data_kb),
                e.out.checksum == seq.checksum ? "bit-exact" : "DIVERGED");
  }
  std::printf(
      "\nEager broadcast keeps every replica current but ships every diff "
      "to every\nnode; the paper's lazy copyset-directed updates move the "
      "same data only to\nits consumers.\n");
  return 0;
}
