// Convergence timeline: the paper's §2.2.1 claim, made visible over time.
//
// "On the first iteration of the time-step loop, the copysets of each page
// are empty, and page faults can occur. By the second iteration, copyset
// information accurately reflects stable sharing patterns." And §4/§5:
// once overdrive engages, segvs (bar-s) and mprotects (bar-m) stop.
//
// This bench runs a stencil under bar-u, bar-s and bar-m and prints, per
// time-step iteration, the remote misses, segvs and mprotects incurred in
// that iteration -- faults collapse after iteration 1-2 (copysets), trap
// traffic collapses at overdrive engagement (iteration 5 with the default
// learning depth).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"

namespace {

using namespace updsm;

struct IterationSample {
  std::uint64_t misses = 0;
  std::uint64_t segvs = 0;
  std::uint64_t mprotects = 0;
};

std::vector<IterationSample> run_timeline(protocols::ProtocolKind kind,
                                          const bench::BenchOptions& opt,
                                          int iterations) {
  dsm::ClusterConfig cfg = opt.cluster_config();
  mem::SharedHeap heap(cfg.page_size);
  const std::size_t n = 256;
  const GlobalAddr a = heap.alloc_page_aligned(n * n * 8, "grid.a");
  const GlobalAddr b = heap.alloc_page_aligned(n * n * 8, "grid.b");
  dsm::Cluster cluster(cfg, heap, protocols::make_protocol(kind));

  std::vector<IterationSample> cumulative;
  auto snapshot = [&] {
    IterationSample s;
    s.misses = cluster.runtime().counters().remote_misses;
    for (int i = 0; i < cfg.num_nodes; ++i) {
      const auto& os =
          cluster.runtime().os(NodeId{static_cast<std::uint32_t>(i)}).counters();
      s.segvs += os.segvs;
      s.mprotects += os.mprotects;
    }
    return s;
  };

  cluster.run([&](dsm::NodeContext& ctx) {
    auto ga = ctx.array<double>(a, n * n);
    auto gb = ctx.array<double>(b, n * n);
    if (ctx.node() == 0) {
      auto w = ga.write_all();
      for (std::size_t i = 0; i < n * n; ++i) {
        w[i] = static_cast<double>(i % 97);
      }
    }
    ctx.barrier();
    const std::size_t rows = (n - 2) / static_cast<std::size_t>(ctx.num_nodes());
    const std::size_t lo = 1 + rows * static_cast<std::size_t>(ctx.node());
    const std::size_t hi =
        ctx.node() + 1 == ctx.num_nodes() ? n - 1 : lo + rows;
    auto sweep = [&](dsm::SharedArray<double>& src,
                     dsm::SharedArray<double>& dst) {
      for (std::size_t r = lo; r < hi; ++r) {
        auto up = src.read_view((r - 1) * n, r * n);
        auto mid = src.read_view(r * n, (r + 1) * n);
        auto down = src.read_view((r + 1) * n, (r + 2) * n);
        auto out = dst.write_view(r * n, (r + 1) * n);
        for (std::size_t c = 1; c + 1 < n; ++c) {
          out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
        }
      }
      ctx.compute_flops((hi - lo) * n * 4);
      ctx.barrier();
    };
    for (int iter = 0; iter < iterations; ++iter) {
      ctx.iteration_begin();
      sweep(ga, gb);
      sweep(gb, ga);
      if (ctx.node() == 0) cumulative.push_back(snapshot());
    }
  });
  return cumulative;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace updsm;
  // The timeline builds its own 256x256 grid and runs kIterations, so
  // the app-size flags would be ignored: refuse them. Node 0 snapshots the
  // run-wide counters right after a barrier; only the baton gang, which
  // runs the nodes one at a time in node order, takes that snapshot before
  // any other node counts the next sweep, so the bench sets the gang.
  bench::BenchOptions opt;
  opt.cluster.gang = sim::GangMode::Baton;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.owned = {"scale", "warmup", "iters", "seed", "gang"}});
  constexpr int kIterations = 10;

  std::cout << "Convergence timeline (per-iteration deltas; "
            << opt.cluster.num_nodes << " nodes)\n"
            << "paper: faults occur in iteration 1, copysets converge by "
               "iteration 2;\noverdrive engages after the learning "
               "iterations and removes the traps.\n\n";
  for (const auto kind :
       {protocols::ProtocolKind::BarU, protocols::ProtocolKind::BarS,
        protocols::ProtocolKind::BarM}) {
    const auto timeline = run_timeline(kind, opt, kIterations);
    harness::TextTable table({"iteration", "misses", "segvs", "mprotects"});
    IterationSample prev;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const auto& cur = timeline[i];
      table.add_row({std::to_string(i + 1),
                     std::to_string(cur.misses - prev.misses),
                     std::to_string(cur.segvs - prev.segvs),
                     std::to_string(cur.mprotects - prev.mprotects)});
      prev = cur;
    }
    std::cout << protocols::to_string(kind) << ":\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
