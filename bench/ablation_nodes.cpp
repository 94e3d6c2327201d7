// X3: node-count scaling to 1024. The paper reports 8-processor numbers
// only; this ablation sweeps a parametrized node list (default 8, 64, 256,
// 1024) for the four base protocols on a stencil (jacobi) and a
// communication-heavy app (fft), running every point twice -- flat master
// barrier with unicast flushes, then tree barrier (fanout 4) with relayed
// flush dissemination -- and verifying bit-exactness against the
// sequential baseline at every point. Emits BENCH_nodes.json with
// per-node-count barrier wait time, flush message counts, and the
// flat-vs-tree speedup.
//
// Deterministic by construction: virtual-time results depend only on
// (workload, config), never on --jobs or wall clock; the
// bench_nodes_determinism ctest pins byte-identical output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace updsm;

constexpr const char* kApps[] = {"jacobi", "fft"};

struct Cell {
  std::string app;
  protocols::ProtocolKind kind;
  int nodes;
  bench::Sweep::Index flat;  // flat barrier, unicast flushes
  bench::Sweep::Index tree;  // tree barrier, relayed flushes
};

}  // namespace

int main(int argc, char** argv) {
  using protocols::ProtocolKind;

  // 2 apps x |nodes| x 4 protocols x {flat, tree}; keep the sweep snappy
  // (the interesting signal is message/time scaling, not problem size).
  // Every cell sets its own node count; --fanout and --relay-threshold
  // configure the tree column.
  bench::BenchOptions opt;
  opt.app.scale = 0.5;
  opt.cluster.barrier_fanout = 4;
  opt.cluster.relay_threshold = 4;
  std::vector<int> node_list = {8, 64, 256, 1024};
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {{"nodes-list", "N,N,...",
                  "node counts to sweep (default 8,64,256,1024)",
                  [&](std::string_view v) {
                    node_list = harness::parse_int_list(
                        v, 1, static_cast<int>(dsm::kMaxNodes));
                  }},
                 bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"nodes"}});
  const int tree_fanout = opt.cluster.barrier_fanout;
  const int relay_threshold = opt.cluster.relay_threshold;

  // Each cell runs twice: flat topology, then tree + relay. One sequential
  // baseline per app: it is a single process, so its checksum does not
  // depend on the cluster size.
  bench::Sweep sweep(opt);
  std::vector<Cell> cells;
  const dsm::ClusterConfig base = opt.cluster_config();
  for (const char* app : kApps) {
    const bench::Sweep::Index seq = sweep.plan_sequential(app, base);
    for (const ProtocolKind kind : protocols::base_protocols()) {
      for (const int nodes : node_list) {
        dsm::ClusterConfig tree = base;
        tree.num_nodes = nodes;
        dsm::ClusterConfig flat = tree;
        flat.barrier_fanout = 0;
        flat.relay_threshold = 0;
        const bench::Sweep::Index flat_run = sweep.plan(app, kind, flat, seq);
        cells.push_back(
            Cell{app, kind, nodes, flat_run, sweep.plan(app, kind, tree, seq)});
      }
    }
  }
  const std::vector<harness::RunResult> results = sweep.run();

  std::printf("Ablation X3: scaling to 1024 nodes, flat vs tree(%d)+relay(%d) "
              "(scale %.2f)\n\n",
              tree_fanout, relay_threshold, opt.app.scale);

  bench::BenchJson json("BENCH_nodes.json", bench::provenance(opt));
  json.text("bench", "node_scaling");
  json.field("scale", "%.3f", opt.app.scale);
  json.field("tree_fanout", "%d", tree_fanout);
  json.field("relay_threshold", "%d", relay_threshold);
  json.text("net_profile", opt.cluster.net_profile);
  json.texts("cost_overrides", opt.cost_overrides);
  json.begin_rows("runs");

  std::string cur_header;
  for (const Cell& cell : cells) {
    const harness::RunResult& flat = results[cell.flat];
    const harness::RunResult& tree = results[cell.tree];
    const std::string header =
        cell.app + " under " + protocols::to_string(cell.kind);
    if (header != cur_header) {
      if (!cur_header.empty()) std::printf("\n");
      cur_header = header;
      std::printf("%s:\n  %6s %10s %10s %8s %11s %11s %11s %8s\n",
                  header.c_str(), "nodes", "flat", "tree", "speedup",
                  "wait-flat", "wait-tree", "msgs-flat", "reduce");
    }
    const double speedup =
        tree.elapsed > 0 ? static_cast<double>(flat.elapsed) /
                               static_cast<double>(tree.elapsed)
                         : 0.0;
    const sim::SimTime wait_flat = flat.breakdown.summed().wait;
    const sim::SimTime wait_tree = tree.breakdown.summed().wait;
    const std::uint64_t msgs_flat = flat.net.flush_class_messages();
    const std::uint64_t msgs_tree = tree.net.flush_class_messages();
    const double reduction =
        msgs_tree == 0 ? 1.0
                       : static_cast<double>(msgs_flat) /
                             static_cast<double>(msgs_tree);
    std::printf("  %6d %8.2fms %8.2fms %7.3fx %9.2fms %9.2fms %11llu %7.2fx\n",
                cell.nodes, sim::to_msec(flat.elapsed),
                sim::to_msec(tree.elapsed), speedup, sim::to_msec(wait_flat),
                sim::to_msec(wait_tree),
                static_cast<unsigned long long>(msgs_flat), reduction);

    json.begin_row();
    json.text("app", cell.app);
    json.text("protocol", protocols::to_string(cell.kind));
    json.field("nodes", "%d", cell.nodes);
    json.field("elapsed_flat_ms", "%.3f", sim::to_msec(flat.elapsed));
    json.field("elapsed_tree_ms", "%.3f", sim::to_msec(tree.elapsed));
    json.field("speedup_flat_vs_tree", "%.4f", speedup);
    json.field("barrier_wait_flat_ms", "%.3f", sim::to_msec(wait_flat));
    json.field("barrier_wait_tree_ms", "%.3f", sim::to_msec(wait_tree));
    json.field("flush_messages_flat", "%llu",
               static_cast<unsigned long long>(msgs_flat));
    json.field("flush_messages_tree", "%llu",
               static_cast<unsigned long long>(msgs_tree));
    json.field("flush_message_reduction", "%.4f", reduction);
    json.field("relay_batches", "%llu",
               static_cast<unsigned long long>(
                   tree.counters.relay_batches.load()));
    json.field("relay_messages", "%llu",
               static_cast<unsigned long long>(
                   tree.counters.relay_messages.load()));
    json.field("total_messages_flat", "%llu",
               static_cast<unsigned long long>(flat.net.table_messages()));
    json.field("total_messages_tree", "%llu",
               static_cast<unsigned long long>(tree.net.table_messages()));
    json.field("barriers", "%llu",
               static_cast<unsigned long long>(tree.barriers));
    json.field("correct", "true");
    json.end_row();
  }
  json.end_rows();
  std::printf("\nwrote BENCH_nodes.json (%zu cells x {flat, tree}, "
              "all bit-exact vs sequential)\n",
              cells.size());
  return 0;
}
