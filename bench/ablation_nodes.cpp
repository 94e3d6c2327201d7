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
#include <functional>
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

  // Plan every run up front and execute on the --jobs worker pool; results
  // land in task order, so output is identical at any worker count. Each
  // cell contributes two runs: flat topology then tree + relay. One
  // sequential baseline per app (the baseline is a single process; its
  // checksum and time do not depend on the cluster size).
  std::vector<Cell> cells;
  std::vector<std::function<harness::RunResult()>> tasks;
  std::vector<std::string> seq_apps;
  for (const char* app : kApps) {
    const bench::BenchOptions o = opt;
    tasks.push_back([o, app = std::string(app)] {
      return harness::run_sequential(app, o.cluster_config(), o.app);
    });
    seq_apps.push_back(app);
    for (const ProtocolKind kind : protocols::base_protocols()) {
      for (const int nodes : node_list) {
        cells.push_back(Cell{app, kind, nodes});
        for (const bool tree : {false, true}) {
          tasks.push_back([o, app = std::string(app), kind, nodes, tree,
                           tree_fanout, relay_threshold] {
            dsm::ClusterConfig cfg = o.cluster_config();
            cfg.num_nodes = nodes;
            cfg.barrier_fanout = tree ? tree_fanout : 0;
            cfg.relay_threshold = tree ? relay_threshold : 0;
            return harness::run_app(app, kind, cfg, o.app);
          });
        }
      }
    }
  }
  const std::vector<harness::RunResult> results =
      harness::run_grid(tasks, opt.jobs);

  // Task order: [seq(app0), cells(app0) x {flat, tree}..., seq(app1), ...].
  std::size_t next = 0;
  std::vector<harness::RunResult> seq_results;
  std::vector<harness::RunResult> flat_results;
  std::vector<harness::RunResult> tree_results;
  std::size_t cell_idx = 0;
  for (std::size_t a = 0; a < seq_apps.size(); ++a) {
    seq_results.push_back(results[next++]);
    while (cell_idx < cells.size() && cells[cell_idx].app == seq_apps[a]) {
      flat_results.push_back(results[next++]);
      tree_results.push_back(results[next++]);
      ++cell_idx;
    }
  }

  auto seq_of = [&](const std::string& app) -> const harness::RunResult& {
    for (std::size_t a = 0; a < seq_apps.size(); ++a) {
      if (seq_apps[a] == app) return seq_results[a];
    }
    std::fprintf(stderr, "FATAL: no sequential baseline for %s\n",
                 app.c_str());
    std::exit(1);
  };

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
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& flat = flat_results[i];
    const harness::RunResult& tree = tree_results[i];
    const harness::RunResult& seq = seq_of(cell.app);
    if (flat.checksum != seq.checksum || tree.checksum != seq.checksum) {
      std::fprintf(stderr, "FATAL: %s under %s diverged at %d nodes\n",
                   cell.app.c_str(), protocols::to_string(cell.kind),
                   cell.nodes);
      return 1;
    }

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
