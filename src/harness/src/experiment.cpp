#include "updsm/harness/experiment.hpp"

#include <algorithm>

#include "updsm/mem/shared_heap.hpp"

namespace updsm::harness {

namespace {

RunResult run_impl(std::string_view app_name, protocols::ProtocolKind kind,
                   const dsm::ClusterConfig& config,
                   const apps::AppParams& params) {
  auto app = apps::make_app(app_name, params);
  mem::SharedHeap heap(config.page_size);
  app->allocate(heap);

  dsm::Cluster cluster(config, heap, protocols::make_protocol(kind));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });

  RunResult result;
  result.app = std::string(app_name);
  result.protocol = protocols::to_string(kind);
  result.nodes = config.num_nodes;
  result.checksum = app->result_checksum();
  result.elapsed = cluster.elapsed();
  result.counters = cluster.runtime().measured_counters();
  result.net = cluster.runtime().measured_net_stats();
  result.breakdown = cluster.breakdown();
  result.barriers = cluster.barriers();
  result.app_iterations = app->iterations_completed();
  result.final_residual = app->final_residual();
  result.shared_bytes = heap.bytes_used();
  result.page_stats = cluster.runtime().page_stats();
  result.allocations = heap.allocations();
  result.page_size = config.page_size;
  return result;
}

}  // namespace

std::vector<HotPage> hottest_pages(const RunResult& run, std::size_t count) {
  std::vector<HotPage> pages;
  pages.reserve(run.page_stats.size());
  for (std::size_t p = 0; p < run.page_stats.size(); ++p) {
    if (run.page_stats[p].total() == 0) continue;
    HotPage hot;
    hot.page = PageId{static_cast<std::uint32_t>(p)};
    hot.stats = run.page_stats[p];
    const GlobalAddr page_start =
        static_cast<GlobalAddr>(p) * run.page_size;
    hot.allocation = "(unnamed)";
    for (const auto& alloc : run.allocations) {
      if (page_start >= alloc.addr && page_start < alloc.addr + alloc.bytes) {
        hot.allocation = alloc.name;
        break;
      }
    }
    pages.push_back(std::move(hot));
  }
  std::sort(pages.begin(), pages.end(), [](const HotPage& a, const HotPage& b) {
    if (a.stats.total() != b.stats.total()) {
      return a.stats.total() > b.stats.total();
    }
    return a.page < b.page;
  });
  if (pages.size() > count) pages.resize(count);
  return pages;
}

RunResult run_app(std::string_view app_name, protocols::ProtocolKind kind,
                  const dsm::ClusterConfig& config,
                  const apps::AppParams& params) {
  return run_impl(app_name, kind, config, params);
}

RunResult run_sequential(std::string_view app_name,
                         const dsm::ClusterConfig& config,
                         const apps::AppParams& params) {
  dsm::ClusterConfig seq_config = config;
  seq_config.num_nodes = 1;
  // One node runs on one worker; the caller's worker count is for its
  // parallel runs and would only trip the gang's clamp warning here.
  seq_config.workers = 1;
  // The null protocol has no async hooks; a 1-node run has nothing to
  // overlap anyway, so the baseline always executes a barrier gang.
  if (seq_config.gang == sim::GangMode::Async) {
    seq_config.gang = sim::GangMode::Baton;
  }
  return run_impl(app_name, protocols::ProtocolKind::Null, seq_config,
                  params);
}

}  // namespace updsm::harness
