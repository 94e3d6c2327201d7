// X4: home-assignment ablation (paper §2.2.1). Three ways to pick homes:
//
//   migrated  -- the paper's runtime migration (collect behaviour during
//                iteration 1, migrate before iteration 2);
//   naive     -- static block-distributed homes, no migration (what a
//                system without annotations or migration would do);
//   annotated -- Zhou-style user annotations with a PERFECT assignment
//                (we extract the homes the migration pass converged to and
//                hand them back as annotations, modelling the §2.2.1 claim
//                that "making such assignments is easy for the majority of
//                cases" -- at the cost of programmer burden).
#include <iostream>

#include "bench_common.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/protocols/bar.hpp"

namespace {

using namespace updsm;

/// Runs bar-u once with migration and returns the converged home map. A
/// direct cluster run: the homes live in the protocol, not in a RunResult.
std::vector<std::uint32_t> learn_homes(std::string_view app_name,
                                       const dsm::ClusterConfig& cfg,
                                       const apps::AppParams& params) {
  auto app = apps::make_app(app_name, params);
  mem::SharedHeap heap(cfg.page_size);
  app->allocate(heap);
  auto protocol = protocols::make_protocol(protocols::ProtocolKind::BarU);
  auto* bar = dynamic_cast<protocols::BarProtocol*>(protocol.get());
  dsm::Cluster cluster(cfg, heap, std::move(protocol));
  cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });
  std::vector<std::uint32_t> homes(heap.segment_pages());
  for (std::uint32_t p = 0; p < homes.size(); ++p) {
    homes[p] = bar->home(PageId{p}).value();
  }
  return homes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace updsm;
  using protocols::ProtocolKind;
  bench::BenchOptions opt;
  harness::parse_flags_or_exit(
      argc, argv, opt,
      {.flags = {bench::jobs_flag(opt), bench::quick_flag(opt)},
       .owned = {"no-migration"}});

  // Per app: one sequential baseline and bar-u under each home strategy,
  // the annotated one with the homes a migrating run converged to.
  struct Row {
    std::string app;
    bench::Sweep::Index seq, migrated, naive, annotated;
  };
  bench::Sweep sweep(opt);
  std::vector<Row> rows;
  const dsm::ClusterConfig cfg_migrate = opt.cluster_config();
  dsm::ClusterConfig cfg_naive = cfg_migrate;
  cfg_naive.home_migration = false;
  for (const auto app : apps::app_names()) {
    dsm::ClusterConfig cfg_annotated = cfg_naive;
    cfg_annotated.static_homes = learn_homes(app, cfg_migrate, opt.app);
    const bench::Sweep::Index seq = sweep.plan_sequential(app, cfg_migrate);
    rows.push_back(
        Row{std::string(app), seq,
            sweep.plan(app, ProtocolKind::BarU, cfg_migrate, seq),
            sweep.plan(app, ProtocolKind::BarU, cfg_naive, seq),
            sweep.plan(app, ProtocolKind::BarU, cfg_annotated, seq)});
  }
  const std::vector<harness::RunResult> results = sweep.run();

  std::cout << "Ablation X4: home assignment strategies under bar-u\n\n";
  // (Migration itself happens during warm-up, outside the measurement
  // window, so steady-state counters show its *effect*, not the moves.)
  harness::TextTable table({"app", "migrated", "naive static",
                            "annotated", "misses naive/migrated"});
  for (const Row& row : rows) {
    const harness::RunResult& seq = results[row.seq];
    const harness::RunResult& migrated = results[row.migrated];
    const harness::RunResult& naive = results[row.naive];
    const harness::RunResult& annotated = results[row.annotated];
    table.add_row(
        {row.app, harness::fmt(harness::speedup(migrated, seq)),
         harness::fmt(harness::speedup(naive, seq)),
         harness::fmt(harness::speedup(annotated, seq)),
         std::to_string(naive.counters.remote_misses) + "/" +
             std::to_string(migrated.counters.remote_misses)});
  }
  table.print(std::cout);
  std::cout << "\nRuntime migration recovers (at least) the annotated "
               "assignment's performance\nwithout the user annotations Zhou "
               "required (paper section 2.2.1).\n";
  return 0;
}
