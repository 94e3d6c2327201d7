#include "updsm/harness/assurance.hpp"

#include "updsm/common/rng.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm::harness {

AssuranceReport assure_overdrive_safety(std::string_view app_name,
                                        const dsm::ClusterConfig& config,
                                        const apps::AppParams& base_params,
                                        int trials) {
  AssuranceReport report;
  for (int t = 0; t < trials; ++t) {
    apps::AppParams params = base_params;
    params.seed = splitmix64(base_params.seed + static_cast<std::uint64_t>(t));

    dsm::ClusterConfig cfg = config;
    // Revert: an unpredicted write is *handled* (and counted), so a dirty
    // trial still finishes and still validates.
    cfg.overdrive_fallback = dsm::OverdriveFallback::Revert;

    const auto seq = run_sequential(app_name, cfg, params);

    // Run the cluster directly rather than through run_app: assurance
    // wants every post-engagement misprediction, including those outside
    // the steady-state measurement window.
    auto app = apps::make_app(app_name, params);
    mem::SharedHeap heap(cfg.page_size);
    app->allocate(heap);
    dsm::Cluster cluster(
        cfg, heap, protocols::make_protocol(protocols::ProtocolKind::BarS));
    cluster.run([&](dsm::NodeContext& ctx) { app->run(ctx); });

    AssuranceTrial trial;
    trial.seed = params.seed;
    trial.mispredictions =
        cluster.runtime().counters().overdrive_mispredictions;
    trial.correct = app->result_checksum() == seq.checksum;
    report.trials.push_back(trial);
  }
  return report;
}

}  // namespace updsm::harness
