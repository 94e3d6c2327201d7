// Adaptive-protocol conformance: per-page mode switching must change WHEN
// pages are delivered, never WHAT is computed, and the whole decision
// pipeline (window samples -> signals -> modeled costs -> barrier-time
// switches) must be a pure function of workload + config. This drives the
// adaptive protocol on a regular stencil (jacobi) and an irregular mesh
// (tomcat), under both cost profiles, across gang modes, worker counts and
// a battery of seeded random fault plans, and requires every run to be
// bit-identical on every observable -- data, virtual time, and the adaptive
// counters themselves.
#include <gtest/gtest.h>

#include <string>

#include "conformance.hpp"

namespace updsm {
namespace {

using conformance::RunSpec;
using protocols::ProtocolKind;
using sim::GangMode;

constexpr const char* kApps[] = {"jacobi", "tomcat"};
constexpr const char* kProfiles[] = {"sp2", "rdma"};
constexpr std::uint64_t kSalt = 2000;

RunSpec adaptive(const char* app, const char* profile) {
  RunSpec spec;
  spec.app = app;
  spec.protocol = ProtocolKind::Adaptive;
  spec.net_profile = profile;
  // One warmup iteration only: mode switches land a few epochs after the
  // window fills, and the measured counters must SEE them (the acceptance
  // bench reports adaptive_switches from the same window).
  spec.warmup = 1;
  spec.measured = 6;
  spec.adaptive_window = 3;
  return spec;
}

// The protocol actually adapts in the measured window on both apps and
// both profiles -- a silent all-update run would vacuously pass the
// determinism checks below.
TEST(AdaptiveConformanceTest, SwitchesHappenInTheMeasuredWindow) {
  for (const char* app : kApps) {
    for (const char* profile : kProfiles) {
      const harness::RunResult r = conformance::run(adaptive(app, profile));
      EXPECT_GT(r.counters.adaptive_switches.load(), 0u)
          << app << " on " << profile;
    }
  }
}

// Bit-identical across gang modes and every worker count, on both
// profiles: the mode-switch pipeline adds no schedule dependence.
TEST(AdaptiveConformanceTest, SchedulesAgree) {
  for (const char* app : kApps) {
    for (const char* profile : kProfiles) {
      RunSpec spec = adaptive(app, profile);
      spec.gang = GangMode::Baton;
      spec.workers = 1;
      const harness::RunResult baton1 = conformance::run(spec);
      for (const GangMode gang : {GangMode::Baton, GangMode::Parallel}) {
        for (const int workers : {1, 2, 4, 16}) {
          spec.gang = gang;
          spec.workers = workers;
          conformance::expect_same_run(
              baton1, conformance::run(spec),
              spec.replay() + " vs --gang=baton --workers=1");
        }
      }
    }
  }
}

// Under every seeded fault plan the data matches the fault-free baseline
// bit for bit, and the decision pipeline itself is schedule-independent:
// both gang modes agree on every observable including the switch counters.
TEST(AdaptiveConformanceTest, FaultPlansNeverChangeData) {
  conformance::Battery battery(kSalt);
  for (const char* app : kApps) {
    for (const char* profile : kProfiles) {
      RunSpec spec = adaptive(app, profile);
      const harness::RunResult clean = conformance::run(spec);
      ASSERT_NE(clean.checksum, 0.0) << spec.replay();
      for (int i = 0; i < conformance::kAdaptivePlans; ++i) {
        const conformance::Plan plan = battery.plan(i, clean.net);
        spec.plan = plan.text;
        spec.fault_seed = 2000u + static_cast<std::uint64_t>(i);
        spec.gang = GangMode::Parallel;
        spec.workers = 0;
        const harness::RunResult faulty = conformance::run(spec);
        battery.record(plan, faulty);
        EXPECT_EQ(faulty.checksum, clean.checksum) << spec.replay();
        EXPECT_EQ(faulty.barriers, clean.barriers) << spec.replay();

        spec.gang = GangMode::Baton;
        spec.workers = 1;
        conformance::expect_same_run(faulty, conformance::run(spec),
                                     spec.replay() + " vs --gang=parallel");
      }
    }
  }
  // Update-mode pages are pushed in aggregated batches.
  battery.expect_hit({sim::MsgKind::FlushBatch});
}

// The window length is part of the configuration, not a tuning accident:
// different windows may pick different modes (and different virtual
// times), but each is individually bit-exact on the data.
TEST(AdaptiveConformanceTest, WindowLengthNeverChangesData) {
  RunSpec spec = adaptive("jacobi", "sp2");
  const harness::RunResult r3 = conformance::run(spec);
  for (const int window : {2, 6, 12}) {
    spec.adaptive_window = window;
    EXPECT_EQ(conformance::run(spec).checksum, r3.checksum) << spec.replay();
  }
}

}  // namespace
}  // namespace updsm
