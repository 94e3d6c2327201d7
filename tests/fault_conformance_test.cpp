// Fault-conformance soak: the whole point of the fault subsystem is that an
// adversarial transport changes WHEN things happen, never WHAT is computed.
// This drives the six paper protocols on a regular stencil (jacobi) and an
// irregular mesh (tomcat), in both gang modes, under a battery of seeded
// random fault plans (drops, dups, delays, stalls, targeted rules), and
// requires every run to be bit-identical to its fault-free baseline with
// internally consistent fault counters. Every barrier flush travels in one
// batch per (sender, destination) pair, so a lost batch loses all of its
// records; the data must not notice.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "conformance.hpp"

namespace updsm {
namespace {

using conformance::RunSpec;
using protocols::ProtocolKind;
using sim::GangMode;
using sim::MsgKind;

constexpr std::uint64_t kSalt = 0;

struct Scenario {
  const char* app;
  std::vector<ProtocolKind> kinds;
};

// tomcat's write pattern shifts between iterations, so the overdrive
// predictors (bar-s / bar-m) are off the table for it -- same exclusion the
// benches apply.
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> s{
      {"jacobi",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU, ProtocolKind::BarS, ProtocolKind::BarM}},
      {"tomcat",
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU}},
  };
  return s;
}

// The contract: faults shift time, never data. The injected schedule is
// keyed by traffic content, not thread timing, so both gang modes must
// also agree on every observable under every plan.
TEST(FaultConformanceTest, AllProtocolsBitExactUnderRandomPlans) {
  conformance::Battery battery(kSalt);
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      RunSpec spec;
      spec.app = sc.app;
      spec.protocol = kind;
      const harness::RunResult base = conformance::run(spec);
      ASSERT_NE(base.checksum, 0.0) << spec.replay();
      for (int i = 0; i < conformance::kFaultPlans; ++i) {
        const conformance::Plan plan = battery.plan(i, base.net);
        spec.plan = plan.text;
        spec.fault_seed = 1000u + static_cast<std::uint64_t>(i);
        spec.gang = GangMode::Parallel;
        const harness::RunResult faulty = conformance::run(spec);
        const std::string ctx = spec.replay();
        battery.record(plan, faulty);
        EXPECT_EQ(faulty.checksum, base.checksum) << ctx;
        EXPECT_EQ(faulty.barriers, base.barriers) << ctx;
        // Counter consistency: every retry was provoked by a loss, every
        // injected duplicate was suppressed exactly once, and a run that
        // lost reliable traffic must show the recovery work.
        EXPECT_GE(faulty.net.total_dropped(), faulty.counters.reliable_retries)
            << ctx;
        EXPECT_GE(faulty.counters.dup_suppressed, faulty.net.injected_dups)
            << ctx;
        // Recovery is (nearly) never free. Losing an aggregated update
        // batch can shave a sliver of time -- the receiver skips storage
        // work for speculative updates it would never have consumed -- so
        // allow a 2% tolerance instead of strict monotonicity.
        EXPECT_GE(faulty.elapsed * 100, base.elapsed * 98)
            << ctx << ": recovery made the run substantially faster";

        spec.gang = GangMode::Baton;
        conformance::expect_same_run(conformance::run(spec), faulty,
                                     spec.replay() + " vs --gang=parallel");
      }
    }
  }
  // Lost batches lose every record aboard; lost replies stall a fault.
  battery.expect_hit({MsgKind::FlushBatch, MsgKind::DataReply});
}

// sc-sw rides its own single-writer machinery (and is baton-only); give it
// a lighter soak of its own so the whole protocol roster is covered.
TEST(FaultConformanceTest, ScSwSurvivesFaults) {
  RunSpec spec;
  spec.protocol = ProtocolKind::ScSw;
  spec.gang = GangMode::Baton;
  const harness::RunResult base = conformance::run(spec);
  conformance::Battery battery(kSalt);
  for (int i = 0; i < std::min(conformance::kFaultPlans, 5); ++i) {
    spec.plan = battery.plan(i, base.net).text;
    spec.fault_seed = 1000u + static_cast<std::uint64_t>(i);
    EXPECT_EQ(conformance::run(spec).checksum, base.checksum)
        << spec.replay();
  }
}

}  // namespace
}  // namespace updsm
