// Topology conformance: tree barriers and relayed flush dissemination are
// transport-level optimizations, so every observable *result* must be
// bit-identical with them on or off -- across the six paper protocols,
// both gang modes, and a battery of fault plans -- while the *traffic*
// shape changes exactly as designed (the same 2(n-1) sync messages per
// barrier re-routed along the tree; relayed batches noted once in the
// record census however many hops they ride).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conformance.hpp"

namespace updsm {
namespace {

using conformance::RunSpec;
using protocols::ProtocolKind;
using sim::GangMode;
using sim::MsgKind;

constexpr std::uint64_t kSalt = 31337;

struct Scenario {
  const char* app;
  std::vector<ProtocolKind> kinds;
};

// Same roster as the fault-conformance soak: tomcat's shifting write set
// excludes the overdrive predictors (bar-s / bar-m).
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

struct Topology {
  int barrier_fanout = 0;   // 0 = flat master barrier
  int relay_threshold = 0;  // 0 = unicast flush batches
};

// The flat master barrier is the one-level tree: fanout 0 charges exactly
// what fanout n-1 does (every slave a child of the master), down to each
// node's virtual-time breakdown, with or without faults on the sync
// messages themselves.
TEST(TopologyConformanceTest, FlatBarrierIsTheOneLevelTree) {
  const std::string sync_faults =
      "kind=sync-arrive,drop=0.2,dup=0.2,delay=0.2,delay_us=100;"
      "kind=sync-release,drop=0.2,dup=0.2,delay=0.2,delay_us=100";
  for (const std::string& plan : {std::string(), sync_faults}) {
    for (const int nodes : {3, 8}) {
      RunSpec flat;
      flat.nodes = nodes;
      flat.plan = plan;
      flat.fault_seed = 7;
      RunSpec tree = flat;
      tree.fanout = nodes - 1;
      conformance::expect_same_run(conformance::run(tree),
                                   conformance::run(flat),
                                   tree.replay() + " vs --fanout=0");
    }
  }
}

// Fault-free tree barriers: the k-ary reduction/broadcast tree must
// preserve the computation and every protocol observable exactly -- same
// checksums, same counters, same flush traffic -- and re-route, not
// multiply, the sync traffic: still one arrival and one release message
// per non-root node per barrier, whatever the fanout.
TEST(TopologyConformanceTest, TreeBarrierMatchesFlat) {
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      for (const GangMode gang : {GangMode::Baton, GangMode::Parallel}) {
        RunSpec spec;
        spec.app = sc.app;
        spec.protocol = kind;
        spec.gang = gang;
        spec.nodes = 8;
        const harness::RunResult flat = conformance::run(spec);
        for (const int fanout : {2, 8}) {
          spec.fanout = fanout;
          const harness::RunResult tree = conformance::run(spec);
          const std::string ctx = spec.replay();
          ASSERT_NE(flat.checksum, 0.0) << ctx;
          EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
          EXPECT_EQ(tree.barriers, flat.barriers) << ctx;
          EXPECT_EQ(tree.counters.diffs_created.load(),
                    flat.counters.diffs_created.load())
              << ctx;
          EXPECT_EQ(tree.counters.updates_sent.load(),
                    flat.counters.updates_sent.load())
              << ctx;
          EXPECT_EQ(tree.counters.pages_fetched.load(),
                    flat.counters.pages_fetched.load())
              << ctx;
          EXPECT_EQ(tree.counters.migrations.load(),
                    flat.counters.migrations.load())
              << ctx;
          // Sync census: same message count, re-routed along tree edges.
          EXPECT_EQ(tree.net.of(MsgKind::SyncArrive).count,
                    flat.net.of(MsgKind::SyncArrive).count)
              << ctx;
          EXPECT_EQ(tree.net.of(MsgKind::SyncRelease).count,
                    flat.net.of(MsgKind::SyncRelease).count)
              << ctx;
          // Flush traffic is untouched by the barrier topology.
          EXPECT_EQ(tree.net.flush_class_messages(),
                    flat.net.flush_class_messages())
              << ctx;
          EXPECT_EQ(tree.net.flush_class_records(),
                    flat.net.flush_class_records())
              << ctx;
          EXPECT_EQ(tree.counters.relay_batches.load(), 0u) << ctx;
        }
      }
    }
  }
}

// Fault-free relayed dissemination: routing batches through the tree must
// not change results or the record census -- records are noted once per
// batch (under FlushRelay for relayed ones), never per hop -- and the
// relay bookkeeping must reconcile with the network's message table.
TEST(TopologyConformanceTest, RelayMatchesUnicast) {
  for (const char* app : {"jacobi", "fft"}) {
    for (const ProtocolKind kind :
         {ProtocolKind::LmwU, ProtocolKind::BarU, ProtocolKind::BarI}) {
      RunSpec spec;
      spec.app = app;
      spec.protocol = kind;
      spec.nodes = 8;
      spec.scale = 0.25;
      const harness::RunResult uni = conformance::run(spec);
      spec.relay_threshold = 2;
      const harness::RunResult rel = conformance::run(spec);
      const std::string ctx = spec.replay();
      ASSERT_NE(uni.checksum, 0.0) << ctx;
      EXPECT_EQ(rel.checksum, uni.checksum) << ctx;
      EXPECT_EQ(rel.barriers, uni.barriers) << ctx;
      EXPECT_EQ(rel.counters.updates_received.load(),
                uni.counters.updates_received.load())
          << ctx;
      EXPECT_EQ(rel.counters.updates_applied.load(),
                uni.counters.updates_applied.load())
          << ctx;
      // The record census is invariant under routing; the batch count too.
      EXPECT_EQ(rel.net.flush_class_records(), uni.net.flush_class_records())
          << ctx;
      EXPECT_EQ(rel.counters.flush_batches.load(),
                uni.counters.flush_batches.load())
          << ctx;
      // Bookkeeping reconciles: every sealed batch is either a unicast
      // FlushBatch message or a relayed segment; every relay hop is a
      // FlushRelay message; nothing is lost without faults.
      EXPECT_EQ(rel.counters.flush_batches.load(),
                rel.net.of(MsgKind::FlushBatch).count +
                    rel.counters.relay_batches.load())
          << ctx;
      EXPECT_EQ(rel.counters.relay_messages.load(),
                rel.net.of(MsgKind::FlushRelay).count)
          << ctx;
      EXPECT_EQ(rel.counters.relay_subtree_losses.load(), 0u) << ctx;
      EXPECT_EQ(rel.counters.recovery_faults.load(),
                uni.counters.recovery_faults.load())
          << ctx;
    }
  }
  // The headline claim for the all-to-all app: relaying actually shrinks
  // the flush-class message total (that is its whole point).
  RunSpec spec;
  spec.app = "fft";
  spec.nodes = 8;
  spec.scale = 0.25;
  const harness::RunResult uni = conformance::run(spec);
  spec.relay_threshold = 2;
  const harness::RunResult rel = conformance::run(spec);
  ASSERT_GT(rel.counters.relay_batches.load(), 0u);
  EXPECT_LT(rel.net.flush_class_messages(), uni.net.flush_class_messages());
}

// Under faults the packet pattern differs by topology (a dropped relay hop
// loses a whole subtree's segments; a dropped tree sync retries on a
// different edge), but the *result* must still match the fault-free
// baseline bit-for-bit in every topology, and both gang modes must agree
// on every observable.
TEST(TopologyConformanceTest, TopologiesBitExactUnderFaults) {
  const std::vector<Topology> topologies{{0, 0}, {4, 0}, {0, 2}, {4, 2}};
  conformance::Battery battery(kSalt);
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      RunSpec spec;
      spec.app = sc.app;
      spec.protocol = kind;
      spec.nodes = 8;
      const harness::RunResult base = conformance::run(spec);
      for (const Topology topo : topologies) {
        spec.fanout = topo.barrier_fanout;
        spec.relay_threshold = topo.relay_threshold;
        spec.plan.clear();
        spec.gang = GangMode::Parallel;
        // The flat, unicast topology's fault-free run is `base` itself.
        const sim::NetworkStats sent =
            topo.barrier_fanout == 0 && topo.relay_threshold == 0
                ? base.net
                : conformance::run(spec).net;
        for (int i = 0; i < conformance::kTopologyPlans; ++i) {
          const conformance::Plan plan = battery.plan(i, sent);
          spec.plan = plan.text;
          spec.fault_seed = 6000u + static_cast<std::uint64_t>(i);
          spec.gang = GangMode::Parallel;
          const harness::RunResult faulty = conformance::run(spec);
          battery.record(plan, faulty);
          EXPECT_EQ(faulty.checksum, base.checksum) << spec.replay();
          EXPECT_EQ(faulty.barriers, base.barriers) << spec.replay();

          spec.gang = GangMode::Baton;
          conformance::expect_same_run(conformance::run(spec), faulty,
                                       spec.replay() + " vs --gang=parallel");
        }
      }
    }
  }
  // A lost relay hop loses every segment aboard: the whole destination
  // subtree heals.
  battery.expect_hit({MsgKind::FlushRelay});
}

// The scaling smoke at a post-64 cluster size the flat protocol stack was
// never allowed to reach before: 64 nodes, every topology combination,
// bit-identical results -- and the tree barrier strictly cheaper in
// simulated time for the barrier-dominated update protocol. The flat
// reference runs under the baton on one worker; the parallel gang must
// match it on every field at 1, 2 and 4 workers.
TEST(TopologyConformanceTest, SixtyFourNodesBitExactAcrossTopologies) {
  for (const char* app : {"jacobi", "fft"}) {
    for (const ProtocolKind kind : {ProtocolKind::LmwU, ProtocolKind::BarU}) {
      RunSpec spec;
      spec.app = app;
      spec.protocol = kind;
      spec.nodes = 64;
      spec.gang = GangMode::Baton;
      spec.workers = 1;
      const std::string ctx = spec.replay();
      const harness::RunResult flat = conformance::run(spec);
      spec.gang = GangMode::Parallel;
      for (const int workers : {1, 2, 4}) {
        spec.workers = workers;
        conformance::expect_same_run(conformance::run(spec), flat,
                                     spec.replay() + " vs " + ctx);
      }
      spec.workers = 0;
      spec.fanout = 4;
      const harness::RunResult tree = conformance::run(spec);
      spec.relay_threshold = 4;
      const harness::RunResult both = conformance::run(spec);
      ASSERT_NE(flat.checksum, 0.0) << ctx;
      EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
      EXPECT_EQ(both.checksum, flat.checksum) << ctx;
      EXPECT_EQ(tree.barriers, flat.barriers) << ctx;
      // At 64 nodes the O(n) master barrier dominates; the tree must win.
      EXPECT_LT(tree.elapsed, flat.elapsed) << ctx;
      // ...and stay bit-exact under a fault plan in the full topology.
      spec.plan = "drop=0.08,dup=0.03";
      spec.fault_seed = 7;
      const harness::RunResult faulty = conformance::run(spec);
      EXPECT_EQ(faulty.checksum, flat.checksum) << spec.replay();
      EXPECT_EQ(faulty.barriers, flat.barriers) << spec.replay();
    }
  }
}

}  // namespace
}  // namespace updsm
