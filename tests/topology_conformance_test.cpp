// Topology conformance: tree barriers and relayed flush dissemination are
// transport-level optimizations, so every observable *result* must be
// bit-identical with them on or off -- across the six paper protocols,
// both gang modes, and a battery of fault plans -- while the *traffic*
// shape changes exactly as designed (the same 2(n-1) sync messages per
// barrier re-routed along the tree; relayed batches noted once in the
// record census however many hops they ride).
//
// Plan count defaults to 6; UPDSM_TOPO_PLANS=<n> shrinks (or grows) the
// battery, which CI uses to keep the sanitizer job inside its time budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "updsm/common/rng.hpp"
#include "updsm/harness/experiment.hpp"

namespace updsm {
namespace {

using protocols::ProtocolKind;
using sim::GangMode;
using sim::MsgKind;

struct Scenario {
  const char* app;
  std::vector<ProtocolKind> kinds;
};

// Same roster as the aggregation suite: tomcat's shifting write set
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

int plan_count() {
  if (const char* env = std::getenv("UPDSM_TOPO_PLANS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 6;
}

/// Same deterministic plan construction as the fault / aggregation
/// batteries, offset so this suite exercises different draws -- and with
/// one arm that hammers the relay hops directly.
std::string make_plan(int i) {
  std::uint64_t x = 0x1998'0330u + 31337u + static_cast<std::uint64_t>(i);
  auto draw = [&x] {
    x = splitmix64(x);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  auto pct = [&](double lo, double hi) {
    const double p = lo + draw() * (hi - lo);
    return std::to_string(p).substr(0, 6);
  };
  switch (i % 4) {
    case 0:
      return "drop=" + pct(0.02, 0.15);
    case 1:
      return "drop=" + pct(0.01, 0.1) + ",dup=" + pct(0.01, 0.1) +
             ",delay=" + pct(0.01, 0.1) + ",delay_us=" +
             std::to_string(50 + static_cast<int>(draw() * 400));
    case 2:  // hammer the dissemination tree directly: a lost hop loses
             // every segment aboard, the whole destination subtree heals
      return std::string("kind=flush-relay,drop=") + pct(0.1, 0.3) +
             ";drop=" + pct(0.0, 0.05);
    default:
      return "from=0,to=1,drop=" + pct(0.1, 0.3) + ";drop=" + pct(0.01, 0.08) +
             ";node=1,stall=" + pct(0.1, 0.4) + ",stall_us=" +
             std::to_string(100 + static_cast<int>(draw() * 800));
  }
}

struct Topology {
  int barrier_fanout = 0;   // 0 = flat master barrier
  int relay_threshold = 0;  // 0 = unicast flush batches
};

harness::RunResult run_one(const char* app, ProtocolKind kind, GangMode gang,
                           Topology topo, int nodes, double scale,
                           const std::string& plan, std::uint64_t fault_seed) {
  apps::AppParams params;
  params.scale = scale;
  params.warmup_iterations = 4;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.gang = gang;
  cfg.barrier_fanout = topo.barrier_fanout;
  cfg.relay_threshold = topo.relay_threshold;
  if (!plan.empty()) {
    cfg.faults = sim::FaultSpec::parse(plan);
    cfg.fault_seed = fault_seed;
  }
  return harness::run_app(app, kind, cfg, params);
}

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
      const harness::RunResult flat = run_one(
          "jacobi", ProtocolKind::BarU, GangMode::Parallel, {0, 0}, nodes,
          0.1, plan, 7);
      const harness::RunResult tree = run_one(
          "jacobi", ProtocolKind::BarU, GangMode::Parallel, {nodes - 1, 0},
          nodes, 0.1, plan, 7);
      const std::string ctx =
          std::to_string(nodes) + " nodes, plan '" + plan + "'";
      EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
      EXPECT_EQ(tree.elapsed, flat.elapsed) << ctx;
      EXPECT_EQ(tree.net.table_messages(), flat.net.table_messages()) << ctx;
      EXPECT_EQ(tree.net.total_bytes(), flat.net.total_bytes()) << ctx;
      EXPECT_EQ(tree.counters.reliable_retries.load(),
                flat.counters.reliable_retries.load())
          << ctx;
      ASSERT_EQ(tree.breakdown.nodes.size(), flat.breakdown.nodes.size());
      for (std::size_t i = 0; i < flat.breakdown.nodes.size(); ++i) {
        const auto& a = flat.breakdown.nodes[i];
        const auto& b = tree.breakdown.nodes[i];
        EXPECT_EQ(b.app, a.app) << ctx << " node " << i;
        EXPECT_EQ(b.dsm, a.dsm) << ctx << " node " << i;
        EXPECT_EQ(b.os, a.os) << ctx << " node " << i;
        EXPECT_EQ(b.wait, a.wait) << ctx << " node " << i;
        EXPECT_EQ(b.sigio, a.sigio) << ctx << " node " << i;
      }
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
        const harness::RunResult flat =
            run_one(sc.app, kind, gang, {0, 0}, 8, 0.1, "", 0);
        for (const int fanout : {2, 8}) {
          const harness::RunResult tree =
              run_one(sc.app, kind, gang, {fanout, 0}, 8, 0.1, "", 0);
          const std::string ctx =
              std::string(sc.app) + " under " + protocols::to_string(kind) +
              (gang == GangMode::Baton ? " baton" : " par") + " fanout " +
              std::to_string(fanout);
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
      const harness::RunResult uni =
          run_one(app, kind, GangMode::Parallel, {0, 0}, 8, 0.25, "", 0);
      const harness::RunResult rel =
          run_one(app, kind, GangMode::Parallel, {0, 2}, 8, 0.25, "", 0);
      const std::string ctx =
          std::string(app) + " under " + protocols::to_string(kind);
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
  const harness::RunResult uni =
      run_one("fft", ProtocolKind::BarU, GangMode::Parallel, {0, 0}, 8, 0.25,
              "", 0);
  const harness::RunResult rel =
      run_one("fft", ProtocolKind::BarU, GangMode::Parallel, {0, 2}, 8, 0.25,
              "", 0);
  ASSERT_GT(rel.counters.relay_batches.load(), 0u);
  EXPECT_LT(rel.net.flush_class_messages(), uni.net.flush_class_messages());
}

// Under faults the packet pattern differs by topology (a dropped relay hop
// loses a whole subtree's segments; a dropped tree sync retries on a
// different edge), but the *result* must still match the fault-free
// baseline bit-for-bit in every topology, and both gang modes must agree
// on every observable.
TEST(TopologyConformanceTest, TopologiesBitExactUnderFaults) {
  const int plans = plan_count();
  const std::vector<Topology> topologies{{0, 0}, {4, 0}, {0, 2}, {4, 2}};
  for (const Scenario& sc : scenarios()) {
    for (const ProtocolKind kind : sc.kinds) {
      const harness::RunResult base =
          run_one(sc.app, kind, GangMode::Parallel, {0, 0}, 8, 0.1, "", 0);
      for (int i = 0; i < plans; ++i) {
        const std::string plan = make_plan(i);
        const std::uint64_t seed = 6000u + static_cast<std::uint64_t>(i);
        for (const Topology topo : topologies) {
          const harness::RunResult faulty = run_one(
              sc.app, kind, GangMode::Parallel, topo, 8, 0.1, plan, seed);
          const std::string ctx =
              std::string(sc.app) + " under " + protocols::to_string(kind) +
              " plan " + std::to_string(i) + " [" + plan + "] fanout " +
              std::to_string(topo.barrier_fanout) + " relay " +
              std::to_string(topo.relay_threshold);
          EXPECT_EQ(faulty.checksum, base.checksum) << ctx;
          EXPECT_EQ(faulty.barriers, base.barriers) << ctx;

          const harness::RunResult baton = run_one(
              sc.app, kind, GangMode::Baton, topo, 8, 0.1, plan, seed);
          EXPECT_EQ(baton.checksum, faulty.checksum) << ctx;
          EXPECT_EQ(baton.elapsed, faulty.elapsed) << ctx;
          EXPECT_EQ(baton.net.total_bytes(), faulty.net.total_bytes()) << ctx;
          EXPECT_EQ(baton.net.total_dropped(), faulty.net.total_dropped())
              << ctx;
          EXPECT_EQ(baton.counters.relay_messages.load(),
                    faulty.counters.relay_messages.load())
              << ctx;
          EXPECT_EQ(baton.counters.relay_subtree_losses.load(),
                    faulty.counters.relay_subtree_losses.load())
              << ctx;
        }
      }
    }
  }
}

// The scaling smoke at a post-64 cluster size the flat protocol stack was
// never allowed to reach before: 64 nodes, every topology combination,
// bit-identical results -- and the tree barrier strictly cheaper in
// simulated time for the barrier-dominated update protocol.
TEST(TopologyConformanceTest, SixtyFourNodesBitExactAcrossTopologies) {
  for (const char* app : {"jacobi", "fft"}) {
    for (const ProtocolKind kind : {ProtocolKind::LmwU, ProtocolKind::BarU}) {
      const std::string ctx = std::string(app) + " at 64 nodes under " +
                              protocols::to_string(kind);
      const harness::RunResult flat =
          run_one(app, kind, GangMode::Parallel, {0, 0}, 64, 0.1, "", 0);
      const harness::RunResult tree =
          run_one(app, kind, GangMode::Parallel, {4, 0}, 64, 0.1, "", 0);
      const harness::RunResult both =
          run_one(app, kind, GangMode::Parallel, {4, 4}, 64, 0.1, "", 0);
      ASSERT_NE(flat.checksum, 0.0) << ctx;
      EXPECT_EQ(tree.checksum, flat.checksum) << ctx;
      EXPECT_EQ(both.checksum, flat.checksum) << ctx;
      EXPECT_EQ(tree.barriers, flat.barriers) << ctx;
      // At 64 nodes the O(n) master barrier dominates; the tree must win.
      EXPECT_LT(tree.elapsed, flat.elapsed) << ctx;
      // ...and stay bit-exact under a fault plan in the full topology.
      const std::string plan = "drop=0.08,dup=0.03";
      const harness::RunResult faulty = run_one(
          app, kind, GangMode::Parallel, {4, 4}, 64, 0.1, plan, 7);
      EXPECT_EQ(faulty.checksum, flat.checksum) << ctx;
      EXPECT_EQ(faulty.barriers, flat.barriers) << ctx;
    }
  }
}

}  // namespace
}  // namespace updsm
