// Additional protocol-level coverage: the factory, the sc-sw baseline,
// loss-rate robustness sweeps, and page-size sweeps over the full
// correctness matrix.
#include <gtest/gtest.h>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/protocols/factory.hpp"
#include "updsm/protocols/sc_sw.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using protocols::ProtocolKind;

TEST(FactoryTest, RoundTripsEveryName) {
  for (const auto kind :
       {ProtocolKind::LmwI, ProtocolKind::LmwU, ProtocolKind::BarI,
        ProtocolKind::BarU, ProtocolKind::BarS, ProtocolKind::BarM,
        ProtocolKind::ScSw, ProtocolKind::Null}) {
    EXPECT_EQ(protocols::protocol_from_string(protocols::to_string(kind)),
              kind);
    auto protocol = protocols::make_protocol(kind);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->name(), protocols::to_string(kind));
  }
  EXPECT_THROW((void)protocols::protocol_from_string("bogus"), UsageError);
}

TEST(FactoryTest, PaperProtocolListsAreOrdered) {
  const auto base = protocols::base_protocols();
  ASSERT_EQ(base.size(), 4u);
  EXPECT_EQ(base.front(), ProtocolKind::LmwI);
  EXPECT_EQ(base.back(), ProtocolKind::BarU);
  const auto all = protocols::all_paper_protocols();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all.back(), ProtocolKind::BarM);
}

// --- sc-sw ---------------------------------------------------------------------

ClusterConfig sc_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.page_size = 1024;
  return cfg;
}

TEST(ScSwTest, SingleWriterInvalidateIsCoherent) {
  const ClusterConfig cfg = sc_config();
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(256 * 8, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::ScSw));
  cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<std::uint64_t>(a, 256);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 4; ++iter) {
      // Element accessors only: sc-sw revokes access mid-epoch.
      for (std::size_t i = me; i < 256; i += 4) {
        x.set(i, iter * 1000 + i);
      }
      ctx.barrier();
      for (std::size_t i = 0; i < 256; i += 17) {
        ASSERT_EQ(x.get(i), iter * 1000 + i);
      }
      ctx.barrier();
    }
  });
  EXPECT_EQ(cluster.runtime().counters().diffs_created, 0u)
      << "sequentially consistent single-writer needs no diffs at all";
  EXPECT_GT(cluster.runtime().counters().pages_fetched, 0u);
}

TEST(ScSwTest, OwnershipFollowsTheWriter) {
  const ClusterConfig cfg = sc_config();
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");
  auto protocol = protocols::make_protocol(ProtocolKind::ScSw);
  auto* sc = dynamic_cast<protocols::ScSwProtocol*>(protocol.get());
  ASSERT_NE(sc, nullptr);
  Cluster cluster(cfg, heap, std::move(protocol));
  cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<std::uint64_t>(a, 128);
    const int n = ctx.num_nodes();
    for (int hop = 0; hop < 2 * n; ++hop) {
      if (hop % n == ctx.node()) x.set(0, static_cast<std::uint64_t>(hop));
      ctx.barrier();
    }
  });
  // Last writer of the page was node (2n-1) % n == n-1.
  EXPECT_EQ(sc->owner(PageId{0}).value(), 3u);
}

TEST(ScSwTest, FalseSharingForcesArbitrationTraffic) {
  const ClusterConfig cfg = sc_config();
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");

  auto traffic = [&](ProtocolKind kind) {
    Cluster cluster(cfg, heap, protocols::make_protocol(kind));
    cluster.run([&](NodeContext& ctx) {
      auto x = ctx.array<std::uint64_t>(a, 128);
      const auto me = static_cast<std::size_t>(ctx.node());
      for (int iter = 0; iter < 6; ++iter) {
        for (std::size_t i = me; i < 128; i += 4) x.set(i, iter);
        ctx.barrier();
      }
    });
    return cluster.runtime().net().stats().total_one_way_messages();
  };
  // Concurrent writers on one page: the SC protocol must arbitrate
  // ownership inside every epoch; multi-writer LRC needs only barrier
  // traffic after single-... (page is multi-writer, so never exclusive).
  EXPECT_GT(traffic(ProtocolKind::ScSw), traffic(ProtocolKind::BarU));
}

// --- loss-rate robustness sweep ------------------------------------------------

class DropRateTest : public ::testing::TestWithParam<double> {};

TEST_P(DropRateTest, UpdateProtocolsSurviveAnyLossRate) {
  apps::AppParams params;
  params.scale = 0.2;
  params.warmup_iterations = 3;
  params.measured_iterations = 3;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.faults = sim::FaultSpec::parse("kind=flushbatch,drop=" +
                                     std::to_string(GetParam()));
  cfg.fault_seed = 5;
  // bar-u's diffs to home ride the same batches as its pushes, but
  // reliably: give them enough retries to get through at 95 % loss
  // (0.95^1000 is nil) while nearly every push is still lost.
  cfg.retry.max_attempts = 1000;

  // lmw-u stages only unreliable pushes, so it survives any loss rate.
  // At 100 % loss a reliable batch can never arrive, so bar-u sweeps
  // everything short of that.
  std::vector<ProtocolKind> kinds{ProtocolKind::LmwU};
  if (GetParam() < 1.0) kinds.push_back(ProtocolKind::BarU);
  for (const auto kind : kinds) {
    const auto seq = harness::run_sequential("expl", cfg, params);
    const auto par = harness::run_app("expl", kind, cfg, params);
    EXPECT_EQ(par.checksum, seq.checksum)
        << protocols::to_string(kind) << " diverged at drop rate "
        << GetParam();
    if (GetParam() > 0.9) {
      // With (nearly) every flush lost, updates cannot help: the run must
      // fall back to demand misses.
      EXPECT_GT(par.counters.remote_misses, 0u);
    }
  }
  if (GetParam() == 1.0) {
    // ...and a reliable batch that can never get through fails loudly
    // instead of leaving a home stale.
    EXPECT_THROW(
        (void)harness::run_app("expl", ProtocolKind::BarU, cfg, params),
        ProtocolError);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, DropRateTest,
                         ::testing::Values(0.0, 0.1, 0.5, 0.95, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "drop" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

// --- page-size sweep -------------------------------------------------------------

struct PageSizeCase {
  std::uint32_t page_size;
  ProtocolKind kind;
};

class PageSizeTest : public ::testing::TestWithParam<PageSizeCase> {};

TEST_P(PageSizeTest, ValidationHoldsAtEveryGranularity) {
  apps::AppParams params;
  params.scale = 0.25;
  params.warmup_iterations = 5;
  params.measured_iterations = 2;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.page_size = GetParam().page_size;
  const auto seq = harness::run_sequential("jacobi", cfg, params);
  const auto par = harness::run_app("jacobi", GetParam().kind, cfg, params);
  EXPECT_EQ(par.checksum, seq.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, PageSizeTest,
    ::testing::Values(PageSizeCase{1024, ProtocolKind::LmwI},
                      PageSizeCase{1024, ProtocolKind::BarU},
                      PageSizeCase{4096, ProtocolKind::LmwU},
                      PageSizeCase{4096, ProtocolKind::BarM},
                      PageSizeCase{16384, ProtocolKind::BarI},
                      PageSizeCase{16384, ProtocolKind::BarS},
                      PageSizeCase{32768, ProtocolKind::BarU}),
    [](const ::testing::TestParamInfo<PageSizeCase>& info) {
      return std::string("p") + std::to_string(info.param.page_size) + "_" +
             [&] {
               std::string name = protocols::to_string(info.param.kind);
               for (char& c : name) {
                 if (c == '-') c = '_';
               }
               return name;
             }();
    });

// --- node-count sweep of the core coherence patterns ---------------------------

struct NodeSweepCase {
  ProtocolKind kind;
  int nodes;
};

class NodeSweepTest : public ::testing::TestWithParam<NodeSweepCase> {};

TEST_P(NodeSweepTest, ProducerConsumerAndFalseSharing) {
  ClusterConfig cfg;
  cfg.num_nodes = GetParam().nodes;
  cfg.page_size = 1024;
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 773;  // deliberately not a round number
  const GlobalAddr a =
      heap.alloc_page_aligned(kCount * sizeof(std::uint64_t), "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam().kind));
  cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<std::uint64_t>(a, kCount);
    const auto nodes = static_cast<std::size_t>(ctx.num_nodes());
    const auto me = static_cast<std::size_t>(ctx.node());
    for (std::uint64_t iter = 1; iter <= 4; ++iter) {
      ctx.iteration_begin();
      // Interleaved writes: every page multi-writer at > 1 node.
      for (std::size_t i = me; i < kCount; i += nodes) {
        x.set(i, iter * 1000 + i);
      }
      ctx.barrier();
      for (std::size_t i = 0; i < kCount; i += 31) {
        ASSERT_EQ(x.get(i), iter * 1000 + i)
            << "iter " << iter << " index " << i << " nodes "
            << GetParam().nodes;
      }
      ctx.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NodeSweepTest,
    ::testing::Values(NodeSweepCase{ProtocolKind::LmwI, 2},
                      NodeSweepCase{ProtocolKind::LmwI, 16},
                      NodeSweepCase{ProtocolKind::LmwU, 3},
                      NodeSweepCase{ProtocolKind::LmwU, 12},
                      NodeSweepCase{ProtocolKind::BarI, 2},
                      NodeSweepCase{ProtocolKind::BarI, 16},
                      NodeSweepCase{ProtocolKind::BarU, 3},
                      NodeSweepCase{ProtocolKind::BarU, 12},
                      NodeSweepCase{ProtocolKind::BarU, 64},
                      NodeSweepCase{ProtocolKind::ScSw, 5}),
    [](const ::testing::TestParamInfo<NodeSweepCase>& info) {
      std::string name = protocols::to_string(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(info.param.nodes);
    });

}  // namespace
}  // namespace updsm
