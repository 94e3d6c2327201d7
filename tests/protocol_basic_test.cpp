// Protocol correctness matrix on small synthetic sharing patterns.
//
// Every protocol must make shared memory behave identically to sequential
// execution for data-race-free, barrier-synchronized programs. These tests
// exercise the canonical patterns the paper's applications are built from:
// producer/consumer, multi-writer false sharing, migratory data, rotating
// producers, and reductions -- each validated element-by-element.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using protocols::ProtocolKind;

class ProtocolMatrixTest : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  ClusterConfig config() const {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.page_size = 1024;  // small pages keep the tests fast
    return cfg;
  }
};

TEST_P(ProtocolMatrixTest, ProducerConsumer) {
  const ClusterConfig cfg = config();
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 1000;  // spans several pages
  const GlobalAddr base =
      heap.alloc_page_aligned(kCount * sizeof(std::uint64_t), "data");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    auto data = ctx.array<std::uint64_t>(base, kCount);
    for (std::uint64_t iter = 1; iter <= 5; ++iter) {
      ctx.iteration_begin();
      if (ctx.node() == 0) {
        auto w = data.write_all();
        for (std::size_t i = 0; i < kCount; ++i) w[i] = iter * 1000 + i;
      }
      ctx.barrier();
      auto r = data.read_all();
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(r[i], iter * 1000 + i)
            << "node " << ctx.node() << " iter " << iter << " index " << i;
      }
      ctx.barrier();
    }
  });
}

TEST_P(ProtocolMatrixTest, MultiWriterFalseSharing) {
  const ClusterConfig cfg = config();
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 512;  // all four nodes write every page
  const GlobalAddr base =
      heap.alloc_page_aligned(kCount * sizeof(std::uint64_t), "data");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    auto data = ctx.array<std::uint64_t>(base, kCount);
    const auto nodes = static_cast<std::size_t>(ctx.num_nodes());
    const auto me = static_cast<std::size_t>(ctx.node());
    for (std::uint64_t iter = 1; iter <= 4; ++iter) {
      ctx.iteration_begin();
      // Interleaved ownership: node k writes elements k, k+N, k+2N, ...
      // Every page is concurrently written by every node (pure false
      // sharing) -- the multi-writer case of paper §2.1.
      for (std::size_t i = me; i < kCount; i += nodes) {
        data.set(i, iter * 10000 + i);
      }
      ctx.barrier();
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(data.get(i), iter * 10000 + i)
            << "node " << me << " iter " << iter << " index " << i;
      }
      ctx.barrier();
    }
  });
}

TEST_P(ProtocolMatrixTest, RotatingProducer) {
  // The producer role moves every iteration: sharing is iterative but NOT
  // stable, stressing copyset staleness and (for bar) non-home writers.
  const ClusterConfig cfg = config();
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 600;
  const GlobalAddr base =
      heap.alloc_page_aligned(kCount * sizeof(std::uint64_t), "data");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    auto data = ctx.array<std::uint64_t>(base, kCount);
    for (std::uint64_t iter = 1; iter <= 6; ++iter) {
      const int producer = static_cast<int>(iter) % ctx.num_nodes();
      if (ctx.node() == producer) {
        auto w = data.write_all();
        for (std::size_t i = 0; i < kCount; ++i) w[i] = iter * 100 + i % 97;
      }
      ctx.barrier();
      for (std::size_t i = 0; i < kCount; i += 37) {
        ASSERT_EQ(data.get(i), iter * 100 + i % 97);
      }
      ctx.barrier();
    }
  });
}

TEST_P(ProtocolMatrixTest, MigratoryData) {
  // Figure 1's pattern: a value hops node to node, each reading the
  // previous node's writes and extending them.
  const ClusterConfig cfg = config();
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr base =
      heap.alloc_page_aligned(64 * sizeof(std::uint64_t), "token");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    auto token = ctx.array<std::uint64_t>(base, 64);
    const int n = ctx.num_nodes();
    for (int hop = 0; hop < 3 * n; ++hop) {
      if (hop % n == ctx.node()) {
        const std::uint64_t prev = hop == 0 ? 0 : token.get(0);
        ASSERT_EQ(prev, static_cast<std::uint64_t>(hop));
        token.set(0, prev + 1);
      }
      ctx.barrier();
    }
    ASSERT_EQ(token.get(0), static_cast<std::uint64_t>(3 * n));
  });
}

TEST_P(ProtocolMatrixTest, Reductions) {
  const ClusterConfig cfg = config();
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "dummy");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    const double mine = static_cast<double>(ctx.node() + 1);
    EXPECT_DOUBLE_EQ(ctx.reduce_max(mine), 4.0);
    EXPECT_DOUBLE_EQ(ctx.reduce_min(mine), 1.0);
    EXPECT_DOUBLE_EQ(ctx.reduce_sum(mine), 10.0);
  });
}

TEST_P(ProtocolMatrixTest, UnreliableFlushesNeverBreakCorrectness) {
  // Paper §2.1.2: "lost flush messages do not affect correctness, only
  // performance". Drop 40% of all flush batches (update pushes are lost,
  // diffs to home are retried) and re-run the stencil pattern; results
  // must be identical.
  ClusterConfig cfg = config();
  cfg.faults = sim::FaultSpec::parse("kind=flushbatch,drop=0.4");
  cfg.fault_seed = 3;
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 800;
  const GlobalAddr base =
      heap.alloc_page_aligned(kCount * sizeof(std::uint64_t), "data");

  Cluster cluster(cfg, heap, protocols::make_protocol(GetParam()));
  cluster.run([&](NodeContext& ctx) {
    auto data = ctx.array<std::uint64_t>(base, kCount);
    const auto nodes = static_cast<std::size_t>(ctx.num_nodes());
    const auto me = static_cast<std::size_t>(ctx.node());
    const std::size_t chunk = kCount / nodes;
    for (std::uint64_t iter = 1; iter <= 6; ++iter) {
      ctx.iteration_begin();
      auto w = data.write_view(me * chunk, (me + 1) * chunk);
      for (std::size_t i = 0; i < chunk; ++i) {
        w[i] = iter * 31 + (me * chunk + i);
      }
      ctx.barrier();
      // Read the two neighbouring chunks (stencil-style consumption).
      const std::size_t left = (me + nodes - 1) % nodes;
      const std::size_t right = (me + 1) % nodes;
      for (const std::size_t owner : {left, right}) {
        auto r = data.read_view(owner * chunk, (owner + 1) * chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
          ASSERT_EQ(r[i], iter * 31 + (owner * chunk + i));
        }
      }
      ctx.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolMatrixTest,
    ::testing::Values(ProtocolKind::LmwI, ProtocolKind::LmwU,
                      ProtocolKind::BarI, ProtocolKind::BarU),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = protocols::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace updsm
