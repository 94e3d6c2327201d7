// Tests for the Cluster/Runtime layer: MMU-checked access, fault counting,
// reductions, measurement windows and API misuse detection.
#include <gtest/gtest.h>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/dsm/null_protocol.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using protocols::ProtocolKind;

ClusterConfig small_config(int nodes = 4) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.page_size = 1024;
  return cfg;
}

TEST(ClusterTest, OutOfBoundsAccessRejected) {
  const ClusterConfig cfg = small_config(1);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(100 * 8, "a");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::Null));
  EXPECT_THROW(cluster.run([&](NodeContext& ctx) {
                 auto arr = ctx.array<double>(a, 100);
                 (void)arr.get(100);  // one past the end
               }),
               UsageError);
}

TEST(ClusterTest, MisalignedArrayRejected) {
  const ClusterConfig cfg = small_config(1);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "pad");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::Null));
  EXPECT_THROW(cluster.run([&](NodeContext& ctx) {
                 (void)ctx.array<double>(3, 4);  // addr 3 not 8-aligned
               }),
               UsageError);
}

TEST(ClusterTest, FaultsAreCounted) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(512 * 8, "a");  // 4 pages
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::LmwI));
  cluster.run([&](NodeContext& ctx) {
    auto arr = ctx.array<double>(a, 512);
    if (ctx.node() == 0) {
      auto w = arr.write_all();  // 4 write faults
      for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0;
    }
    ctx.barrier();
    if (ctx.node() == 1) (void)arr.read_all();  // 4 read faults
    ctx.barrier();
  });
  EXPECT_EQ(cluster.runtime().counters().write_faults, 4u);
  EXPECT_EQ(cluster.runtime().counters().read_faults, 4u);
  // 4 write-fault twins, plus up to 4 more when lmw's single-writer exit
  // re-twins the pages while serving node 1's reads.
  EXPECT_GE(cluster.runtime().counters().twins_created, 4u);
  EXPECT_LE(cluster.runtime().counters().twins_created, 8u);
}

TEST(ClusterTest, RunTwiceRejected) {
  const ClusterConfig cfg = small_config(1);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::Null));
  cluster.run([](NodeContext&) {});
  EXPECT_THROW(cluster.run([](NodeContext&) {}), UsageError);
}

TEST(ClusterTest, NullProtocolRejectsMultipleNodes) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  EXPECT_THROW(
      Cluster(cfg, heap, protocols::make_protocol(ProtocolKind::Null)),
      UsageError);
}

TEST(ClusterTest, HeapPageSizeMustMatch) {
  const ClusterConfig cfg = small_config(1);
  mem::SharedHeap heap(4096);  // != cfg.page_size (1024)
  heap.alloc(64, "x");
  EXPECT_THROW(
      Cluster(cfg, heap, protocols::make_protocol(ProtocolKind::Null)),
      UsageError);
}

TEST(ClusterTest, PartialReductionRejected) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
  EXPECT_THROW(cluster.run([&](NodeContext& ctx) {
                 if (ctx.node() == 0) {
                   (void)ctx.reduce_max(1.0);  // node 1 just barriers
                 } else {
                   ctx.barrier();
                 }
               }),
               UsageError);
}

TEST(ClusterTest, MixedReductionOpsRejected) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
  EXPECT_THROW(cluster.run([&](NodeContext& ctx) {
                 if (ctx.node() == 0) {
                   (void)ctx.reduce_max(1.0);
                 } else {
                   (void)ctx.reduce_sum(1.0);
                 }
               }),
               UsageError);
}

TEST(ClusterTest, ReductionsMatchSequentialSemantics) {
  const ClusterConfig cfg = small_config(8);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::LmwI));
  cluster.run([&](NodeContext& ctx) {
    const double v = ctx.node() == 5 ? -3.5 : static_cast<double>(ctx.node());
    EXPECT_DOUBLE_EQ(ctx.reduce_min(v), -3.5);
    EXPECT_DOUBLE_EQ(ctx.reduce_max(v), 7.0);
    EXPECT_DOUBLE_EQ(ctx.reduce_sum(v), 0 + 1 + 2 + 3 + 4 - 3.5 + 6 + 7);
  });
}

TEST(ClusterTest, MeasurementWindowIsCollective) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
  EXPECT_THROW(cluster.run([&](NodeContext& ctx) {
                 if (ctx.node() == 0) ctx.begin_measurement();
                 ctx.barrier();
               }),
               UsageError);
}

TEST(ClusterTest, MeasurementWindowMustOpenBeforeItCloses) {
  // Closing a window that never opened would report the whole run as the
  // steady state; the cluster refuses instead.
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
  try {
    cluster.run([&](NodeContext& ctx) {
      ctx.compute(sim::msec(5));
      ctx.end_measurement();
      ctx.barrier();
    });
    ADD_FAILURE() << "end without begin was accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("no measurement window"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClusterTest, MeasurementWindowExcludesWarmupAndTail) {
  const ClusterConfig cfg = small_config(2);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(256 * 8, "a");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
  cluster.run([&](NodeContext& ctx) {
    auto arr = ctx.array<double>(a, 256);
    // Warm-up work, excluded from the window.
    ctx.compute(sim::msec(50));
    ctx.begin_measurement();
    ctx.barrier();
    ctx.compute(sim::msec(10));
    (void)arr;
    ctx.end_measurement();
    ctx.barrier();
    // Tail work, also excluded.
    ctx.compute(sim::msec(500));
  });
  const double ms = sim::to_msec(cluster.elapsed());
  EXPECT_GE(ms, 10.0);
  EXPECT_LT(ms, 15.0) << "window should cover only the 10ms of work plus "
                         "barrier costs";
  const auto sum = cluster.breakdown().summed();
  EXPECT_NEAR(sim::to_msec(sum.app), 20.0, 1.0);  // 10ms on each of 2 nodes
}

TEST(ClusterTest, SerialGangsGetOneWorker) {
  // sc-sw drops to the baton and async-u keeps the async gang: both run on
  // the caller's thread, so the runtime sizes one arena whatever
  // config.workers asks. bar-u's parallel gang keeps the workers asked for.
  struct Case {
    ProtocolKind kind;
    sim::GangMode gang;
    sim::GangMode effective;
    int workers;
  };
  for (const Case c :
       {Case{ProtocolKind::ScSw, sim::GangMode::Parallel, sim::GangMode::Baton,
             1},
        Case{ProtocolKind::AsyncU, sim::GangMode::Async, sim::GangMode::Async,
             1},
        Case{ProtocolKind::BarU, sim::GangMode::Parallel,
             sim::GangMode::Parallel, 4}}) {
    SCOPED_TRACE(protocols::to_string(c.kind));
    ClusterConfig cfg = small_config(8);
    cfg.gang = c.gang;
    cfg.workers = 4;
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(8 * 128, "a");
    Cluster cluster(cfg, heap, protocols::make_protocol(c.kind));
    EXPECT_EQ(cluster.gang_mode(), c.effective);
    EXPECT_EQ(cluster.runtime().workers(), c.workers);
    cluster.run([&](NodeContext& ctx) {
      auto arr = ctx.array<double>(a, 128);
      arr.set(static_cast<std::size_t>(ctx.node()) * 16, 1.0);
      ctx.barrier();
    });
    EXPECT_EQ(cluster.barriers(), 1u);
  }
}

TEST(ClusterTest, VirtualTimeIsDeterministic) {
  auto run_once = [] {
    const ClusterConfig cfg = small_config(4);
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(1024 * 8, "a");
    Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
    cluster.run([&](NodeContext& ctx) {
      auto arr = ctx.array<double>(a, 1024);
      const auto me = static_cast<std::size_t>(ctx.node());
      for (int iter = 0; iter < 5; ++iter) {
        ctx.iteration_begin();
        auto w = arr.write_view(me * 256, me * 256 + 256);
        for (std::size_t i = 0; i < 256; ++i) w[i] = iter + i;
        ctx.compute_flops(256);
        ctx.barrier();
        (void)arr.read_view(((me + 1) % 4) * 256, ((me + 1) % 4) * 256 + 256);
        ctx.barrier();
      }
    });
    return cluster.elapsed();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace updsm
