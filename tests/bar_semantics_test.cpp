// Protocol-semantics tests specific to the home-based bar protocols: the
// home effect, diff lifetimes (Figure 1's contrast), version indices,
// runtime home migration, copyset convergence and the home-private path.
#include <gtest/gtest.h>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/protocols/bar.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using protocols::BarProtocol;
using protocols::ProtocolKind;

ClusterConfig config(int nodes = 4) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.page_size = 1024;
  return cfg;
}

struct BarCluster {
  explicit BarCluster(const ClusterConfig& cfg, const mem::SharedHeap& heap,
                      ProtocolKind kind = ProtocolKind::BarU)
      : protocol_owner(protocols::make_protocol(kind)),
        bar(dynamic_cast<BarProtocol*>(protocol_owner.get())),
        cluster(cfg, heap, std::move(protocol_owner)) {}
  std::unique_ptr<dsm::CoherenceProtocol> protocol_owner;
  BarProtocol* bar;
  Cluster cluster;
};

TEST(BarSemanticsTest, HomeEffectCreatesNoDiffsForHomeWrites) {
  // A page written only by its (migrated) home and read by one consumer:
  // bar-i must satisfy the consumer with whole-page fetches, never diffs.
  const ClusterConfig cfg = config(2);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");
  BarCluster b(cfg, heap, ProtocolKind::BarI);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 128);
    for (int iter = 1; iter <= 6; ++iter) {
      ctx.iteration_begin();
      if (ctx.node() == 0) {
        auto w = x.write_view(0, 128);
        for (std::size_t i = 0; i < 128; ++i) w[i] = iter * 5.0 + i;
      }
      ctx.barrier();
      if (ctx.node() == 1) {
        EXPECT_DOUBLE_EQ(x.get(9), iter * 5.0 + 9);
      }
      ctx.barrier();
    }
  });
  EXPECT_EQ(b.cluster.runtime().counters().diffs_created, 0u)
      << "the home effect: home writes need no diffs under bar-i";
  EXPECT_GT(b.cluster.runtime().counters().pages_fetched, 4u);
}

TEST(BarSemanticsTest, MigrationMovesHomesToWriters) {
  const ClusterConfig cfg = config(4);
  mem::SharedHeap heap(cfg.page_size);
  constexpr std::size_t kCount = 512;  // 4 pages of doubles
  const GlobalAddr a = heap.alloc_page_aligned(kCount * 8, "x");
  BarCluster b(cfg, heap);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, kCount);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 5; ++iter) {
      ctx.iteration_begin();
      // Node k writes page (k+1)%4: every page's writer differs from its
      // initial (block-distributed) home.
      const std::size_t target = (me + 1) % 4;
      auto w = x.write_view(target * 128, target * 128 + 128);
      for (std::size_t i = 0; i < 128; ++i) w[i] = iter + i;
      ctx.barrier();
    }
  });
  ASSERT_TRUE(b.bar->migration_done());
  EXPECT_EQ(b.cluster.runtime().counters().migrations, 4u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(b.bar->home(PageId{p}).value(), (p + 4 - 1) % 4)
        << "page " << p << " must be homed at its writer";
  }
}

TEST(BarSemanticsTest, MigrationCanBeDisabled) {
  ClusterConfig cfg = config(4);
  cfg.home_migration = false;
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(512 * 8, "x");
  BarCluster b(cfg, heap);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 512);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 4; ++iter) {
      ctx.iteration_begin();
      const std::size_t target = (me + 1) % 4;
      auto w = x.write_view(target * 128, target * 128 + 128);
      for (std::size_t i = 0; i < 128; ++i) w[i] = iter + i;
      ctx.barrier();
    }
  });
  EXPECT_FALSE(b.bar->migration_done());
  EXPECT_EQ(b.cluster.runtime().counters().migrations, 0u);
}

TEST(BarSemanticsTest, VersionsAreMonotoneAndBumpOnlyOnRealChange) {
  const ClusterConfig cfg = config(2);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");
  BarCluster b(cfg, heap);
  std::vector<std::uint64_t> versions;
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 128);
    for (int iter = 1; iter <= 6; ++iter) {
      ctx.iteration_begin();
      if (ctx.node() == 1) {
        // Iterations 4+: write the SAME values -> empty diffs.
        auto w = x.write_view(0, 128);
        for (std::size_t i = 0; i < 128; ++i) {
          w[i] = std::min(iter, 4) * 3.0 + i;
        }
      }
      ctx.barrier();
      if (ctx.node() == 0) {
        (void)x.get(1);
        versions.push_back(b.bar->version(PageId{0}));
      }
      ctx.barrier();
    }
  });
  ASSERT_EQ(versions.size(), 6u);
  EXPECT_TRUE(std::is_sorted(versions.begin(), versions.end()));
  // Non-home writer with a twin: zero-length diffs must not bump versions.
  EXPECT_EQ(versions[4], versions[3]);
  EXPECT_EQ(versions[5], versions[4]);
}

TEST(BarSemanticsTest, UpdatesEliminateMissesByIterationTwo) {
  // Paper §2.2.1: "On the first iteration of the time-step loop, the
  // copysets of each page are empty and page faults occur. By the second
  // iteration, copyset information indicates the processors that need each
  // page."
  const ClusterConfig cfg = config(4);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(512 * 8, "x");
  BarCluster b(cfg, heap);
  std::uint64_t misses_after_warmup = 0;
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 512);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 8; ++iter) {
      ctx.iteration_begin();
      auto w = x.write_view(me * 128, me * 128 + 128);
      for (std::size_t i = 0; i < 128; ++i) w[i] = iter * 2.0 + i;
      ctx.barrier();
      const std::size_t peer = (me + 1) % 4;
      auto r = x.read_view(peer * 128, peer * 128 + 128);
      EXPECT_DOUBLE_EQ(r[0], iter * 2.0);
      ctx.barrier();
      if (iter == 3 && ctx.node() == 0) {
        misses_after_warmup = b.cluster.runtime().counters().remote_misses;
      }
    }
  });
  EXPECT_EQ(b.cluster.runtime().counters().remote_misses, misses_after_warmup)
      << "no remote misses once copysets converged";
  EXPECT_GT(b.cluster.runtime().counters().updates_applied, 0u);
}

TEST(BarSemanticsTest, HomePrivatePagesStopAllProtocolWork) {
  const ClusterConfig cfg = config(4);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(512 * 8, "x");
  BarCluster b(cfg, heap);
  std::uint64_t diffs_mid = 0;
  std::uint64_t segvs_mid = 0;
  auto count_segvs = [&] {
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i) {
      total += b.cluster.runtime()
                   .os(NodeId{static_cast<std::uint32_t>(i)})
                   .counters()
                   .segvs;
    }
    return total;
  };
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 512);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 10; ++iter) {
      ctx.iteration_begin();
      auto w = x.write_view(me * 128, me * 128 + 128);  // purely private
      for (std::size_t i = 0; i < 128; ++i) w[i] = iter + i;
      ctx.barrier();
      if (iter == 4 && ctx.node() == 0) {
        diffs_mid = b.cluster.runtime().counters().diffs_created;
        segvs_mid = count_segvs();
      }
    }
  });
  EXPECT_EQ(b.cluster.runtime().counters().diffs_created, diffs_mid);
  EXPECT_EQ(count_segvs(), segvs_mid)
      << "untracked home pages take no write traps at all";
  EXPECT_GT(b.cluster.runtime().counters().private_entries, 0u);
}

TEST(BarSemanticsTest, LateConsumerRetracksPrivatePage) {
  const ClusterConfig cfg = config(2);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");
  BarCluster b(cfg, heap);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 128);
    for (int iter = 1; iter <= 8; ++iter) {
      ctx.iteration_begin();
      if (ctx.node() == 0) {
        auto w = x.write_view(0, 128);
        for (std::size_t i = 0; i < 128; ++i) w[i] = iter * 7.0 + i;
      }
      ctx.barrier();
      // Node 1 only starts reading at iteration 5, after the page went
      // home-private: the fetch must retrack it and deliver fresh data
      // from then on.
      if (ctx.node() == 1 && iter >= 5) {
        EXPECT_DOUBLE_EQ(x.get(3), iter * 7.0 + 3) << "iter " << iter;
      }
      ctx.barrier();
    }
  });
  EXPECT_GT(b.cluster.runtime().counters().private_entries, 0u);
  EXPECT_GT(b.cluster.runtime().counters().private_exits, 0u);
}

TEST(BarSemanticsTest, StaticHomeAnnotationsAreHonored) {
  // Zhou-style annotations (§2.2.1): the user assigns homes; with a good
  // assignment and migration disabled, the home effect applies from the
  // first iteration -- no diffs, no migrations.
  ClusterConfig cfg = config(4);
  cfg.home_migration = false;
  cfg.static_homes = {3, 0, 1, 2};  // page k is written by node (k+3)%4
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(512 * 8, "x");
  BarCluster b(cfg, heap, ProtocolKind::BarI);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 512);
    const auto me = static_cast<std::size_t>(ctx.node());
    for (int iter = 1; iter <= 4; ++iter) {
      ctx.iteration_begin();
      const std::size_t target = (me + 1) % 4;
      auto w = x.write_view(target * 128, target * 128 + 128);
      for (std::size_t i = 0; i < 128; ++i) w[i] = iter + i;
      ctx.barrier();
    }
  });
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(b.bar->home(PageId{p}).value(), (p + 3) % 4);
  }
  EXPECT_EQ(b.cluster.runtime().counters().diffs_created, 0u)
      << "a correct annotation gives the home effect without migration";
  EXPECT_EQ(b.cluster.runtime().counters().migrations, 0u);
}

TEST(BarSemanticsTest, RemoteReadFaultCostsTheModelledPageFault) {
  // After loop entry dropped node 1's replica, one read of a page homed at
  // node 0 takes the whole remote-fault path: segv dispatch, the page
  // transfer, the page-in bookkeeping and the re-protect. Node 1's clock
  // must advance by exactly the composite cost the adaptive policy prices
  // an invalidation with.
  for (const char* profile : {"sp2", "rdma"}) {
    for (const ProtocolKind kind : {ProtocolKind::BarI, ProtocolKind::BarU}) {
      ClusterConfig cfg;
      cfg.num_nodes = 2;
      cfg.gang = sim::GangMode::Baton;
      cfg.costs = sim::CostModel::from_profile(profile);
      mem::SharedHeap heap(cfg.page_size);
      const GlobalAddr a = heap.alloc_page_aligned(2 * cfg.page_size, "x");
      BarCluster b(cfg, heap, kind);
      sim::SimTime cost = -1;
      b.cluster.run([&](NodeContext& ctx) {
        auto x = ctx.array<double>(a, 2 * cfg.page_size / 8);
        ctx.iteration_begin();
        if (ctx.node() == 1) {
          const sim::VirtualClock& clock =
              b.cluster.runtime().clock(NodeId{1});
          const sim::SimTime before = clock.now();
          (void)x.get(0);
          cost = clock.now() - before;
        }
        ctx.barrier();
      });
      EXPECT_EQ(b.bar->home(PageId{0}), NodeId{0});
      EXPECT_EQ(cost, cfg.costs.remote_page_fault(cfg.page_size))
          << profile << " " << protocols::to_string(kind);
    }
  }
  // The model's figures for the default 8 KB page.
  EXPECT_EQ(sim::CostModel::sp2_defaults().remote_page_fault(8192), 956752);
  EXPECT_EQ(sim::CostModel::rdma_defaults().remote_page_fault(8192), 602981);
}

TEST(BarSemanticsTest, BadStaticHomeAnnotationsRejected) {
  ClusterConfig cfg = config(2);
  cfg.static_homes = {7};  // node 7 does not exist
  mem::SharedHeap heap(cfg.page_size);
  heap.alloc_page_aligned(64, "x");
  EXPECT_THROW(BarCluster(cfg, heap), UsageError);
}

TEST(BarSemanticsTest, DiffsDieAtTheBarrier) {
  // Figure 1's contrast: under home-based protocols "both diffs can be
  // immediately discarded". Our bar implementation keeps no diff store at
  // all -- the retained-diff statistic must stay zero.
  const ClusterConfig cfg = config(3);
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(128 * 8, "x");
  BarCluster b(cfg, heap);
  b.cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<double>(a, 128);
    const int n = ctx.num_nodes();
    for (int hop = 0; hop < 3 * n; ++hop) {
      if (hop % n == ctx.node()) x.set(0, x.get(0) + 1.0);
      ctx.barrier();
    }
    EXPECT_DOUBLE_EQ(x.get(0), 3.0 * n);
  });
  EXPECT_EQ(b.cluster.runtime().counters().retained_diff_bytes_peak, 0u);
}

TEST(BarSemanticsTest, TwoCreatorPushesApplyFromTheSealedBatch) {
  // bar-u applies each update push straight from the sealed batch that
  // delivered it. Nodes 1 and 2 each write their half of two pages homed
  // at node 0 (two creators per page, two pages per batch), node 3 reads
  // both on even iterations; a fault plan drops some of node 2's batches
  // to node 3, whose release must then invalidate the page (a recovery
  // fault) instead of applying half the pushes, and ignore the pushes
  // that reach its invalid copy until it reads again. The baton run,
  // nodes one at a time in node order, is the sequential reference: the
  // parallel gang at 1 and 3 workers must count and leave every byte
  // exactly as it does.
  constexpr std::size_t kPerPage = 128;  // doubles in a 1024 B page
  constexpr int kIters = 8;
  struct Outcome {
    std::uint64_t sent, received, applied, ignored, recovery;
    sim::SimTime elapsed;
    std::vector<std::vector<std::byte>> frames;  // [node * 2 + page]
  };
  const auto run = [&](sim::GangMode gang, int workers, bool lossy) {
    ClusterConfig cfg = config(4);
    cfg.gang = gang;
    cfg.workers = workers;
    cfg.home_migration = false;
    cfg.static_homes = {0, 0};
    if (lossy) {
      cfg.faults =
          sim::FaultSpec::parse("kind=flushbatch,from=2,to=3,drop=0.5");
    }
    cfg.fault_seed = 3;
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(2 * kPerPage * 8, "x");
    BarCluster b(cfg, heap);
    b.cluster.run([&](NodeContext& ctx) {
      auto x = ctx.array<double>(a, 2 * kPerPage);
      const int me = ctx.node();
      const auto value = [](int iter, std::size_t i) {
        return iter * 1000.0 + static_cast<double>(i);
      };
      for (int iter = 1; iter <= kIters; ++iter) {
        ctx.iteration_begin();
        if (me == 1 || me == 2) {
          for (std::size_t page = 0; page < 2; ++page) {
            const std::size_t lo = page * kPerPage + (me - 1) * kPerPage / 2;
            auto w = x.write_view(lo, lo + kPerPage / 2);
            for (std::size_t i = 0; i < kPerPage / 2; ++i) {
              w[i] = value(iter, lo + i);
            }
          }
        }
        ctx.barrier();
        if (me == 1 || me == 2 || (me == 3 && iter % 2 == 0)) {
          for (std::size_t i = 0; i < 2 * kPerPage; i += 7) {
            EXPECT_EQ(x.get(i), value(iter, i))
                << "node " << me << " iteration " << iter << " element " << i;
          }
        }
        ctx.barrier();
      }
    });
    const dsm::Runtime& rt = b.cluster.runtime();
    const auto& c = rt.counters();
    Outcome out{c.updates_sent.load(),    c.updates_received.load(),
                c.updates_applied.load(), c.updates_ignored.load(),
                c.recovery_faults.load(), b.cluster.elapsed(),
                {}};
    for (std::uint32_t n = 0; n < 4; ++n) {
      for (std::uint32_t p = 0; p < 2; ++p) {
        const auto frame = rt.table(NodeId{n}).frame(PageId{p});
        out.frames.emplace_back(frame.begin(), frame.end());
      }
    }
    return out;
  };

  // Lossless, node 3 holds a current copy at every barrier that brings
  // it pushes from both creators (pages in either order in its inbox):
  // every push is applied, nothing is invalidated.
  const Outcome lossless = run(sim::GangMode::Parallel, 3, false);
  EXPECT_EQ(lossless.received, lossless.sent);
  EXPECT_EQ(lossless.applied, lossless.received);
  EXPECT_EQ(lossless.ignored, 0u);
  EXPECT_EQ(lossless.recovery, 0u);

  const Outcome ref = run(sim::GangMode::Baton, 1, true);
  EXPECT_GT(ref.applied, 0u);
  EXPECT_GT(ref.recovery, 0u) << "the plan must drop some 2>3 batch";
  EXPECT_GT(ref.ignored, ref.recovery)
      << "pushes to a copy invalidated at an earlier barrier are ignored";
  EXPECT_LT(ref.received, ref.sent);
  for (const int workers : {1, 3}) {
    const Outcome got = run(sim::GangMode::Parallel, workers, true);
    EXPECT_EQ(got.sent, ref.sent) << "workers=" << workers;
    EXPECT_EQ(got.received, ref.received) << "workers=" << workers;
    EXPECT_EQ(got.applied, ref.applied) << "workers=" << workers;
    EXPECT_EQ(got.ignored, ref.ignored) << "workers=" << workers;
    EXPECT_EQ(got.recovery, ref.recovery) << "workers=" << workers;
    EXPECT_EQ(got.elapsed, ref.elapsed) << "workers=" << workers;
    for (std::size_t f = 0; f < ref.frames.size(); ++f) {
      EXPECT_EQ(got.frames[f], ref.frames[f])
          << "workers=" << workers << " node " << f / 2 << " page " << f % 2;
    }
  }
}

}  // namespace
}  // namespace updsm
