// Pool-ownership property tests for the per-worker allocation arenas.
//
// The host-parallel engine routes every diff / twin / batch-buffer
// allocation through the arena of the gang worker that owns the node
// (deterministic, uncontended). These tests prove the loan accounting is
// exact: arenas never leak (every take is closed by a recycle into the
// same arena), never cross-serve, and the counters reconcile with the
// run's protocol counters and network flush records -- and that results
// stay bit-identical for every worker count.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/diff_store.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/dsm/pool_arena.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/mem/buffer_pool.hpp"
#include "updsm/mem/diff.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using mem::BufferPool;
using mem::Diff;
using mem::DiffPool;
using protocols::ProtocolKind;

TEST(BufferPoolTest, LoanAccountingIsExact) {
  BufferPool pool(4);
  EXPECT_EQ(pool.takes(), 0u);
  EXPECT_EQ(pool.outstanding(), 0u);

  std::vector<std::vector<std::byte>> loans;
  for (int i = 0; i < 6; ++i) loans.push_back(pool.take());
  EXPECT_EQ(pool.takes(), 6u);
  EXPECT_EQ(pool.hits(), 0u);  // pool was empty: all fresh
  EXPECT_EQ(pool.outstanding(), 6u);

  for (auto& b : loans) {
    b.resize(128);  // give the buffers capacity worth keeping
    pool.recycle(std::move(b));
  }
  EXPECT_EQ(pool.recycles(), 6u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.pooled(), 4u);  // bounded: 2 of 6 were dropped

  auto b = pool.take();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(b.empty());         // recycled buffers come back cleared
  EXPECT_GE(b.capacity(), 128u);  // ...with their capacity intact
  pool.recycle(std::move(b));
}

TEST(BufferPoolTest, ZeroCapPoolStillCounts) {
  BufferPool pool(0);
  auto b = pool.take();
  b.resize(64);
  pool.recycle(std::move(b));
  EXPECT_EQ(pool.pooled(), 0u);  // nothing retained...
  EXPECT_EQ(pool.takes(), 1u);   // ...but the loan ledger is intact
  EXPECT_EQ(pool.recycles(), 1u);
}

TEST(DiffPoolTest, LoanAccountingIsExact) {
  DiffPool pool(2);
  Diff a = pool.take();
  Diff b = pool.take();
  EXPECT_EQ(pool.takes(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
  pool.recycle(std::move(a));
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.recycle(std::move(b));
  EXPECT_EQ(pool.outstanding(), 0u);
  Diff c = pool.take();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(c.empty());
  pool.recycle(std::move(c));
}

TEST(PoolArenaTest, TwinStoreRoutesThroughBoundPool) {
  BufferPool pool(8);
  {
    dsm::TwinStore twins;
    twins.bind_pool(&pool);

    std::vector<std::byte> page(256, std::byte{0x5a});
    twins.create(PageId{0}, page);
    EXPECT_EQ(pool.takes(), 1u);
    EXPECT_EQ(pool.outstanding(), 1u);

    // Content integrity: the twin is a faithful snapshot even though its
    // buffer came from the pool.
    const auto got = twins.get(PageId{0});
    ASSERT_EQ(got.size(), page.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), page.begin()));

    twins.discard(PageId{0});
    EXPECT_EQ(pool.outstanding(), 0u);

    // A dirty recycled buffer must not leak into the next snapshot.
    page.assign(256, std::byte{0x07});
    twins.create(PageId{1}, page);
    EXPECT_EQ(pool.hits(), 1u);
    const auto got2 = twins.get(PageId{1});
    EXPECT_TRUE(std::all_of(got2.begin(), got2.end(),
                            [](std::byte x) { return x == std::byte{0x07}; }));
    // Destructor closes the remaining loan.
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PoolArenaTest, DiffStoreRoutesThroughBoundPool) {
  DiffPool pool(8);
  const std::vector<std::byte> twin(64, std::byte{0});
  std::vector<std::byte> cur(64, std::byte{0});
  cur[3] = std::byte{1};
  {
    dsm::DiffStore store;
    store.bind_pool(&pool);

    Diff scratch = store.take_scratch();
    EXPECT_EQ(pool.takes(), 1u);
    Diff::create_into(scratch, twin, cur);
    const dsm::DiffStore::Key key{PageId{0}, EpochId{1}, NodeId{0}};
    store.put(key, std::move(scratch));
    EXPECT_EQ(pool.outstanding(), 1u);  // the stored diff is the open loan

    // Content round-trip through the pooled diff.
    const Diff* found = store.find(key);
    ASSERT_NE(found, nullptr);
    std::vector<std::byte> rebuilt(64, std::byte{0});
    found->apply(rebuilt);
    EXPECT_EQ(rebuilt[3], std::byte{1});

    // erase() closes the loan; a second stored diff is closed by clear()
    // via the destructor.
    store.erase(key);
    EXPECT_EQ(pool.outstanding(), 0u);
    Diff other = store.take_scratch();
    Diff::create_into(other, twin, cur);
    store.put(dsm::DiffStore::Key{PageId{1}, EpochId{1}, NodeId{0}},
              std::move(other));
    EXPECT_EQ(pool.outstanding(), 1u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

/// Shared-heap workload with real cross-node traffic: neighbors write
/// overlapping pages, so bar-u creates diffs, flushes to homes, and pushes
/// updates to copyset members every barrier.
void neighbor_workload(NodeContext& ctx, GlobalAddr addr, std::size_t n) {
  auto arr = ctx.array<double>(addr, n);
  const auto nodes = static_cast<std::size_t>(ctx.num_nodes());
  const std::size_t chunk = n / nodes;
  const auto me = static_cast<std::size_t>(ctx.node());
  const std::size_t lo = me * chunk;
  // Overlap into the neighbor's slab so pages have multiple writers and
  // consumers (real copysets, update pushes, home flushes).
  const std::size_t hi = std::min(n, lo + chunk + chunk / 2);
  for (int iter = 0; iter < 4; ++iter) {
    auto w = arr.write_view(lo, hi);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] += static_cast<double>(me + 1) * (static_cast<double>(iter) + 0.5);
    }
    ctx.barrier();
    auto r = arr.read_all();
    double acc = 0;
    for (std::size_t i = 0; i < n; i += 7) acc += r[i];
    (void)acc;
    ctx.barrier();
  }
}

struct ArenaTotals {
  std::uint64_t diff_takes = 0, diff_out = 0;
  std::uint64_t page_takes = 0, page_out = 0;
  std::uint64_t batch_takes = 0, batch_out = 0;
};

ArenaTotals sum_arenas(dsm::Runtime& rt) {
  ArenaTotals t;
  for (int w = 0; w < rt.workers(); ++w) {
    dsm::PoolArena& a = rt.arena(w);
    t.diff_takes += a.diffs.takes();
    t.diff_out += a.diffs.outstanding();
    t.page_takes += a.pages.takes();
    t.page_out += a.pages.outstanding();
    t.batch_takes += a.batch_buffers.takes();
    t.batch_out += a.batch_buffers.outstanding();
  }
  return t;
}

TEST(PoolArenaTest, ClusterRunLoansReconcileExactly) {
  constexpr std::size_t kElems = 2048;
  double reference = 0;
  for (const int workers : {1, 2, 4}) {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.page_size = 1024;
    cfg.workers = workers;
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(kElems * 8, "a");
    Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::BarU));
    cluster.run([&](NodeContext& ctx) { neighbor_workload(ctx, a, kElems); });

    dsm::Runtime& rt = cluster.runtime();
    EXPECT_EQ(rt.workers(), workers);
    const ArenaTotals t = sum_arenas(rt);
    const auto& c = rt.counters();

    // Every diff loan is closed by the capture that opened it, right after
    // staging (home flushes queue views into the sealed batches, not
    // diffs) -- nothing may still be on loan after the run.
    EXPECT_EQ(t.diff_out, 0u) << "workers=" << workers;
    // Diff creation is the only diff-take site: update receipt keeps a
    // view into the sealed batch and applies it from there. The ledger
    // reconciles take for take.
    EXPECT_EQ(t.diff_takes, c.diffs_created) << "workers=" << workers;
    EXPECT_GT(c.diffs_created, 0u);
    EXPECT_GT(c.updates_received.load(), 0u);
    // Perfect network: every staged update was delivered, and every
    // flush-class wire record is a staged record (home flushes are the
    // non-zero diffs of non-home writers, updates the rest).
    EXPECT_EQ(c.updates_received.load(), c.updates_sent.load());
    const auto& net = rt.measured_net_stats();
    EXPECT_GE(net.flush_class_records(), c.updates_sent.load());
    EXPECT_LE(net.flush_class_records(),
              c.diffs_created - c.zero_diffs + c.updates_sent.load());

    // Page buffers: the open loans are exactly the live twins + service
    // snapshots the protocol still holds (no leak, no cross-serve).
    EXPECT_EQ(t.page_out, cluster.protocol().live_page_buffers())
        << "workers=" << workers;
    EXPECT_GT(t.page_takes, 0u);

    // Batch buffers all return to their arenas when the barrier recycles
    // them, after the release has applied the views.
    EXPECT_EQ(t.batch_out, 0u) << "workers=" << workers;
    EXPECT_GT(t.batch_takes, 0u);

    // And the simulation itself is bit-identical for every worker count.
    const double elapsed = static_cast<double>(cluster.elapsed());
    if (workers == 1) {
      reference = elapsed;
    } else {
      EXPECT_EQ(elapsed, reference) << "workers=" << workers;
    }
  }
}

TEST(PoolArenaTest, LmwStoresReconcileAcrossWorkerCounts) {
  constexpr std::size_t kElems = 2048;
  std::uint64_t ref_elapsed = 0;
  std::uint64_t ref_takes = 0;
  for (const int workers : {1, 4}) {
    ClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.page_size = 1024;
    cfg.workers = workers;
    mem::SharedHeap heap(cfg.page_size);
    const GlobalAddr a = heap.alloc_page_aligned(kElems * 8, "a");
    Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::LmwU));
    cluster.run([&](NodeContext& ctx) { neighbor_workload(ctx, a, kElems); });

    dsm::Runtime& rt = cluster.runtime();
    const ArenaTotals t = sum_arenas(rt);
    // lmw retains diffs in its stores (open loans by design), but the
    // ledger must balance: outstanding == what the stores + in-flight
    // structures still hold, which on a quiesced run is at most takes.
    EXPECT_LE(t.diff_out, t.diff_takes);
    EXPECT_EQ(t.page_out, cluster.protocol().live_page_buffers())
        << "workers=" << workers;
    EXPECT_EQ(t.batch_out, 0u);
    // Deterministic routing: the same run does the same takes no matter
    // how many workers execute it.
    if (workers == 1) {
      ref_takes = t.diff_takes;
      ref_elapsed = cluster.elapsed();
    } else {
      EXPECT_EQ(t.diff_takes, ref_takes);
      EXPECT_EQ(cluster.elapsed(), ref_elapsed);
    }
  }
}

}  // namespace
}  // namespace updsm
