// Baton/parallel equivalence under stress.
//
// The parallel gang's determinism contract says a run is *indistinguishable*
// from the baton run: not just the same answer, but the same simulated time,
// the same counters, the same wire traffic, the same per-node breakdown.
// These tests drive a seeded irregular application -- rotating element
// ownership, scattered remote reads, anti-dependences -- through every paper
// protocol in both gang modes and compare the full observable state field by
// field. A scheduling-dependent code path anywhere in the DSM stack (a
// fault handler reading live state, a non-commutative counter, an
// unmerged log) shows up here as a one-field diff naming the protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "updsm/common/rng.hpp"
#include "updsm/dsm/cluster.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/protocols/factory.hpp"

namespace updsm {
namespace {

using dsm::Cluster;
using dsm::ClusterConfig;
using dsm::NodeContext;
using protocols::ProtocolKind;
using sim::GangMode;

constexpr int kNodes = 4;
constexpr std::size_t kElems = 768;  // 6 pages of 1024 B
constexpr int kIters = 8;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer: cheap, stateless, good dispersion.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Which node writes element i during `iter`. With `rotate`, ownership is
// re-dealt every third iteration (migration and copyset churn); without, the
// hash-scattered pattern is iteration-stable -- the shape overdrive
// (bar-s/bar-m) is specified for, the same way the paper excludes
// dynamic-sharing apps from those protocols.
int owner(std::size_t i, int iter, bool rotate) {
  const unsigned block = rotate ? static_cast<unsigned>(iter / 3) : 0u;
  return static_cast<int>(mix(i * 1315423911u + block) % kNodes);
}

/// Everything a run exposes; compared field-by-field across gang modes.
struct Observed {
  std::vector<double> result;
  sim::SimTime elapsed = 0;
  std::uint64_t barriers = 0;
  dsm::ProtocolCounters counters;
  sim::NetworkStats net;
  dsm::BreakdownReport breakdown;
};

Observed run_stress(ProtocolKind kind, GangMode mode, int workers = 0,
                    const std::string& faults = {}) {
  const bool rotate =
      kind != ProtocolKind::BarS && kind != ProtocolKind::BarM;
  ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.page_size = 1024;
  cfg.gang = mode;
  cfg.workers = workers;
  if (!faults.empty()) {
    cfg.faults = sim::FaultSpec::parse(faults);
    cfg.fault_seed = 0x5eed'f00dULL;
  }
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(kElems * 8, "x");

  Observed obs;
  Cluster cluster(cfg, heap, protocols::make_protocol(kind));
  cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<std::uint64_t>(a, kElems);
    const int me = ctx.node();
    // Per-node RNG: deterministic, diverging streams per node.
    Xoshiro256 rng(0xabcdef12u + static_cast<std::uint64_t>(me) * 977u);
    std::uint64_t acc = 0;
    for (int iter = 1; iter <= kIters; ++iter) {
      ctx.iteration_begin();
      for (std::size_t i = 0; i < kElems; ++i) {
        if (owner(i, iter, rotate) == me) {
          x.set(i, mix(i + static_cast<unsigned>(iter)));
        }
      }
      // Scattered remote reads, racing with the current epoch's writes on
      // other nodes: the §2.1 anti-dependence guarantee makes the values
      // (pre-epoch) deterministic in either gang mode.
      for (int k = 0; k < 48; ++k) {
        acc += x.get(rng() % kElems);
      }
      ctx.barrier();
    }
    // Publish the per-node accumulators through the reduction mechanism
    // (the paper's way of extracting results; a late shared-memory write
    // would be an unpredicted write under engaged overdrive). Folding to
    // 32 bits keeps the double-carried sum exact.
    const auto folded =
        static_cast<double>((acc ^ (acc >> 32)) & 0xffffffffULL);
    const double sum = ctx.reduce_sum(folded);
    const double lo = ctx.reduce_min(folded);
    const double hi = ctx.reduce_max(folded);
    if (me == 0) obs.result = {sum, lo, hi};
    ctx.barrier();
  });
  obs.elapsed = cluster.elapsed();
  obs.barriers = cluster.barriers();
  obs.counters = cluster.runtime().counters();
  obs.net = cluster.runtime().net().stats();
  obs.breakdown = cluster.breakdown();
  return obs;
}

void expect_identical(const Observed& baton, const Observed& parallel,
                      const char* label) {
  EXPECT_EQ(baton.result, parallel.result) << label;
  EXPECT_EQ(baton.elapsed, parallel.elapsed) << label;
  EXPECT_EQ(baton.barriers, parallel.barriers) << label;

  // Every counter field, each named in the failure message.
  const dsm::ProtocolCounters& a = baton.counters;
  const dsm::ProtocolCounters& b = parallel.counters;
#define UPDSM_EXPECT_FIELD(f) \
  EXPECT_EQ(a.f.load(), b.f.load()) << label << " " #f
  UPDSM_EXPECT_FIELD(diffs_created);
  UPDSM_EXPECT_FIELD(zero_diffs);
  UPDSM_EXPECT_FIELD(remote_misses);
  UPDSM_EXPECT_FIELD(read_faults);
  UPDSM_EXPECT_FIELD(write_faults);
  UPDSM_EXPECT_FIELD(twins_created);
  UPDSM_EXPECT_FIELD(updates_sent);
  UPDSM_EXPECT_FIELD(updates_received);
  UPDSM_EXPECT_FIELD(updates_stored);
  UPDSM_EXPECT_FIELD(updates_applied);
  UPDSM_EXPECT_FIELD(updates_ignored);
  UPDSM_EXPECT_FIELD(pages_fetched);
  UPDSM_EXPECT_FIELD(migrations);
  UPDSM_EXPECT_FIELD(retained_diff_bytes_peak);
  UPDSM_EXPECT_FIELD(gc_rounds);
  UPDSM_EXPECT_FIELD(overdrive_mispredictions);
  UPDSM_EXPECT_FIELD(private_entries);
  UPDSM_EXPECT_FIELD(private_exits);
  UPDSM_EXPECT_FIELD(reliable_retries);
  UPDSM_EXPECT_FIELD(dup_suppressed);
  UPDSM_EXPECT_FIELD(recovery_faults);
  UPDSM_EXPECT_FIELD(node_stalls);
  UPDSM_EXPECT_FIELD(flush_batches);
  UPDSM_EXPECT_FIELD(flush_batch_records);
  UPDSM_EXPECT_FIELD(flush_batch_records_max);
  UPDSM_EXPECT_FIELD(flush_batch_records_min);
  UPDSM_EXPECT_FIELD(flush_batch_header_bytes_saved);
  UPDSM_EXPECT_FIELD(relay_batches);
  UPDSM_EXPECT_FIELD(relay_messages);
  UPDSM_EXPECT_FIELD(relay_forwarded_bytes);
  UPDSM_EXPECT_FIELD(relay_subtree_losses);
  UPDSM_EXPECT_FIELD(adaptive_switches);
  UPDSM_EXPECT_FIELD(adaptive_window_evictions);
  UPDSM_EXPECT_FIELD(async_steps);
  UPDSM_EXPECT_FIELD(async_refreshes);
  UPDSM_EXPECT_FIELD(async_invalidations);
  UPDSM_EXPECT_FIELD(async_throttles);
#undef UPDSM_EXPECT_FIELD
  // The list above names all of ProtocolCounters' cells: a new counter
  // must join it.
  static_assert(sizeof(dsm::ProtocolCounters) ==
                37 * sizeof(dsm::ProtocolCounters::Cell));

  for (std::size_t k = 0; k < sim::kMsgKindCount; ++k) {
    const sim::MsgCounter& x = baton.net.by_kind[k];
    const sim::MsgCounter& y = parallel.net.by_kind[k];
    EXPECT_EQ(x.count, y.count) << label << " msg kind " << k;
    EXPECT_EQ(x.bytes, y.bytes) << label << " msg kind " << k;
    EXPECT_EQ(x.dropped, y.dropped) << label << " msg kind " << k;
    EXPECT_EQ(x.records, y.records) << label << " msg kind " << k;
  }
  EXPECT_EQ(baton.net.injected_dups, parallel.net.injected_dups) << label;
  EXPECT_EQ(baton.net.injected_delays, parallel.net.injected_delays)
      << label;

  ASSERT_EQ(baton.breakdown.nodes.size(), parallel.breakdown.nodes.size())
      << label;
  for (std::size_t n = 0; n < baton.breakdown.nodes.size(); ++n) {
    const auto& x = baton.breakdown.nodes[n];
    const auto& y = parallel.breakdown.nodes[n];
    EXPECT_EQ(x.app, y.app) << label << " node " << n;
    EXPECT_EQ(x.dsm, y.dsm) << label << " node " << n;
    EXPECT_EQ(x.os, y.os) << label << " node " << n;
    EXPECT_EQ(x.wait, y.wait) << label << " node " << n;
    EXPECT_EQ(x.sigio, y.sigio) << label << " node " << n;
  }
}

class GangStressTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(GangStressTest, BatonAndParallelAreIndistinguishable) {
  const ProtocolKind kind = GetParam();
  const Observed baton = run_stress(kind, GangMode::Baton);
  const Observed parallel = run_stress(kind, GangMode::Parallel);
  ASSERT_EQ(baton.result.size(), 3u);
  // The equality must not hold vacuously: the workload has to exercise the
  // remote-service paths whose scheduling the two modes actually differ on.
  EXPECT_GT(parallel.counters.remote_misses, 10u);
  EXPECT_GT(parallel.counters.write_faults, 10u);
  expect_identical(baton, parallel, protocols::to_string(kind));
}

// The bounded worker pool's determinism contract is the same, one axis
// wider: for every worker count M (1, a strict subset, and M == nodes) the
// parallel run must be field-for-field indistinguishable from the
// single-worker baton -- including under a seeded adversarial fault plan,
// whose drop/dup/delay decision streams are consumed in protocol order and
// must not leak host scheduling into the simulation.
TEST_P(GangStressTest, WorkerCountsAreIndistinguishable) {
  const ProtocolKind kind = GetParam();
  for (const char* plan : {"", "drop=0.05,dup=0.03,delay=0.05,delay_us=200"}) {
    const std::string faults = plan;
    const Observed baton = run_stress(kind, GangMode::Baton, 1, faults);
    for (const int workers : {1, 2, kNodes}) {
      const Observed pool =
          run_stress(kind, GangMode::Parallel, workers, faults);
      const std::string label = std::string(protocols::to_string(kind)) +
                                " workers=" + std::to_string(workers) +
                                (faults.empty() ? "" : " +faults");
      expect_identical(baton, pool, label.c_str());
    }
    // The baton itself must also be worker-count independent.
    const Observed baton4 = run_stress(kind, GangMode::Baton, kNodes, faults);
    expect_identical(baton, baton4, "baton workers=4");
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperProtocols, GangStressTest,
                         ::testing::ValuesIn(protocols::all_paper_protocols()),
                         [](const auto& info) {
                           std::string name = protocols::to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The race detector records from node threads mid-phase (per-node interval
// lists, analysed on the controller at the barrier); its reports must be
// schedule-independent too.
std::vector<std::string> race_descriptions(GangMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.page_size = 1024;
  cfg.gang = mode;
  cfg.race_check = dsm::RaceCheck::Warn;
  mem::SharedHeap heap(cfg.page_size);
  const GlobalAddr a = heap.alloc_page_aligned(64 * 8, "x");
  Cluster cluster(cfg, heap, protocols::make_protocol(ProtocolKind::LmwI));
  cluster.run([&](NodeContext& ctx) {
    auto x = ctx.array<std::uint64_t>(a, 64);
    if (ctx.node() == 0) x.set(7, 1);
    ctx.barrier();
    // Anti-dependence: node 0 rewrites while node 1 reads, same epoch.
    if (ctx.node() == 0) {
      x.set(7, 2);
    } else {
      (void)x.get(7);
    }
    ctx.barrier();
  });
  std::vector<std::string> out;
  for (const auto& report : cluster.race_reports()) {
    out.push_back(report.describe());
  }
  return out;
}

TEST(GangStressTest_RaceDetector, ReportsIdenticalAcrossModes) {
  const auto baton = race_descriptions(GangMode::Baton);
  const auto parallel = race_descriptions(GangMode::Parallel);
  ASSERT_FALSE(parallel.empty()) << "the planted race must be detected";
  EXPECT_EQ(baton, parallel);
}

}  // namespace
}  // namespace updsm
