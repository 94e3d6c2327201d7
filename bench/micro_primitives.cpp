// Micro-benchmarks of the substrate primitives (google-benchmark): diff
// creation/application throughput for sparse, dense, alternating and
// identical modifications, twin copies, the simulated-platform composite
// costs (the §3.2 micro-benchmark table: RPC round trip, remote fault), the
// fft app kernel (one planned line, one sequential run), and the gang
// scheduler (phase dispatch latency and barrier throughput in both
// modes). Emits BENCH_diff.json (diff-creation throughput) and
// BENCH_gang.json (baton vs parallel wall-clock of a real workload at
// 2/4/8 nodes) for perf-trajectory tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "updsm/apps/fft.hpp"
#include "updsm/common/rng.hpp"
#include "updsm/dsm/copyset.hpp"
#include "updsm/dsm/flush_batch.hpp"
#include "updsm/dsm/node_context.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/mem/diff.hpp"
#include "updsm/protocols/adaptive.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/gang.hpp"

namespace {

using updsm::mem::Diff;

std::vector<std::byte> make_page(std::size_t size, unsigned seed) {
  std::vector<std::byte> page(size);
  for (std::size_t i = 0; i < size; ++i) {
    page[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  }
  return page;
}

/// The canonical dirty patterns for diff-creation throughput. `sparse` is
/// the paper's common case (a few touched islands per page) and the target
/// of the block-skip fast path; `alternating` (every other word dirty)
/// defeats block skipping entirely and bounds the fast path's overhead.
std::vector<std::byte> make_current(const std::vector<std::byte>& twin,
                                    const std::string& pattern) {
  std::vector<std::byte> cur = twin;
  if (pattern == "dense") {
    for (auto& b : cur) b = static_cast<std::byte>(~std::to_integer<unsigned>(b));
  } else if (pattern == "sparse") {
    for (std::size_t off = 0; off + 16 <= cur.size(); off += 768) {
      std::memset(cur.data() + off, 0x5a, 16);
    }
  } else if (pattern == "alternating") {
    for (std::size_t off = 0; off < cur.size(); off += 16) {
      std::memset(cur.data() + off, 0x5a, 8);
    }
  }  // "identical": leave the copy untouched
  return cur;
}

void BM_DiffCreateSparse(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  auto cur = twin;
  // Modify ~2% of the page in 16-byte islands.
  for (std::size_t off = 0; off + 16 <= size; off += 768) {
    std::memset(cur.data() + off, 0x5a, 16);
  }
  for (auto _ : state) {
    Diff diff = Diff::create(twin, cur);
    benchmark::DoNotOptimize(diff.payload_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DiffCreateSparse)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_DiffCreateDense(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  const auto cur = make_page(size, 2);  // everything differs
  for (auto _ : state) {
    Diff diff = Diff::create(twin, cur);
    benchmark::DoNotOptimize(diff.payload_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DiffCreateDense)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_DiffCreateAlternating(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  const auto cur = make_current(twin, "alternating");
  for (auto _ : state) {
    Diff diff = Diff::create(twin, cur);
    benchmark::DoNotOptimize(diff.payload_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DiffCreateAlternating)->Arg(8192);

void BM_DiffCreateIdentical(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  const auto cur = twin;
  for (auto _ : state) {
    Diff diff = Diff::create(twin, cur);
    benchmark::DoNotOptimize(diff.empty());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DiffCreateIdentical)->Arg(4096)->Arg(8192)->Arg(16384);

void BM_DiffCreateIntoReused(benchmark::State& state) {
  // The protocol hot loop: one scratch diff recycled across pages.
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  const auto cur = make_current(twin, "sparse");
  Diff scratch;
  for (auto _ : state) {
    Diff::create_into(scratch, twin, cur);
    benchmark::DoNotOptimize(scratch.payload_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DiffCreateIntoReused)->Arg(8192);

void BM_DiffApply(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto twin = make_page(size, 1);
  auto cur = twin;
  for (std::size_t off = 0; off + 64 <= size; off += 256) {
    std::memset(cur.data() + off, 0x5a, 64);
  }
  const Diff diff = Diff::create(twin, cur);
  auto target = make_page(size, 1);
  for (auto _ : state) {
    diff.apply(target);
    benchmark::DoNotOptimize(target.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(diff.payload_bytes()));
}
BENCHMARK(BM_DiffApply)->Arg(8192);

/// Diffs for a batch of `count` sparse pages, the barrier-flush hot shape.
std::vector<Diff> make_batch_diffs(std::size_t count, std::size_t page) {
  std::vector<Diff> diffs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto twin = make_page(page, static_cast<unsigned>(i));
    const auto cur = make_current(twin, "sparse");
    diffs.push_back(Diff::create(twin, cur));
  }
  return diffs;
}

/// Serializing one aggregated flush batch: begin/add x N/seal into a reused
/// writer, exactly the per-(sender, destination) work a barrier performs.
/// Arg: records per batch.
void BM_FlushBatchEncode(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto diffs = make_batch_diffs(records, 8192);
  updsm::dsm::FlushBatchWriter writer;
  for (auto _ : state) {
    writer.reset();
    writer.begin(updsm::NodeId{0});
    for (std::size_t i = 0; i < records; ++i) {
      writer.add(updsm::PageId{static_cast<std::uint32_t>(i)},
                 updsm::NodeId{0}, updsm::EpochId{1}, diffs[i]);
    }
    writer.seal();
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_FlushBatchEncode)->Arg(1)->Arg(8)->Arg(32);

/// Walking a received batch in place and applying every record -- the
/// receiver side of the aggregated path. Arg: records per batch.
void BM_FlushBatchDecode(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto diffs = make_batch_diffs(records, 8192);
  updsm::dsm::FlushBatchWriter writer;
  writer.begin(updsm::NodeId{0});
  for (std::size_t i = 0; i < records; ++i) {
    writer.add(updsm::PageId{static_cast<std::uint32_t>(i)},
               updsm::NodeId{0}, updsm::EpochId{1}, diffs[i]);
  }
  writer.seal();
  auto target = make_page(8192, 99);
  for (auto _ : state) {
    updsm::dsm::FlushBatchReader reader(writer.bytes());
    updsm::dsm::FlushRecordView rec;
    while (reader.next(rec) == updsm::dsm::BatchReadStatus::Record) {
      rec.apply(target);
    }
    benchmark::DoNotOptimize(target.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_FlushBatchDecode)->Arg(1)->Arg(8)->Arg(32);

void BM_CostModelComposites(benchmark::State& state) {
  const auto model = updsm::sim::CostModel::sp2_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.rpc_roundtrip());
  }
  // Report the calibrated values once, as counters (paper §3.2: RPC 160us).
  state.counters["rpc_roundtrip_us"] =
      updsm::sim::to_usec(model.rpc_roundtrip());
}
BENCHMARK(BM_CostModelComposites);

/// Host cost of one adaptive-policy page evaluation (three modeled costs
/// plus the switch decision) -- the work the simulator charges per written
/// page per barrier through DsmCosts::policy_eval_per_page_ns. The measured
/// ns/eval here justifies (or indicts) that knob's default; the charged
/// value also covers the window fold the protocol performs before calling
/// evaluate(). Arg: 0 = sp2 profile, 1 = rdma.
void BM_AdaptivePolicyEval(benchmark::State& state) {
  const auto model = state.range(0) == 0
                         ? updsm::sim::CostModel::sp2_defaults()
                         : updsm::sim::CostModel::rdma_defaults();
  updsm::protocols::AdaptivePolicy policy;
  policy.costs = &model;
  // A rotating set of realistic signals so the branch mix is honest:
  // stencil edge page, migratory page, read-mostly page, idle page.
  const updsm::protocols::PageSignal signals[] = {
      {1.0, 1.0, 512.0, 1.0, 0.0, true, true},
      {1.0, 2.0, 4096.0, 3.0, 2.0, false, true},
      {0.25, 1.0, 128.0, 6.0, 0.5, true, true},
      {0.05, 1.0, 64.0, 0.0, 0.0, true, false},
  };
  const updsm::protocols::PageMode modes[] = {
      updsm::protocols::PageMode::Update,
      updsm::protocols::PageMode::Invalidate,
      updsm::protocols::PageMode::Overdrive,
  };
  std::size_t i = 0;
  for (auto _ : state) {
    const auto mode = policy.evaluate(modes[i % 3], signals[i % 4]);
    benchmark::DoNotOptimize(mode);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["charged_ns_per_eval"] = model.dsm.policy_eval_per_page_ns;
}
BENCHMARK(BM_AdaptivePolicyEval)->Arg(0)->Arg(1);

// --- app kernel -------------------------------------------------------------

/// One n-point line through a prebuilt fft plan, the app kernel's unit of
/// work (the app runs B = n/8 such lines per call). Each iteration first
/// restores the input (a 16n-byte copy) so values stay in range.
/// Args: {n, 0=forward|1=inverse}.
void BM_FftLine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool inverse = state.range(1) != 0;
  const updsm::apps::FftPlan plan(n);
  std::vector<double> input(2 * n);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<double>(updsm::splitmix64(i) >> 11) * 0x1.0p-53;
  }
  std::vector<double> line(2 * n);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), line.begin());
    plan.transform(line.data(), 1, inverse);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FftLine)
    ->Args({16, 0})->Args({16, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1});

/// The fft answer's sequential baseline at scale 0.5 (n = 32, 15
/// time-steps): one node under the null protocol, so nearly all of it is
/// app kernel plus the per-node set-up. The node runs on a gang worker,
/// so the benchmark times wall clock, not this thread's CPU.
void BM_FftSequential(benchmark::State& state) {
  updsm::apps::AppParams params;
  params.scale = 0.5;
  for (auto _ : state) {
    const auto run = updsm::harness::run_sequential(
        "fft", updsm::dsm::ClusterConfig{}, params);
    benchmark::DoNotOptimize(run.checksum);
  }
}
BENCHMARK(BM_FftSequential)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- gang scheduler ---------------------------------------------------------

updsm::sim::GangMode gang_mode(std::int64_t flag) {
  return flag == 0 ? updsm::sim::GangMode::Baton
                   : updsm::sim::GangMode::Parallel;
}

/// Latency of one run() dispatch: arm the persistent pool, execute one
/// (empty) phase per node, join. Args: {nodes, 0=baton|1=parallel}.
void BM_GangPhaseDispatch(benchmark::State& state) {
  updsm::sim::Gang gang(static_cast<int>(state.range(0)),
                        gang_mode(state.range(1)));
  for (auto _ : state) {
    gang.run([](int) {}, [](std::uint64_t) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GangPhaseDispatch)
    ->Args({2, 0})->Args({2, 1})
    ->Args({8, 0})->Args({8, 1});

/// Barrier throughput: barriers completed per second with empty phases --
/// the pure scheduling cost a protocol's barrier work rides on.
/// Args: {nodes, 0=baton|1=parallel}.
void BM_GangBarrierThroughput(benchmark::State& state) {
  constexpr int kBarriersPerRun = 64;
  updsm::sim::Gang gang(static_cast<int>(state.range(0)),
                        gang_mode(state.range(1)));
  for (auto _ : state) {
    gang.run(
        [&](int node) {
          for (int i = 0; i < kBarriersPerRun; ++i) gang.barrier_wait(node);
        },
        [](std::uint64_t) {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBarriersPerRun);
}
BENCHMARK(BM_GangBarrierThroughput)
    ->Args({2, 0})->Args({2, 1})
    ->Args({8, 0})->Args({8, 1});

// --- barrier topology and copysets ------------------------------------------

/// Host cost of simulating barrier arrival + release across a cluster:
/// with no shared writes, an lmw-i cluster runs nothing but barriers, so
/// this is the per-barrier simulation overhead (message accounting, clock
/// math, reduction folding) the scaled topologies must keep in check.
/// Args: {nodes, barrier_fanout (0 = flat)}.
void BM_ClusterBarrierArrival(benchmark::State& state) {
  constexpr int kBarriersPerRun = 16;
  updsm::dsm::ClusterConfig cfg;
  cfg.num_nodes = static_cast<int>(state.range(0));
  cfg.barrier_fanout = static_cast<int>(state.range(1));
  cfg.page_size = 1024;
  cfg.gang = updsm::sim::GangMode::Baton;  // pure simulation cost, no pool
  for (auto _ : state) {
    updsm::mem::SharedHeap heap(cfg.page_size);
    heap.alloc_page_aligned(64, "pad");
    updsm::dsm::Cluster cluster(
        cfg, heap,
        updsm::protocols::make_protocol(updsm::protocols::ProtocolKind::LmwI));
    cluster.run([&](updsm::dsm::NodeContext& ctx) {
      for (int i = 0; i < kBarriersPerRun; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBarriersPerRun);
}
BENCHMARK(BM_ClusterBarrierArrival)
    ->Args({8, 0})->Args({8, 4})
    ->Args({64, 0})->Args({64, 4})
    ->Args({256, 0})->Args({256, 4});

/// Iteration over the multi-word copyset bitmap at 1024-node width: the
/// update protocols walk every page's copyset at every barrier, so
/// for_each over mostly-empty and fully-populated words is hot.
/// Arg: member count spread evenly across the 1024-node id space.
void BM_CopysetIterate(benchmark::State& state) {
  const auto members = static_cast<std::uint32_t>(state.range(0));
  updsm::dsm::Copyset cs;
  const std::uint32_t stride = updsm::dsm::kMaxNodes / members;
  for (std::uint32_t i = 0; i < members; ++i) {
    cs.add(updsm::NodeId{i * stride});
  }
  for (auto _ : state) {
    const updsm::dsm::NodeSet snap = cs.snapshot();
    std::uint64_t sum = 0;
    snap.for_each([&](updsm::NodeId id) { sum += id.value(); });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          members);
}
BENCHMARK(BM_CopysetIterate)->Arg(2)->Arg(64)->Arg(1024);

/// Wall-clock summary of diff-creation throughput, written as
/// BENCH_diff.json in the working directory. Deliberately independent of
/// google-benchmark so regression tooling can parse one stable, minimal
/// format.
void write_diff_summary(const char* path) {
  constexpr std::size_t kPage = 8192;
  const auto twin = make_page(kPage, 1);
  // Diff creation is single-threaded host work: one worker, no gang, and
  // the simulated cost profile cannot matter -- sp2 is the recorded
  // default.
  updsm::bench::BenchJson json(path, {1, 1, "none"});
  json.text("bench", "diff_create");
  json.field("page_bytes", "%zu", kPage);
  json.text("net_profile", "sp2");
  json.texts("cost_overrides", {});
  json.begin_rows("runs");
  const char* patterns[] = {"identical", "sparse", "alternating", "dense"};
  for (const char* pattern : patterns) {
    const auto cur = make_current(twin, pattern);
    using clock = std::chrono::steady_clock;
    // Calibrate the iteration count to ~100ms, then measure.
    std::size_t iters = 64;
    for (;;) {
      const auto t0 = clock::now();
      Diff scratch;
      for (std::size_t i = 0; i < iters; ++i) {
        Diff::create_into(scratch, twin, cur);
        benchmark::DoNotOptimize(scratch.payload_bytes());
      }
      const double sec =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (sec >= 0.1 || iters >= (1u << 24)) {
        json.begin_row();
        json.text("pattern", pattern);
        json.field("ns_per_page", "%.1f",
                   sec * 1e9 / static_cast<double>(iters));
        json.field("gib_per_s", "%.3f",
                   static_cast<double>(iters) * static_cast<double>(kPage) /
                       (sec * 1024.0 * 1024.0 * 1024.0));
        json.end_row();
        break;
      }
      iters *= 4;
    }
  }
  json.end_rows();
  std::printf("wrote %s\n", path);
}

/// Wall-clock of a fig2-style workload (sor + barnes under bar-u) in each
/// gang mode at 2/4/8 nodes, written as BENCH_gang.json. The parallel gang
/// can only beat the baton when the host has cores to spread the node
/// threads over, so the host core count (in the provenance) matters for
/// the ratios: on >= 4 cores the 8-node ratio is the headline number
/// (target >= 2x); on fewer cores a ratio near (or below) 1x is the
/// expected, honest result.
void write_gang_summary(const char* path) {
  using clock = std::chrono::steady_clock;
  using updsm::sim::GangMode;

  // This bench sweeps both gang modes; workers is the auto resolution at
  // the largest swept cluster (per-cell counts clamp to each cell's nodes).
  updsm::bench::BenchJson json(
      path, {updsm::sim::Gang::resolve_workers(0, 8), 1, "sweep"});
  json.text("bench", "gang_modes");
  json.text("workload", "sor+barnes under bar-u, scale 0.4, 4 iters");
  json.text("net_profile", "sp2");
  json.texts("cost_overrides", {});
  json.begin_rows("runs");

  auto wall_ms = [](int nodes, GangMode mode) {
    updsm::apps::AppParams params;
    params.scale = 0.4;
    params.warmup_iterations = 2;
    params.measured_iterations = 4;
    updsm::dsm::ClusterConfig cfg;
    cfg.num_nodes = nodes;
    cfg.gang = mode;
    const auto t0 = clock::now();
    for (const char* app : {"sor", "barnes"}) {
      const auto run = updsm::harness::run_app(
          app, updsm::protocols::ProtocolKind::BarU, cfg, params);
      benchmark::DoNotOptimize(run.checksum);
    }
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };

  for (const int nodes : {2, 4, 8}) {
    // Warm once (first-touch page cache, pool spawn), then take the best
    // of three to damp scheduler noise.
    (void)wall_ms(nodes, GangMode::Baton);
    double baton = 1e300;
    double parallel = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      baton = std::min(baton, wall_ms(nodes, GangMode::Baton));
      parallel = std::min(parallel, wall_ms(nodes, GangMode::Parallel));
    }
    json.begin_row();
    json.field("nodes", "%d", nodes);
    json.field("baton_ms", "%.1f", baton);
    json.field("parallel_ms", "%.1f", parallel);
    json.field("speedup", "%.2f", baton / parallel);
    json.end_row();
  }
  json.end_rows();
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_diff_summary("BENCH_diff.json");
  write_gang_summary("BENCH_gang.json");
  return 0;
}
