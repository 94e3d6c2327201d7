// updsm_perfbench: time to a verified answer, simulated speedup, and a
// traced per-layer split, on three fixed workloads.
//
//   updsm_perfbench --workload paper-fft --seed 1 --seconds 10 --trace 0
//
// One *answer* runs a workload the way updsm_run does, as plain library
// calls: harness::run_sequential, apps::make_app + SharedHeap allocation,
// dsm::Cluster construction, Cluster::run, then the bit-exact checksum
// check against the sequential run. --trace 0 repeats untraced answers for
// --seconds and reports the end-to-end metrics; --trace 1 alternates
// untraced and traced answers (TracedProtocol + timers around each layer
// call) and reports the per-layer metrics. Timings are medians over the
// answers of one invocation. The last stdout line is one JSON object with
// the keys correct, attempted, failed and metrics; the line before it is
// the full report, split into provenance and results.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tracing.hpp"
#include "updsm/harness/experiment.hpp"
#include "updsm/mem/shared_heap.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/gang.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace updsm;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::SpanName;

/// Host threads every workload's gang runs on, fixed so that results from
/// hosts with different core counts stay comparable (provenance records
/// the host's cores next to it).
constexpr int kWorkers = 4;

struct Workload {
  std::string_view name;
  std::string_view app;
  protocols::ProtocolKind protocol;
  int nodes;
  double scale;
  sim::GangMode gang;
};

// Why each workload was chosen is recorded in README.md.
constexpr std::array kWorkloads = {
    Workload{"paper-fft", "fft", protocols::ProtocolKind::BarU, 8, 1.0,
             sim::GangMode::Parallel},
    Workload{"wide-jacobi", "jacobi", protocols::ProtocolKind::BarI, 256, 1.0,
             sim::GangMode::Parallel},
    Workload{"async-jacobi", "jacobi-async", protocols::ProtocolKind::AsyncU,
             64, 2.0, sim::GangMode::Async},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // small scale, few iterations: for the self-check
  std::string spans_path;
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n\n"
               "usage: updsm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "                       [--tiny] [--spans FILE] [--source ID]\n"
               "workloads: paper-fft wide-jacobi async-jacobi\n",
               error);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 0);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else if (arg == "--source") {
      opt.source = value;
    } else {
      usage("unknown option");
    }
  }
  if (opt.workload == nullptr) usage("--workload is required");
  return opt;
}

dsm::ClusterConfig cluster_config(const Options& opt) {
  const Workload& w = *opt.workload;
  dsm::ClusterConfig cfg;
  cfg.num_nodes = w.nodes;
  cfg.seed = opt.seed;
  cfg.gang = w.gang;
  cfg.workers = kWorkers;
  cfg.net_profile = "sp2";
  cfg.costs = sim::CostModel::from_profile(cfg.net_profile);
  dsm::validate_cluster_config(cfg);
  return cfg;
}

apps::AppParams app_params(const Options& opt) {
  apps::AppParams params;
  params.scale = opt.tiny ? 0.25 : opt.workload->scale;
  params.seed = opt.seed;
  if (opt.tiny) {
    params.warmup_iterations = 1;
    params.measured_iterations = 2;
  }
  return params;
}

/// Every virtual-time result of an answer, flattened: the sequential
/// run's elapsed time, then the cluster run's checksum and residual bits,
/// elapsed, barriers, iterations, every protocol counter, every network
/// counter and every node's time breakdown. Two answers of one workload and
/// seed must agree on all of it.
std::vector<std::uint64_t> fingerprint(const harness::RunResult& seq,
                                       const harness::RunResult& r,
                                       sim::GangMode gang) {
  const dsm::ProtocolCounters& c = r.counters;
  std::vector<std::uint64_t> v = {
      static_cast<std::uint64_t>(seq.elapsed),
      std::bit_cast<std::uint64_t>(r.checksum),
      std::bit_cast<std::uint64_t>(r.final_residual),
      static_cast<std::uint64_t>(r.elapsed),
      r.barriers,
      r.app_iterations,
      static_cast<std::uint64_t>(gang),
      c.diffs_created, c.zero_diffs, c.remote_misses, c.read_faults,
      c.write_faults, c.twins_created, c.updates_sent, c.updates_received,
      c.updates_stored, c.updates_applied, c.updates_ignored,
      c.pages_fetched, c.migrations, c.retained_diff_bytes_peak,
      c.gc_rounds, c.overdrive_mispredictions, c.private_entries,
      c.private_exits, c.reliable_retries, c.dup_suppressed,
      c.recovery_faults, c.node_stalls, c.flush_batches,
      c.flush_batch_records, c.flush_batch_records_max,
      c.flush_batch_records_min, c.flush_batch_header_bytes_saved,
      c.relay_batches, c.relay_messages, c.relay_forwarded_bytes,
      c.relay_subtree_losses, c.adaptive_switches,
      c.adaptive_window_evictions, c.async_steps, c.async_refreshes,
      c.async_invalidations, c.async_throttles,
      r.net.injected_dups, r.net.injected_delays,
  };
  for (const sim::MsgCounter& k : r.net.by_kind) {
    v.insert(v.end(), {k.count, k.bytes, k.dropped, k.records});
  }
  for (const auto& n : r.breakdown.nodes) {
    for (const sim::SimTime t : {n.app, n.dsm, n.os, n.wait, n.sigio}) {
      v.push_back(static_cast<std::uint64_t>(t));
    }
  }
  return v;
}

struct Answer {
  harness::RunResult seq;
  harness::RunResult run;
  sim::GangMode gang = sim::GangMode::Baton;  // effective, after downgrades
  std::vector<std::uint64_t> virt;            // fingerprint(seq, run, gang)
  double answer_s = 0.0;
  double seq_s = 0.0;
  double alloc_s = 0.0;
  double cluster_init_s = 0.0;
  double setup_s = 0.0;  // alloc_s + cluster_init_s
  double wall_s = 0.0;
  std::string error;  // empty when the answer verified
};

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// One verified answer; traced when `log` is non-null.
Answer run_answer(const Options& opt, SpanLog* log) {
  const Workload& w = *opt.workload;
  const dsm::ClusterConfig cfg = cluster_config(opt);
  const apps::AppParams params = app_params(opt);
  // The 1-node baseline gets an automatic worker count so the gang does
  // not warn about clamping kWorkers to one node.
  dsm::ClusterConfig seq_cfg = cfg;
  seq_cfg.workers = 0;

  Answer a;
  try {
    const ScopedSpan answer_span(log, SpanName::Answer);
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(log, SpanName::Sequential);
      a.seq = harness::run_sequential(w.app, seq_cfg, params);
    }
    const std::int64_t t1 = now_ns();
    std::unique_ptr<apps::Application> app;
    mem::SharedHeap heap(cfg.page_size);
    {
      const ScopedSpan span(log, SpanName::Alloc);
      app = apps::make_app(w.app, params);
      app->allocate(heap);
    }
    const std::int64_t t2 = now_ns();
    std::unique_ptr<dsm::Cluster> cluster;
    {
      const ScopedSpan span(log, SpanName::ClusterInit);
      auto protocol = protocols::make_protocol(w.protocol);
      if (log != nullptr) {
        protocol = std::make_unique<perfbench::TracedProtocol>(
            std::move(protocol), *log);
      }
      cluster = std::make_unique<dsm::Cluster>(cfg, heap, std::move(protocol));
    }
    const std::int64_t t3 = now_ns();
    {
      const ScopedSpan span(log, SpanName::Run);
      if (log != nullptr) log->set_node_parent(span.index());
      cluster->run([&](dsm::NodeContext& ctx) { app->run(ctx); });
    }
    const std::int64_t t4 = now_ns();

    // The RunResult fields harness::run_app fills that the checks and
    // metrics read.
    harness::RunResult& r = a.run;
    r.checksum = app->result_checksum();
    r.elapsed = cluster->elapsed();
    r.counters = cluster->runtime().measured_counters();
    r.net = cluster->runtime().measured_net_stats();
    r.breakdown = cluster->breakdown();
    r.barriers = cluster->barriers();
    r.app_iterations = app->iterations_completed();
    r.final_residual = app->final_residual();
    a.gang = cluster->gang_mode();
    {
      const ScopedSpan span(log, SpanName::Teardown);
      cluster.reset();
    }
    if (std::bit_cast<std::uint64_t>(r.checksum) !=
        std::bit_cast<std::uint64_t>(a.seq.checksum)) {
      a.error = "checksum " + std::to_string(r.checksum) +
                " differs from the sequential run's " +
                std::to_string(a.seq.checksum);
    } else if (a.gang != w.gang) {
      a.error = std::string("cluster ran the ") + sim::to_string(a.gang) +
                " gang, expected " + sim::to_string(w.gang);
    }
    const std::int64_t t5 = now_ns();
    a.virt = fingerprint(a.seq, r, a.gang);
    a.answer_s = seconds_between(t0, t5);
    a.seq_s = seconds_between(t0, t1);
    a.alloc_s = seconds_between(t1, t2);
    a.cluster_init_s = seconds_between(t2, t3);
    a.setup_s = seconds_between(t1, t3);
    a.wall_s = seconds_between(t3, t4);
  } catch (const std::exception& e) {
    a.error = std::string("threw: ") + e.what();
  }
  return a;
}

/// Host time of one empty "round" of a bare sim::Gang with the workload's
/// node count, worker count and mode: a barrier with no-op node functions
/// and callback, or -- for the async gang -- one async_step turn hand-off
/// per node under a rotating clock. Median of several timed runs.
double gang_round_us(const Workload& w) {
  constexpr int kRounds = 128;
  constexpr int kRuns = 5;
  sim::Gang gang(w.nodes, w.gang, kWorkers);
  std::vector<std::atomic<std::uint64_t>> steps(
      static_cast<std::size_t>(w.nodes));
  gang.set_clock_source([&](int node) {
    return steps[static_cast<std::size_t>(node)].load(
        std::memory_order_relaxed);
  });
  const auto body = [&](int node) {
    for (int r = 0; r < kRounds; ++r) {
      if (w.gang == sim::GangMode::Async) {
        steps[static_cast<std::size_t>(node)].fetch_add(
            1, std::memory_order_relaxed);
        gang.async_step(node);
      } else {
        gang.barrier_wait(node);
      }
    }
  };
  const auto no_op = [](std::uint64_t) {};
  gang.run(body, no_op);  // warm-up: first fiber arming and worker wakes
  std::vector<double> per_round;
  for (int i = 0; i < kRuns; ++i) {
    const std::int64_t start = now_ns();
    gang.run(body, no_op);
    per_round.push_back(static_cast<double>(now_ns() - start) / 1e3 /
                        kRounds);
  }
  std::sort(per_round.begin(), per_round.end());
  return per_round[per_round.size() / 2];
}

/// Linear-interpolated percentile (0..100); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Per-layer numbers of one traced answer.
struct LayerSample {
  std::array<double, perfbench::kSpanNameCount> busy_s{};
  std::array<std::uint64_t, perfbench::kSpanNameCount> calls{};
  std::vector<double> barrier_us;  // whole barrier callback
  std::vector<double> phase_us;    // one barrier's end to the next's start
  std::vector<double> turn_us;     // between consecutive async_publish returns
  double barrier_self_s = 0.0;     // barrier time outside the protocol hooks
  double gang_round_us = 0.0;
};

LayerSample summarize(const SpanLog& log) {
  LayerSample s;
  const auto& ctl = log.controller();
  std::vector<double> child_s(ctl.size(), 0.0);
  const perfbench::Span* prev_barrier = nullptr;
  for (const perfbench::Span& span : ctl) {
    const auto k = static_cast<std::size_t>(span.name);
    const double d = static_cast<double>(span.duration_ns()) / 1e9;
    s.busy_s[k] += d;
    ++s.calls[k];
    if (span.parent != perfbench::kNone) {
      child_s[static_cast<std::size_t>(span.parent)] += d;
    }
    if (span.name == SpanName::Barrier) {
      s.barrier_us.push_back(d * 1e6);
      if (prev_barrier != nullptr) {
        s.phase_us.push_back(
            static_cast<double>(span.start_ns - prev_barrier->end_ns) / 1e3);
      }
      prev_barrier = &span;
    }
  }
  // Hooks run one after another on the controller, so a barrier's self
  // time is its span minus the plain sum of its children.
  for (std::size_t i = 0; i < ctl.size(); ++i) {
    if (ctl[i].name == SpanName::Barrier) {
      s.barrier_self_s +=
          static_cast<double>(ctl[i].duration_ns()) / 1e9 - child_s[i];
    }
  }
  std::vector<std::int64_t> publish_ends;
  for (const auto& node : log.nodes()) {
    for (const perfbench::Span& span : node) {
      const auto k = static_cast<std::size_t>(span.name);
      s.busy_s[k] += static_cast<double>(span.duration_ns()) / 1e9;
      ++s.calls[k];
      if (span.name == SpanName::AsyncPublish) {
        publish_ends.push_back(span.end_ns);
      }
    }
  }
  // The async gang runs one node at a time, so publish returns form one
  // global sequence.
  std::sort(publish_ends.begin(), publish_ends.end());
  for (std::size_t i = 1; i < publish_ends.size(); ++i) {
    s.turn_us.push_back(
        static_cast<double>(publish_ends[i] - publish_ends[i - 1]) / 1e3);
  }
  return s;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics; `ref` is the reference run's virtual results.
std::vector<Metric> layer_metrics(const std::vector<LayerSample>& samples,
                                  const std::vector<Answer>& traced,
                                  const std::vector<double>& untraced_wall,
                                  const harness::RunResult& ref) {
  auto over_answers = [&](double Answer::*field) {
    std::vector<double> v;
    for (const Answer& a : traced) v.push_back(a.*field);
    return median(v);
  };
  auto busy = [&](std::initializer_list<SpanName> names) {
    std::vector<double> v;
    for (const LayerSample& s : samples) {
      double sum = 0.0;
      for (SpanName n : names) sum += s.busy_s[static_cast<std::size_t>(n)];
      v.push_back(sum);
    }
    return median(v);
  };
  auto calls = [&](std::initializer_list<SpanName> names) {
    double sum = 0.0;
    for (SpanName n : names) {
      sum += static_cast<double>(
          samples.front().calls[static_cast<std::size_t>(n)]);
    }
    return sum;
  };
  auto pooled = [&](std::vector<double> LayerSample::*field, double p) {
    std::vector<double> v;
    for (const LayerSample& s : samples) {
      v.insert(v.end(), (s.*field).begin(), (s.*field).end());
    }
    return percentile(std::move(v), p);
  };
  auto per_sample = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.*field);
    return median(v);
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  const auto sum = ref.breakdown.summed();
  const dsm::ProtocolCounters& c = ref.counters;
  using N = SpanName;
  return {
      {"apps.seq_s", over_answers(&Answer::seq_s), "s"},
      {"apps.alloc_s", over_answers(&Answer::alloc_s), "s"},
      {"apps.sim_app_ms", sim::to_msec(sum.app), "ms"},
      {"dsm.cluster_init_s", over_answers(&Answer::cluster_init_s), "s"},
      {"dsm.barrier_us.p50", pooled(&LayerSample::barrier_us, 50), "us"},
      {"dsm.barrier_us.p90", pooled(&LayerSample::barrier_us, 90), "us"},
      {"dsm.barrier_self_s", per_sample(&LayerSample::barrier_self_s), "s"},
      {"dsm.barriers", count(ref.barriers), "count"},
      {"dsm.flush_batches", count(c.flush_batches), "count"},
      {"dsm.flush_records", count(c.flush_batch_records), "count"},
      {"dsm.sim_dsm_ms", sim::to_msec(sum.dsm), "ms"},
      {"protocols.arrive_s", busy({N::BarrierArrive}), "s"},
      {"protocols.arrive_calls", calls({N::BarrierArrive}), "count"},
      {"protocols.master_s", busy({N::BarrierMaster}), "s"},
      {"protocols.master_calls", calls({N::BarrierMaster}), "count"},
      {"protocols.release_s", busy({N::BarrierRelease}), "s"},
      {"protocols.release_calls", calls({N::BarrierRelease}), "count"},
      {"protocols.begin_finish_s",
       busy({N::BarrierBegin, N::BarrierFinish}), "s"},
      {"protocols.begin_finish_calls",
       calls({N::BarrierBegin, N::BarrierFinish}), "count"},
      {"protocols.read_fault_s", busy({N::ReadFault}), "s"},
      {"protocols.write_fault_s", busy({N::WriteFault}), "s"},
      {"protocols.read_faults", calls({N::ReadFault}), "count"},
      {"protocols.write_faults", calls({N::WriteFault}), "count"},
      {"protocols.async_publish_s", busy({N::AsyncPublish}), "s"},
      {"protocols.async_refresh_s", busy({N::AsyncRefresh}), "s"},
      {"protocols.async_steps", calls({N::AsyncPublish}), "count"},
      {"protocols.remote_misses", count(c.remote_misses), "count"},
      {"protocols.updates_sent", count(c.updates_sent), "count"},
      {"protocols.pages_fetched", count(c.pages_fetched), "count"},
      {"mem.diffs", count(c.diffs_created), "count"},
      {"mem.zero_diffs", count(c.zero_diffs), "count"},
      {"mem.twins", count(c.twins_created), "count"},
      {"sim.phase_us.p50", pooled(&LayerSample::phase_us, 50), "us"},
      {"sim.phase_us.p90", pooled(&LayerSample::phase_us, 90), "us"},
      {"sim.turn_us.p50", pooled(&LayerSample::turn_us, 50), "us"},
      {"sim.turn_us.p90", pooled(&LayerSample::turn_us, 90), "us"},
      {"sim.gang_barrier_us", per_sample(&LayerSample::gang_round_us), "us"},
      {"sim.messages", count(ref.net.table_messages()), "count"},
      {"sim.bytes", count(ref.net.total_bytes()), "B"},
      {"sim.sim_os_ms", sim::to_msec(sum.os), "ms"},
      {"sim.sim_wait_ms", sim::to_msec(sum.wait), "ms"},
      {"sim.sim_sigio_ms", sim::to_msec(sum.sigio), "ms"},
      {"harness.trace_overhead_frac",
       over_answers(&Answer::wall_s) / median(untraced_wall) - 1.0, "ratio"},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- JSON output ---------------------------------------------------------

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string samples_json(const std::vector<Answer>& answers) {
  std::string out = "{";
  for (const auto& [name, field] :
       {std::pair{"answer_s", &Answer::answer_s},
        std::pair{"wall_s", &Answer::wall_s},
        std::pair{"setup_s", &Answer::setup_s}}) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": [";
    for (std::size_t i = 0; i < answers.size(); ++i) {
      out += (i > 0 ? ", " : "") + number(answers[i].*field);
    }
    out += "]";
  }
  return out + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

void print_metrics(const std::vector<Metric>& metrics, std::size_t samples) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  (timings are medians over %zu answers)\n", samples);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  const apps::AppParams params = app_params(opt);

  // Answers repeat until --seconds have passed, with a floor so that a
  // short run still yields a median; --trace 1 alternates untraced and
  // traced answers. The first answer is a warm-up: it is verified and
  // becomes the reference for the virtual results, but its timings -- which
  // include first-touch page faults and allocator growth -- are not used.
  const std::size_t min_answers = opt.trace ? 5 : 4;
  std::vector<Answer> untraced;
  std::vector<Answer> traced;
  std::vector<LayerSample> samples;
  std::unique_ptr<SpanLog> last_log;
  std::vector<std::uint64_t> reference;  // virtual results of the first answer
  harness::RunResult ref_run;
  harness::RunResult ref_seq;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  const std::int64_t start = now_ns();
  while (seconds_between(start, now_ns()) < opt.seconds ||
         attempted < min_answers) {
    const bool traced_turn = opt.trace && attempted % 2 == 1;
    auto log = traced_turn ? std::make_unique<SpanLog>(w.nodes) : nullptr;
    Answer a = run_answer(opt, log.get());
    ++attempted;
    if (a.error.empty()) {
      if (reference.empty()) {
        reference = a.virt;
        ref_run = a.run;
        ref_seq = a.seq;
      } else if (a.virt != reference) {
        a.error = traced_turn ? "traced virtual results differ from the "
                                "untraced run's"
                              : "virtual results differ from an earlier "
                                "repetition's";
      }
    }
    if (!a.error.empty()) {
      ++failed;
      std::fprintf(stderr, "answer %zu failed: %s\n", attempted,
                   a.error.c_str());
      continue;
    }
    if (attempted == 1) continue;  // the warm-up
    if (traced_turn) {
      LayerSample s = summarize(*log);
      s.gang_round_us = gang_round_us(w);
      samples.push_back(std::move(s));
      traced.push_back(std::move(a));
      last_log = std::move(log);
    } else {
      untraced.push_back(std::move(a));
    }
  }

  if (last_log != nullptr && !opt.spans_path.empty()) {
    std::ofstream out(opt.spans_path);
    last_log->write_csv(out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write spans to %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }

  const bool complete = !untraced.empty() && (!opt.trace || !traced.empty());
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  if (complete) {
    auto over = [&](double Answer::*field) {
      std::vector<double> v;
      for (const Answer& a : untraced) v.push_back(a.*field);
      return median(v);
    };
    e2e = {
        {"answer_s", over(&Answer::answer_s), "s"},
        {"wall_s", over(&Answer::wall_s), "s"},
        {"setup_s", over(&Answer::setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_speedup", harness::speedup(ref_run, ref_seq), "x"},
    };
    if (opt.trace) {
      std::vector<double> wall;
      for (const Answer& a : untraced) wall.push_back(a.wall_s);
      layers = layer_metrics(samples, traced, wall, ref_run);
    }
  }
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("workload %s: %s under %s, %d nodes, scale %.2f, gang %s, "
              "%d workers, seed %llu%s\n",
              std::string(w.name).c_str(), std::string(w.app).c_str(),
              protocols::to_string(w.protocol), w.nodes, params.scale,
              sim::to_string(w.gang),
              sim::Gang::resolve_workers(kWorkers, w.nodes),
              static_cast<unsigned long long>(opt.seed),
              opt.tiny ? " (tiny)" : "");
  std::printf("  answers: %zu attempted, %zu failed (fail_frac %.3g); "
              "%zu untraced, %zu traced\n",
              attempted, failed, fail_frac, untraced.size(), traced.size());
  if (complete) {
    std::printf("end to end (untraced):\n");
    print_metrics(e2e, untraced.size());
    if (opt.trace) {
      std::printf("per layer (traced):\n");
      print_metrics(layers, traced.size());
    }
  }

  // Full report: provenance (where and how it ran) apart from results (a
  // function of the code, workload and seed). Compare results only between
  // reports whose provenance matches.
  std::string provenance =
      "{\"host_cores\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"workers\": " +
      std::to_string(sim::Gang::resolve_workers(kWorkers, w.nodes)) +
      ", \"gang\": " + quoted(sim::to_string(w.gang)) +
      ", \"compiler\": " + quoted(__VERSION__) +
      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"source\": " + quoted(opt.source) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + number(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
  std::string results =
      "{\"workload\": " + quoted(w.name) + ", \"app\": " + quoted(w.app) +
      ", \"protocol\": " + quoted(protocols::to_string(w.protocol)) +
      ", \"nodes\": " + std::to_string(w.nodes) +
      ", \"scale\": " + number(params.scale) +
      ", \"warmup\": " + std::to_string(params.warmup_iterations) +
      ", \"iterations\": " + std::to_string(params.measured_iterations) +
      ", \"net_profile\": \"sp2\"" +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"fail_frac\": " + number(fail_frac) +
      ", \"untraced_answers\": " + std::to_string(untraced.size()) +
      ", \"traced_answers\": " + std::to_string(traced.size()) +
      ", \"untraced_samples\": " + samples_json(untraced) +
      ", \"end_to_end\": " + metrics_json(e2e) +
      ", \"per_layer\": " + metrics_json(layers) + "}";
  std::printf("{\"provenance\": %s, \"results\": %s}\n", provenance.c_str(),
              results.c_str());

  const bool correct = complete && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(opt.trace ? layers : e2e).c_str());
  return 0;
}
