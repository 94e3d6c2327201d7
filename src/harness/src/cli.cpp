#include "updsm/harness/cli.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "updsm/common/error.hpp"

namespace updsm::harness {

namespace {

using V = std::string_view;

/// strtoull(..., 0), so 0x... still works, over the whole text: no sign,
/// no blanks, no trailing junk.
std::uint64_t parse_seed(V value) {
  const std::string text(value);
  char* end = nullptr;
  errno = 0;
  const unsigned long long out = std::strtoull(text.c_str(), &end, 0);
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0') {
    throw UsageError("not an unsigned integer");
  }
  if (errno == ERANGE) throw UsageError("out of range");
  return out;
}

/// strtod over the whole text; the result must be finite.
double parse_double(V value) {
  const std::string text(value);
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0') {
    throw UsageError("not a number");
  }
  if (errno == ERANGE || !std::isfinite(out)) throw UsageError("out of range");
  return out;
}

sim::GangMode parse_gang(V value) {
  for (const auto mode : {sim::GangMode::Parallel, sim::GangMode::Baton,
                          sim::GangMode::Async}) {
    if (value == sim::to_string(mode)) return mode;
  }
  throw UsageError("expected parallel, baton or async");
}

/// An inline spec or the name of a file holding one; a file that opens wins
/// (a spec is never a valid relative path). A spec with no rule would run
/// fault-free, so the flag refuses it, as it refuses a file it opens but
/// cannot read.
sim::FaultSpec parse_faults(V value) {
  std::string text(value);
  if (std::ifstream in{text}) {
    in.peek();  // a directory opens, then fails its first read
    if (in.bad()) throw UsageError("cannot read the file");
    std::ostringstream content;
    content << in.rdbuf();
    text = content.str();
  }
  sim::FaultSpec spec = sim::FaultSpec::parse(text);
  if (spec.empty()) throw UsageError("names no rule (e.g. drop=0.1)");
  return spec;
}

/// One flag of the shared table: `--name=METAVAR`, or a switch when the
/// metavar is empty. `set` parses the value into its field; the range
/// checks are the cluster's and the application's own, run after it.
struct Flag {
  const char* name;
  const char* metavar;
  const char* help;
  void (*set)(RunOptions&, V value);
};

const Flag kFlags[] = {
    {"nodes", "N", "cluster size (default 8)",
     [](RunOptions& o, V v) { o.cluster.num_nodes = parse_int(v); }},
    {"scale", "F", "linear problem-size factor (1.0 = paper scale)",
     [](RunOptions& o, V v) { o.app.scale = parse_double(v); }},
    {"warmup", "N", "unmeasured time-steps (default 5)",
     [](RunOptions& o, V v) { o.app.warmup_iterations = parse_int(v); }},
    {"iters", "N", "measured time-steps (default 10)",
     [](RunOptions& o, V v) { o.app.measured_iterations = parse_int(v); }},
    {"seed", "N", "dataset seed of the synthetic workloads",
     [](RunOptions& o, V v) { o.app.seed = parse_seed(v); }},
    {"page-size", "B", "protection granularity (default 8192)",
     [](RunOptions& o, V v) {
       o.cluster.page_size = static_cast<std::uint32_t>(parse_int(v, 0));
     }},
    {"gang", "MODE",
     "parallel|baton|async node scheduling (default\n"
     "parallel); async needs a parallel-safe protocol",
     [](RunOptions& o, V v) { o.cluster.gang = parse_gang(v); }},
    {"workers", "M",
     "parallel gang workers, the calling thread one\n"
     "of them (default: cores)",
     [](RunOptions& o, V v) { o.cluster.workers = parse_int(v, 1); }},
    {"fanout", "K", "k-ary tree barrier (default 0 = flat master barrier)",
     [](RunOptions& o, V v) { o.cluster.barrier_fanout = parse_int(v); }},
    {"relay-threshold", "N",
     "relay update batches bound for more than N\nnodes (default 0 = off)",
     [](RunOptions& o, V v) { o.cluster.relay_threshold = parse_int(v); }},
    {"net-profile", "P", "interconnect costs: sp2 (default) or rdma",
     [](RunOptions& o, V v) { o.cluster.net_profile = v; }},
    {"cost", "K=V",
     "override one cost key (repeatable), e.g.\n"
     "--cost=net.per_message_us=5",
     [](RunOptions& o, V v) { o.cost_overrides.emplace_back(v); }},
    {"adaptive-window", "W", "adaptive protocol history length (default 4)",
     [](RunOptions& o, V v) { o.cluster.adaptive_window = parse_int(v); }},
    {"faults", "SPEC",
     "fault plan, inline or in a file: 'drop=0.1',\n"
     "'kind=flushbatch,drop=0.3' (sim/fault_plan.hpp)",
     [](RunOptions& o, V v) { o.cluster.faults = parse_faults(v); }},
    {"fault-seed", "N", "seed of the fault plan's decision streams",
     [](RunOptions& o, V v) { o.cluster.fault_seed = parse_seed(v); }},
    {"no-migration", "", "disable runtime home migration",
     [](RunOptions& o, V) { o.cluster.home_migration = false; }},
    {"staleness", "N",
     "async: refresh a cached page more than N\n"
     "publishes behind its home (default 4)",
     [](RunOptions& o, V v) { o.cluster.staleness_bound = parse_int(v); }},
    {"tolerance", "F", "residual tolerance of the async workloads (1e-6)",
     [](RunOptions& o, V v) { o.cluster.async_tolerance = parse_double(v); }},
};

std::string tool_name(const char* argv0) {
  const std::string_view path(argv0);
  return std::string(path.substr(path.rfind('/') + 1));
}

void append_help(std::string& out, V name, V metavar, V help) {
  constexpr std::size_t kColumn = 24;
  std::string left = "  --";
  left += name;
  if (!metavar.empty()) {
    left += '=';
    left += metavar;
  }
  out += left.size() < kColumn ? left + std::string(kColumn - left.size(), ' ')
                               : left + "\n" + std::string(kColumn, ' ');
  for (const char c : help) {
    out += c;
    if (c == '\n') out += std::string(kColumn, ' ');
  }
  out += '\n';
}

}  // namespace

int parse_int(V value, int lo, int hi) {
  int out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec == std::errc::result_out_of_range) throw UsageError("out of range");
  if (ec != std::errc() || ptr != end) throw UsageError("not an integer");
  if (out < lo || out > hi) {
    throw UsageError(hi == INT_MAX ? "must be >= " + std::to_string(lo)
                                   : "must be between " + std::to_string(lo) +
                                         " and " + std::to_string(hi));
  }
  return out;
}

std::vector<int> parse_int_list(V value, int lo, int hi) {
  std::vector<int> out;
  for (;;) {
    const std::size_t comma = value.find(',');
    const V entry = value.substr(0, comma);
    try {
      out.push_back(parse_int(entry, lo, hi));
    } catch (const UsageError& e) {
      throw UsageError("entry '" + std::string(entry) + "': " + e.what());
    }
    if (comma == V::npos) return out;
    value.remove_prefix(comma + 1);
  }
}

dsm::ClusterConfig RunOptions::cluster_config() const {
  dsm::ClusterConfig cfg = cluster;
  cfg.costs = sim::CostModel::from_profile(cfg.net_profile);
  sim::apply_cost_overrides(cfg.costs, cost_overrides);
  dsm::validate_cluster_config(cfg);
  return cfg;
}

bool parse_flags(int argc, const char* const* argv, RunOptions& opt,
                 const CommandLine& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    const std::size_t eq = arg.find('=');
    const V name = arg.rfind("--", 0) == 0
                       ? V(arg).substr(2, eq == V::npos ? eq : eq - 2)
                       : V();
    const ToolFlag* tool_flag = nullptr;
    for (const ToolFlag& f : cli.flags) {
      if (f.name == name) tool_flag = &f;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (f.name == name && tool_flag == nullptr) flag = &f;
    }
    if (name.empty() || (tool_flag == nullptr && flag == nullptr)) {
      throw UsageError("unknown flag " + arg + " (see --help)");
    }
    for (const V owned : cli.owned) {
      if (flag != nullptr && owned == name) {
        throw UsageError(arg + ": " + tool_name(argv[0]) + " sets --" +
                         std::string(name) + " itself; drop the flag");
      }
    }
    const V metavar = flag != nullptr ? flag->metavar : tool_flag->metavar;
    if (metavar.empty() != (eq == V::npos)) {
      throw UsageError(arg + (metavar.empty() ? ": takes no value"
                                              : ": needs a value, --" +
                                                    std::string(name) + "=" +
                                                    std::string(metavar)));
    }
    const V value = eq == V::npos ? V() : V(arg).substr(eq + 1);
    try {
      if (flag != nullptr) {
        flag->set(opt, value);
      } else {
        tool_flag->set(value);
      }
      // Each flag is checked as it lands, so a failure is this flag's.
      (void)opt.cluster_config();
      apps::validate_app_params(opt.app);
    } catch (const UsageError& e) {
      throw UsageError(arg + ": " + e.what());
    }
  }
  return true;
}

std::string help_text(const char* argv0, const CommandLine& cli) {
  std::string out = "usage: " + tool_name(argv0) + " [--flag=VALUE ...]\n";
  for (const ToolFlag& f : cli.flags) {
    append_help(out, f.name, f.metavar, f.help);
  }
  for (const Flag& f : kFlags) {
    bool owned = false;
    for (const V o : cli.owned) owned = owned || o == f.name;
    if (!owned) append_help(out, f.name, f.metavar, f.help);
  }
  return out;
}

void parse_flags_or_exit(int argc, const char* const* argv, RunOptions& opt,
                         const CommandLine& cli) {
  try {
    if (parse_flags(argc, argv, opt, cli)) return;
    std::fputs(help_text(argv[0], cli).c_str(), stdout);
    std::exit(0);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace updsm::harness
