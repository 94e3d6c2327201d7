// Command-line front end shared by updsm_run and every bench: one table of
// flags over the cluster and application knobs, each with a strict value
// parser, plus the flags a tool adds itself, parsed by the same loop.
// Flags apply left to right. A bad value fails with an error naming the
// flag and the value; so do unknown flags and the table flags a tool sets
// itself (`owned`). --help is generated from the table.
#pragma once

#include <climits>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "updsm/apps/application.hpp"
#include "updsm/dsm/config.hpp"

namespace updsm::harness {

/// Everything the shared flag table sets. `cluster.costs` is not read:
/// cluster_config() derives the costs from `cluster.net_profile` with
/// `cost_overrides` applied in order, whichever order the flags came in.
struct RunOptions {
  dsm::ClusterConfig cluster;
  apps::AppParams app{.seed = 0x1998'0330};
  std::vector<std::string> cost_overrides;

  /// `cluster` with its costs; throws UsageError if it is not valid
  /// (dsm::validate_cluster_config).
  [[nodiscard]] dsm::ClusterConfig cluster_config() const;
};

/// A flag one tool adds to the shared table. `set` gets the text after the
/// `=` (empty for a switch) and throws UsageError on a bad value.
struct ToolFlag {
  std::string_view name;     // without the leading "--"
  std::string_view metavar;  // "N" in --help; empty for a switch
  std::string_view help;
  std::function<void(std::string_view value)> set;
};

/// What a tool declares about its command line: its own flags, and the
/// table flags it sets itself (per cell, say), which it refuses.
struct CommandLine {
  std::vector<ToolFlag> flags = {};
  std::vector<std::string_view> owned = {};
};

/// Parses argv[1..] left to right into `opt` and the tool's own flags,
/// checking the options after every flag. Returns false when --help (or
/// -h) is given; nothing after it is parsed. Throws UsageError naming the
/// flag and its value on an unknown or refused flag, a malformed value, or
/// a value the cluster or application would reject.
[[nodiscard]] bool parse_flags(int argc, const char* const* argv,
                               RunOptions& opt, const CommandLine& cli);

/// --help for the tool named argv0: its own flags, then the table minus
/// the flags it owns.
[[nodiscard]] std::string help_text(const char* argv0, const CommandLine& cli);

/// parse_flags for main(): --help prints help_text to stdout and exits 0;
/// an error prints "error: ..." to stderr and exits 2.
void parse_flags_or_exit(int argc, const char* const* argv, RunOptions& opt,
                         const CommandLine& cli);

/// Strict value parsers: decimal integers in [lo, hi], and comma-separated
/// lists of them. Throw UsageError on anything else.
[[nodiscard]] int parse_int(std::string_view value, int lo = INT_MIN,
                            int hi = INT_MAX);
[[nodiscard]] std::vector<int> parse_int_list(std::string_view value, int lo,
                                              int hi);

}  // namespace updsm::harness
