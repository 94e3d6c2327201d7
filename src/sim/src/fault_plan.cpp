#include "updsm/sim/fault_plan.hpp"

#include <charconv>
#include <cmath>

#include "updsm/common/error.hpp"
#include "updsm/common/rng.hpp"

namespace updsm::sim {
namespace {

// Hash salts separating the independent decision streams of one message.
constexpr std::uint64_t kSaltDrop = 0x6472u;   // 'dr'
constexpr std::uint64_t kSaltDup = 0x6475u;    // 'du'
constexpr std::uint64_t kSaltDelay = 0x6465u;  // 'de'
constexpr std::uint64_t kSaltStall = 0x7374u;  // 'st'

[[nodiscard]] double hash_uniform(std::uint64_t stream_seed, std::uint64_t k,
                                  std::uint64_t salt) {
  const std::uint64_t h =
      splitmix64(stream_seed ^ splitmix64(k * 4 + salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[nodiscard]] int parse_msg_kind(std::string_view s) {
  for (std::size_t i = 0; i < kMsgKindCount; ++i) {
    if (s == to_string(static_cast<MsgKind>(i))) return static_cast<int>(i);
  }
  throw UsageError("faults: unknown message kind '" + std::string(s) +
                           "'");
}

[[nodiscard]] int parse_filter(std::string_view key, std::string_view s) {
  if (s == "*") return -1;
  int v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v < 0) {
    throw UsageError("faults: bad " + std::string(key) + " value '" +
                             std::string(s) + "'");
  }
  return v;
}

[[nodiscard]] double parse_prob(std::string_view key, std::string_view s) {
  double v = 0.0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v < 0.0 || v > 1.0 ||
      !std::isfinite(v)) {
    throw UsageError("faults: " + std::string(key) +
                             " must be a probability in [0,1], got '" +
                             std::string(s) + "'");
  }
  return v;
}

[[nodiscard]] SimTime parse_usecs(std::string_view key, std::string_view s) {
  std::int64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v < 0) {
    throw UsageError("faults: bad " + std::string(key) + " value '" +
                             std::string(s) + "'");
  }
  return usec(v);
}

}  // namespace

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    std::string_view rule_text = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace (files may end with a newline).
    while (!rule_text.empty() &&
           (rule_text.front() == ' ' || rule_text.front() == '\n' ||
            rule_text.front() == '\t' || rule_text.front() == '\r')) {
      rule_text.remove_prefix(1);
    }
    while (!rule_text.empty() &&
           (rule_text.back() == ' ' || rule_text.back() == '\n' ||
            rule_text.back() == '\t' || rule_text.back() == '\r')) {
      rule_text.remove_suffix(1);
    }
    if (rule_text.empty()) {
      if (end == text.size()) break;
      continue;
    }

    FaultRule rule;
    std::size_t fpos = 0;
    while (fpos <= rule_text.size()) {
      const std::size_t fend =
          std::min(rule_text.find(',', fpos), rule_text.size());
      std::string_view field = rule_text.substr(fpos, fend - fpos);
      fpos = fend + 1;
      // Fields tolerate padding too: "kind = flush , drop = 0.1" is valid.
      auto trim = [](std::string_view s) {
        while (!s.empty() && (s.front() == ' ' || s.front() == '\n' ||
                              s.front() == '\t' || s.front() == '\r')) {
          s.remove_prefix(1);
        }
        while (!s.empty() && (s.back() == ' ' || s.back() == '\n' ||
                              s.back() == '\t' || s.back() == '\r')) {
          s.remove_suffix(1);
        }
        return s;
      };
      field = trim(field);
      if (field.empty()) {
        if (fend == rule_text.size()) break;
        continue;
      }
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        throw UsageError("faults: expected key=value, got '" +
                                 std::string(field) + "'");
      }
      const std::string_view key = trim(field.substr(0, eq));
      const std::string_view val = trim(field.substr(eq + 1));
      if (key == "kind") {
        rule.kind = (val == "*") ? -1 : parse_msg_kind(val);
      } else if (key == "from") {
        rule.from = parse_filter(key, val);
      } else if (key == "to" || key == "node") {
        rule.to = parse_filter(key, val);
      } else if (key == "drop") {
        rule.drop = parse_prob(key, val);
      } else if (key == "dup") {
        rule.dup = parse_prob(key, val);
      } else if (key == "delay") {
        rule.delay = parse_prob(key, val);
      } else if (key == "delay_us") {
        rule.delay_time = parse_usecs(key, val);
      } else if (key == "stall") {
        rule.stall = parse_prob(key, val);
      } else if (key == "stall_us") {
        rule.stall_time = parse_usecs(key, val);
      } else {
        throw UsageError("faults: unknown key '" + std::string(key) +
                                 "'");
      }
      if (fend == rule_text.size()) break;
    }
    spec.rules.push_back(rule);
    if (end == text.size()) break;
  }
  return spec;
}

FaultPlan::FaultPlan(FaultSpec spec, std::uint64_t seed, int num_nodes)
    : spec_(std::move(spec)),
      seed_(seed),
      num_nodes_(num_nodes),
      counters_(spec_.empty() ? 0
                              : kMsgKindCount * static_cast<std::size_t>(
                                                    num_nodes * num_nodes),
                0) {}

double FaultPlan::draw(std::uint64_t stream, std::uint64_t k,
                       std::uint64_t salt) const {
  const std::uint64_t stream_seed =
      splitmix64(seed_ ^ splitmix64(stream + 1));
  return hash_uniform(stream_seed, k, salt);
}

const FaultRule* FaultPlan::match(MsgKind kind, NodeId from, NodeId to) const {
  for (const FaultRule& r : spec_.rules) {
    if (r.matches(kind, from, to)) return &r;
  }
  return nullptr;
}

FaultDecision FaultPlan::next(MsgKind kind, NodeId from, NodeId to) {
  FaultDecision d;
  if (spec_.empty()) return d;
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  const std::size_t triple = static_cast<std::size_t>(kind) * n * n +
                             from.index() * n + to.index();
  const std::uint64_t k = counters_[triple]++;
  const FaultRule* rule = match(kind, from, to);
  if (rule == nullptr) return d;
  if (rule->drop > 0 && draw(triple, k, kSaltDrop) < rule->drop) {
    d.drop = true;
    return d;  // a dropped message can be neither duplicated nor delayed
  }
  if (rule->dup > 0 && draw(triple, k, kSaltDup) < rule->dup) {
    d.duplicate = true;
  }
  if (rule->delay > 0 && draw(triple, k, kSaltDelay) < rule->delay) {
    d.extra_delay = rule->delay_time;
  }
  return d;
}

SimTime FaultPlan::stall(NodeId node, std::uint64_t barrier) const {
  for (const FaultRule& r : spec_.rules) {
    if (r.stall <= 0) continue;
    if (r.to >= 0 && r.to != static_cast<int>(node.value())) continue;
    const std::uint64_t stream =
        kMsgKindCount * static_cast<std::uint64_t>(num_nodes_) *
            static_cast<std::uint64_t>(num_nodes_) +
        node.value();
    if (draw(stream, barrier, kSaltStall) < r.stall) return r.stall_time;
    return 0;
  }
  return 0;
}

}  // namespace updsm::sim
