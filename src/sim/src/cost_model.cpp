#include "updsm/sim/cost_model.hpp"

#include <cstdlib>
#include <utility>

#include "updsm/common/error.hpp"

namespace updsm::sim {

CostModel CostModel::rdma_defaults() {
  CostModel m;  // start from the SP-2 calibration; swap the interconnect
  m.net.per_message = usec(1.2);
  m.net.per_byte_ns = 0.1;  // 10 GB/s sustained
  m.net.send_trap = usec(0.15);
  m.net.recv_trap = usec(0.15);
  return m;
}

bool CostModel::known_profile(std::string_view profile) {
  return profile == "sp2" || profile == "rdma";
}

CostModel CostModel::from_profile(std::string_view profile) {
  if (profile == "sp2") return sp2_defaults();
  if (profile == "rdma") return rdma_defaults();
  throw UsageError("unknown net profile: '" + std::string(profile) +
                   "' (valid: sp2, rdma)");
}

namespace {

/// One override slot: a key name plus how the parsed double lands in the
/// model. Time-valued keys (_us) convert through usec(); everything else is
/// stored verbatim.
struct CostKey {
  const char* name;
  void (*set)(CostModel&, double);
};

const CostKey kCostKeys[] = {
    {"net.per_message_us",
     [](CostModel& m, double v) { m.net.per_message = usec(v); }},
    {"net.per_byte_ns", [](CostModel& m, double v) { m.net.per_byte_ns = v; }},
    {"net.send_trap_us",
     [](CostModel& m, double v) { m.net.send_trap = usec(v); }},
    {"net.recv_trap_us",
     [](CostModel& m, double v) { m.net.recv_trap = usec(v); }},
    {"net.header_bytes",
     [](CostModel& m, double v) {
       m.net.header_bytes = static_cast<std::uint32_t>(v);
     }},
    {"os.segv_us", [](CostModel& m, double v) { m.os.segv = usec(v); }},
    {"os.mprotect_us",
     [](CostModel& m, double v) { m.os.mprotect_base = usec(v); }},
    {"os.stress_multiplier",
     [](CostModel& m, double v) { m.os.stress_multiplier = v; }},
    {"os.slow_page_fraction",
     [](CostModel& m, double v) { m.os.slow_page_fraction = v; }},
    {"os.stress_threshold_pages",
     [](CostModel& m, double v) {
       m.os.stress_threshold_pages = static_cast<std::uint32_t>(v);
     }},
    {"os.fault_service_extra_us",
     [](CostModel& m, double v) { m.os.fault_service_extra = usec(v); }},
    {"dsm.diff_create_per_byte_ns",
     [](CostModel& m, double v) { m.dsm.diff_create_per_byte_ns = v; }},
    {"dsm.diff_apply_per_byte_ns",
     [](CostModel& m, double v) { m.dsm.diff_apply_per_byte_ns = v; }},
    {"dsm.copy_per_byte_ns",
     [](CostModel& m, double v) { m.dsm.copy_per_byte_ns = v; }},
    {"dsm.diff_fixed_us",
     [](CostModel& m, double v) { m.dsm.diff_fixed = usec(v); }},
    {"dsm.handler_fixed_us",
     [](CostModel& m, double v) { m.dsm.handler_fixed = usec(v); }},
    {"dsm.update_store_fixed_us",
     [](CostModel& m, double v) { m.dsm.update_store_fixed = usec(v); }},
    {"dsm.update_store_per_byte_ns",
     [](CostModel& m, double v) { m.dsm.update_store_per_byte_ns = v; }},
    {"dsm.barrier_master_per_node_us",
     [](CostModel& m, double v) { m.dsm.barrier_master_per_node = usec(v); }},
    {"dsm.policy_eval_per_page_ns",
     [](CostModel& m, double v) { m.dsm.policy_eval_per_page_ns = v; }},
    {"app.flop_ns", [](CostModel& m, double v) { m.app.flop_ns = v; }},
};

std::string joined_key_list() {
  std::string out;
  for (const CostKey& k : kCostKeys) {
    if (!out.empty()) out += ", ";
    out += k.name;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& CostModel::cost_key_list() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> v;
    for (const CostKey& k : kCostKeys) v.emplace_back(k.name);
    return v;
  }();
  return keys;
}

void CostModel::apply_override(std::string_view spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == spec.size()) {
    throw UsageError("malformed cost override '" + std::string(spec) +
                     "' (expected key=value)");
  }
  const std::string_view key = spec.substr(0, eq);
  const std::string value_str(spec.substr(eq + 1));
  char* end = nullptr;
  const double value = std::strtod(value_str.c_str(), &end);
  if (end == value_str.c_str() || *end != '\0') {
    throw UsageError("cost override '" + std::string(spec) +
                     "': value is not a number");
  }
  if (value < 0) {
    throw UsageError("cost override '" + std::string(spec) +
                     "': costs must be >= 0");
  }
  for (const CostKey& k : kCostKeys) {
    if (key == k.name) {
      k.set(*this, value);
      return;
    }
  }
  throw UsageError("unknown cost key '" + std::string(key) +
                   "' (valid keys: " + joined_key_list() + ")");
}

void apply_cost_overrides(CostModel& model,
                          const std::vector<std::string>& overrides) {
  for (const std::string& spec : overrides) model.apply_override(spec);
}

}  // namespace updsm::sim
