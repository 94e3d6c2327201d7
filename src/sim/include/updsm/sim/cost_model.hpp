// Cost model calibrated against the paper's SP-2 micro-benchmarks (§3.2):
//
//   simple RPC round trip            160 us
//   remote page fault (8 KB page)    939 us
//   segv dispatch to user handler    128 us   (AIX best case)
//   mprotect                          12 us   base; "location-dependent,
//                                     occasionally an order of magnitude"
//   sustained link bandwidth        ~ 40 MB/s (0.025 us per byte)
//
// Every number is a plain struct field so ablation benches can perturb one
// knob at a time (e.g. bench/ablation_os_stress zeroes the stress regime).
//
// A second calibration, `rdma_defaults()`, models a modern kernel-bypass
// interconnect (user-level DSM over RDMA-class NICs): ~1 us one-sided
// messages, ~10 GB/s streaming, near-zero send/recv traps. The OS and DSM
// knobs deliberately stay at the SP-2 values -- the profile swaps the
// *interconnect*, so the 1998 conclusions that depend on the per-message /
// per-byte ratio can be re-examined in isolation. Profiles are named
// (`--net-profile=sp2|rdma` on every CLI) and individual fields can be
// perturbed with `--cost key=value` overrides (see cost_key_list()).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "updsm/sim/time.hpp"

namespace updsm::sim {

/// Wire and messaging-stack costs (UDP/IP over the high-performance switch).
struct NetworkCosts {
  /// Fixed per-message latency: switch traversal + protocol stack, excluding
  /// the send/recv system-call traps which are charged separately as OS time.
  SimTime per_message = usec(45);
  /// Payload serialization cost: 0.025 us/B == 40 MB/s sustained.
  double per_byte_ns = 25.0;
  /// Cost of the `send` system-call trap (charged to the sender as OS time).
  SimTime send_trap = usec(15);
  /// Cost of the `recv` system-call trap / sigio dispatch at the receiver.
  SimTime recv_trap = usec(15);
  /// Per-message header bytes, counted in the "data" statistics.
  std::uint32_t header_bytes = 32;

  /// One-way wire time for a payload of `bytes` (excluding traps).
  [[nodiscard]] SimTime wire_time(std::uint64_t bytes) const {
    return per_message +
           static_cast<SimTime>(per_byte_ns *
                                static_cast<double>(bytes + header_bytes));
  }
};

/// Operating-system virtual-memory and trap costs.
struct OsCosts {
  /// Delivering a segmentation violation to the user-level handler.
  SimTime segv = usec(128);
  /// Uncontended mprotect system call.
  SimTime mprotect_base = usec(12);
  /// The paper observes that VM-primitive costs are location-dependent and
  /// occasionally an order of magnitude higher. We model this as a fixed,
  /// deterministic set of "slow" pages (hash-selected) whose protection
  /// changes cost `mprotect_base * stress_multiplier`, active only once the
  /// shared segment exceeds `stress_threshold_pages` (small address spaces
  /// do not stress the AIX VM layer).
  double stress_multiplier = 12.0;
  double slow_page_fraction = 0.40;
  std::uint32_t stress_threshold_pages = 96;
  /// Hash salt for slow-page selection; fixed => location-dependent, i.e.
  /// the same page is always slow, as observed on the SP-2.
  std::uint64_t stress_salt = 0x5eedcafef00dULL;
  /// Kernel-side VM bookkeeping on the remote-page-fault path beyond the
  /// segv dispatch itself (AIX page-in accounting); calibrated so that the
  /// composite remote-fault cost lands near the measured 939 us.
  SimTime fault_service_extra = usec(400);
};

/// User-level protocol (DSM runtime) costs, charged as TimeCat::Dsm.
struct DsmCosts {
  /// Word-at-a-time page comparison when creating a diff.
  double diff_create_per_byte_ns = 6.0;
  /// Applying a diff's runs to a page.
  double diff_apply_per_byte_ns = 4.0;
  /// memcpy for twin creation / whole-page installs.
  double copy_per_byte_ns = 3.0;
  /// Fixed cost per diff created (allocation, bookkeeping).
  SimTime diff_fixed = usec(4);
  /// Fixed cost of any incoming-request handler (lookup + demux).
  SimTime handler_fixed = usec(10);
  /// lmw-u stores out-of-order updates in a lookup structure and validates
  /// lazily at the next access; the paper attributes lmw-u's barnes/swm
  /// regression to exactly this machinery (§3.3). Charged per stored update.
  SimTime update_store_fixed = usec(12);
  double update_store_per_byte_ns = 6.0;
  /// Barrier master bookkeeping per arriving node.
  SimTime barrier_master_per_node = usec(8);
  /// Per-page cost of the adaptive protocol's barrier-time policy
  /// evaluation (window fold + three modeled delivery costs). Charged to
  /// the barrier master for every page re-evaluated, so the predictor
  /// bookkeeping is priced, not free; calibrated against
  /// bench/micro_primitives BM_AdaptivePolicyEval.
  double policy_eval_per_page_ns = 200.0;
};

/// Application computation costs: a 66 MHz POWER2 sustains very roughly one
/// useful flop per ~40 ns on stencil codes once memory traffic is included;
/// applications charge their own flop counts through this knob.
struct AppCosts {
  double flop_ns = 40.0;
};

/// Aggregate model handed to the cluster. Defaults reproduce §3.2.
struct CostModel {
  NetworkCosts net;
  OsCosts os;
  DsmCosts dsm;
  AppCosts app;

  [[nodiscard]] static CostModel sp2_defaults() { return CostModel{}; }

  /// Kernel-bypass interconnect: ~1.2 us one-sided put/get, 10 GB/s
  /// streaming (0.1 ns/B), ~150 ns doorbell/poll instead of syscall traps.
  /// OS (VM) and DSM (protocol software) costs keep their SP-2 values.
  [[nodiscard]] static CostModel rdma_defaults();

  /// Named profile lookup ("sp2" | "rdma"); throws UsageError otherwise.
  [[nodiscard]] static CostModel from_profile(std::string_view profile);
  [[nodiscard]] static bool known_profile(std::string_view profile);

  /// Applies one "--cost key=value" override, e.g. "net.per_message_us=45".
  /// Time-valued keys end in _us (microseconds), rate-valued keys in _ns
  /// (nanoseconds per byte / per unit). Throws UsageError listing the valid
  /// keys on an unknown key or a malformed spec.
  void apply_override(std::string_view spec);

  /// All valid override keys, for --help text and error messages.
  [[nodiscard]] static const std::vector<std::string>& cost_key_list();

  /// The paper's "simple RPC" microbenchmark: empty request, empty reply.
  /// send_trap + wire + recv_trap + handler + send_trap + wire + recv_trap.
  [[nodiscard]] SimTime rpc_roundtrip() const {
    return net.send_trap + net.wire_time(0) + net.recv_trap +
           dsm.handler_fixed + net.send_trap + net.wire_time(0) +
           net.recv_trap;
  }

  /// Composite remote-page-fault cost for a page of `page_bytes`: the §3.2
  /// "remote page fault" microbenchmark, mirroring the simulator's actual
  /// charging path (segv dispatch, 16-byte request / page+32 reply
  /// roundtrip with a serve-side page copy, install copy, re-protect, and
  /// the kernel page-in bookkeeping). ~939 us for 8 KB under sp2 defaults.
  [[nodiscard]] SimTime remote_page_fault(std::uint32_t page_bytes) const {
    const SimTime serve_copy = static_cast<SimTime>(
        dsm.copy_per_byte_ns * static_cast<double>(page_bytes));
    const SimTime service = net.recv_trap + dsm.handler_fixed + serve_copy +
                            net.send_trap;
    return os.segv + net.send_trap + net.wire_time(16) + service +
           net.wire_time(page_bytes + 32) + net.recv_trap + serve_copy +
           os.fault_service_extra + os.mprotect_base;
  }
};

/// Applies a list of "key=value" specs in order (the repeatable --cost flag).
void apply_cost_overrides(CostModel& model,
                          const std::vector<std::string>& overrides);

}  // namespace updsm::sim
