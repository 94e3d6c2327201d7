#include "updsm/protocols/adaptive.hpp"

#include <algorithm>
#include <bit>

#include "updsm/common/log.hpp"

namespace updsm::protocols {

namespace {
using mem::Protect;
using sim::SimTime;

[[nodiscard]] double ns(SimTime t) { return static_cast<double>(t); }
}  // namespace

// ---------------------------------------------------------------------------
// AdaptivePolicy: the pure cost comparison.
// ---------------------------------------------------------------------------

double AdaptivePolicy::modeled_cost(PageMode m, PageMode current,
                                    const PageSignal& s) const {
  const auto& net = costs->net;
  const auto& os = costs->os;
  const auto& dsm = costs->dsm;
  const double page = static_cast<double>(page_bytes);
  const double w = s.writers_avg;
  const double b = s.diff_bytes_avg;
  const double rate = std::clamp(s.write_rate, 1e-3, 1.0);

  // Building blocks, all in ns per written epoch.
  const double trap = ns(os.segv) + 2.0 * ns(os.mprotect_base);
  const double twin = dsm.copy_per_byte_ns * page;
  const double diff = ns(dsm.diff_fixed) + dsm.diff_create_per_byte_ns * page;
  const double msg = ns(net.send_trap) + ns(net.recv_trap) +
                     ns(net.wire_time(0)) + ns(dsm.handler_fixed);
  const double push_one = w * msg + net.per_byte_ns * b +
                          dsm.diff_apply_per_byte_ns * b;
  const double writer_trap_path = w * (trap + twin + diff);

  switch (m) {
    case PageMode::Invalidate: {
      // Every consumer that re-reads pays the composite remote fault.
      // While invalidation is live the observed demand fetches ARE those
      // re-reads; entering invalidation is judged on the structural
      // consumer count (pushes stop, so fetches cannot be observed yet).
      const double refetchers =
          current == PageMode::Invalidate
              ? std::min(s.consumers_avg, s.fetches_avg)
              : s.consumers_avg;
      return writer_trap_path +
             refetchers * ns(costs->remote_page_fault(page_bytes));
    }
    case PageMode::Update:
      return writer_trap_path + s.consumers_avg * push_one;
    case PageMode::Overdrive: {
      // No segv: writers stay armed. The safety tax is the live twin's
      // diff scan at EVERY barrier, written or not -- the quiet-epoch
      // scans (empty diff, no twin refresh) amortize onto each written
      // epoch as diff * (1 - rate) / rate.
      const double scan = twin + diff + diff * (1.0 - rate) / rate;
      return w * scan + s.consumers_avg * push_one;
    }
  }
  return 0.0;
}

bool AdaptivePolicy::consumer_arming_pays(const PageSignal& s,
                                          double mprotect_ns) const {
  const auto& dsm = costs->dsm;
  const double page = static_cast<double>(page_bytes);
  const double rate = std::clamp(s.write_rate, 1e-3, 1.0);
  const double diff = ns(dsm.diff_fixed) + dsm.diff_create_per_byte_ns * page;
  const double twin = dsm.copy_per_byte_ns * page;
  // Per epoch: parked consumer = apply pair per written epoch; armed
  // consumer = one (empty) scan every epoch + twin refresh after applies.
  return rate * 2.0 * mprotect_ns > diff + rate * twin;
}

PageMode AdaptivePolicy::evaluate(PageMode current,
                                  const PageSignal& s) const {
  const double cur_cost = modeled_cost(current, current, s);
  // Overdrive entry needs a full window of identical writer sets (the
  // learned pattern) and at least one consumer worth pushing to. Leaving a
  // mode is purely cost-driven.
  const bool od_eligible = current == PageMode::Overdrive ||
                           (s.window_full && s.stable_writers &&
                            s.consumers_avg >= 1.0);
  // Candidate order is the tie-break: prefer update (the paper's robust
  // default), then overdrive, then invalidate.
  const PageMode candidates[] = {PageMode::Update, PageMode::Overdrive,
                                 PageMode::Invalidate};
  PageMode best = current;
  double best_cost = cur_cost;
  for (const PageMode m : candidates) {
    if (m == current) continue;
    if (m == PageMode::Overdrive && !od_eligible) continue;
    const double c = modeled_cost(m, current, s);
    if (c < best_cost * (best == current ? hysteresis : 1.0) &&
        (best == current || c < best_cost)) {
      best = m;
      best_cost = c;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// AdaptiveProtocol
// ---------------------------------------------------------------------------

void AdaptiveProtocol::init(dsm::Runtime& rt) {
  BarProtocol::init(rt);
  const std::uint32_t pages = rt.num_pages();
  window_ = rt.config().adaptive_window;
  policy_.costs = &rt.config().costs;
  policy_.page_bytes = rt.page_size();
  modes_.assign(pages, PageMode::Update);
  history_.assign(pages, History{});
  epoch_diff_bytes_.assign(pages, 0);
  period_ = 0;
  phase_mask_.assign(pages, 0);
  od_pages_.clear();
  fetch_counts_ = std::make_unique<std::atomic<std::uint32_t>[]>(pages);
  for (std::uint32_t p = 0; p < pages; ++p) {
    fetch_counts_[p].store(0, std::memory_order_relaxed);
  }
  sampled_.clear();
}

void AdaptiveProtocol::observe_diff(NodeId, PageId page,
                                    std::uint64_t bytes) {
  epoch_diff_bytes_[page.index()] += bytes;
}

void AdaptiveProtocol::observe_fetch(NodeId, PageId page) {
  fetch_counts_[page.index()].fetch_add(1, std::memory_order_relaxed);
}

void AdaptiveProtocol::observe_epoch_page(PageId page,
                                          const dsm::NodeSet& writers,
                                          bool /*home_wrote*/) {
  Sample s;
  s.writers = writers;
  s.diff_bytes = epoch_diff_bytes_[page.index()];
  epoch_diff_bytes_[page.index()] = 0;
  s.epoch = rt_->epoch().value();
  // Consumers: replica holders beyond each writer -- the receivers of one
  // writer's diff, by push (bar.cpp's push loop sends to every copyset
  // member but the sender) or by the reliable flush to the home, which the
  // fetch-driven copyset never lists. A multi-writer page with no pure
  // readers still delivers: each writer consumes the others' diffs. (All
  // mid-phase fetches have completed by barrier_master, so the live
  // bitmap's content is schedule-independent here.)
  dsm::NodeSet holders = gpage(page).copyset.snapshot();
  holders.add(gpage(page).home);
  const std::uint32_t members = static_cast<std::uint32_t>(holders.count());
  s.consumers = members > 0 ? members - 1 : 0;
  s.fetches =
      fetch_counts_[page.index()].exchange(0, std::memory_order_relaxed);
  push_sample(page, std::move(s));
  sampled_.push_back(page);
}

void AdaptiveProtocol::push_sample(PageId page, Sample s) {
  History& h = history_[page.index()];
  if (h.ring.empty()) h.ring.resize(static_cast<std::size_t>(window_));
  if (h.count == h.ring.size()) ++rt_->counters().adaptive_window_evictions;
  h.ring[h.head] = std::move(s);
  h.head = (h.head + 1) % h.ring.size();
  if (h.count < h.ring.size()) ++h.count;
}

PageSignal AdaptiveProtocol::summarize(const History& h) const {
  PageSignal sig;
  if (h.count == 0) return sig;
  double writers_sum = 0, bytes_sum = 0, consumers_sum = 0, fetches_sum = 0;
  std::uint64_t oldest_epoch = ~0ULL, newest_epoch = 0;
  bool stable = true;
  const Sample* first = nullptr;
  for (std::size_t i = 0; i < h.count; ++i) {
    // Oldest first: with a full ring, head points at the oldest sample.
    const std::size_t idx =
        h.count == h.ring.size() ? (h.head + i) % h.ring.size() : i;
    const Sample& s = h.ring[idx];
    if (first == nullptr) {
      first = &s;
    } else if (!(s.writers == first->writers)) {
      stable = false;
    }
    writers_sum += s.writers.count();
    bytes_sum += static_cast<double>(s.diff_bytes);
    consumers_sum += s.consumers;
    fetches_sum += s.fetches;
    oldest_epoch = std::min(oldest_epoch, s.epoch);
    newest_epoch = std::max(newest_epoch, s.epoch);
  }
  const double n = static_cast<double>(h.count);
  const double span =
      static_cast<double>(newest_epoch - oldest_epoch) + 1.0;
  sig.write_rate = std::min(1.0, n / span);
  sig.writers_avg = writers_sum / n;
  sig.diff_bytes_avg = bytes_sum / n;
  sig.consumers_avg = consumers_sum / n;
  sig.fetches_avg = fetches_sum / n;
  sig.stable_writers = stable;
  sig.window_full = h.count == h.ring.size() && !h.ring.empty();
  return sig;
}

void AdaptiveProtocol::barrier_finish() {
  // Base work first: copyset_frozen shadows and snapshot upkeep must
  // reflect this barrier before any mode switch manufactures twins.
  BarProtocol::barrier_finish();

  // Re-evaluate exactly the pages written this epoch (sampled_ is sorted:
  // barrier_master visits epoch_touched_ in sorted order). Overdrive entry
  // additionally waits for the steady state: the loop-entry reset and the
  // one-shot home migration rewrite copysets and homes wholesale, so a
  // pattern learned before them is void.
  const bool steady =
      loop_entered_ &&
      (migration_done_ || !rt_->config().home_migration);
  // Barriers per time-step iteration, learned from the harness's loop
  // annotations (same source bar-m's engagement uses). Node 0's record is
  // as good as any: every node begins the same iteration together.
  const auto& ib = node(NodeId{0}).iter_begin_epochs;
  period_ = ib.size() >= 3 ? ib[ib.size() - 1] - ib[ib.size() - 2] : 0;
  std::uint64_t evaluated = 0;
  for (const PageId page : sampled_) {
    if (gpage(page).untracked) continue;  // home-private fast path is free
    ++evaluated;
    const PageMode current = modes_[page.index()];
    const PageSignal sig = summarize(history_[page.index()]);
    UPDSM_LOG(Trace, "adaptive-sig: page " << page << " cur "
                     << to_string(current) << " rate " << sig.write_rate
                     << " w " << sig.writers_avg << " b " << sig.diff_bytes_avg
                     << " K " << sig.consumers_avg << " F " << sig.fetches_avg
                     << " stable " << sig.stable_writers << " full "
                     << sig.window_full << " steady " << steady);
    PageMode next = policy_.evaluate(current, sig);
    if (next == PageMode::Overdrive && current != PageMode::Overdrive &&
        !steady) {
      next = current;
    }
    if (next != current) apply_switch(page, current, next);
    if (modes_[page.index()] == PageMode::Overdrive) update_phase(page);
  }
  sampled_.clear();

  // Phase parking: flip each overdrive replica to the protection its
  // page's next-epoch prediction wants. Runs AFTER release, so armed
  // pages absorbed this epoch's pushes flip-free before parking; a parked
  // replica keeps its (synced) twin, costs nothing on quiet epochs --
  // barrier_arrive skips scanning read-protected twins -- and re-arms
  // here with a single mprotect. Controller context, sorted page / node
  // order: deterministic.
  const std::uint64_t next_epoch = rt_->epoch().value() + 1;
  for (const PageId page : od_pages_) {
    const std::uint64_t mask = phase_mask_[page.index()];
    const bool want_armed =
        mask == 0 || ((mask >> (next_epoch % period_)) & 1) != 0;
    for (int i = 0; i < rt_->num_nodes(); ++i) {
      const NodeId n{static_cast<std::uint32_t>(i)};
      if (!node(n).twins.has(page)) continue;
      const Protect prot = rt_->table(n).prot(page);
      if (want_armed && prot == Protect::Read) {
        rt_->mprotect(n, page, Protect::ReadWrite);
      } else if (!want_armed && prot == Protect::ReadWrite) {
        rt_->mprotect(n, page, Protect::Read);
      }
    }
  }

  // The predictor is not free: charge the barrier master for every
  // evaluation performed (window fold + three modeled costs).
  if (evaluated != 0) {
    rt_->charge_dsm(
        NodeId{0},
        static_cast<SimTime>(rt_->costs().dsm.policy_eval_per_page_ns *
                             static_cast<double>(evaluated)));
  }
}

void AdaptiveProtocol::apply_switch(PageId page, PageMode from,
                                    PageMode to) {
  modes_[page.index()] = to;
  ++rt_->counters().adaptive_switches;
  UPDSM_LOG(Debug, "adaptive: page " << page << " " << to_string(from)
                                     << " -> " << to_string(to) << " epoch "
                                     << rt_->epoch());

  if (to == PageMode::Overdrive) {
    od_pages_.insert(
        std::lower_bound(od_pages_.begin(), od_pages_.end(), page), page);
    arm_page(page);
  } else if (from == PageMode::Overdrive) {
    od_pages_.erase(
        std::find(od_pages_.begin(), od_pages_.end(), page));
    phase_mask_[page.index()] = 0;
    // Disarm: drop any armed (or parked) twin and restore trap-based
    // writing. A parked replica is already read-protected.
    for (int i = 0; i < rt_->num_nodes(); ++i) {
      const NodeId n{static_cast<std::uint32_t>(i)};
      NodeState& st = node(n);
      if (st.twins.has(page)) st.twins.discard(page);
      if (rt_->table(n).prot(page) == Protect::ReadWrite &&
          !st.snapshots.has(page)) {
        rt_->mprotect(n, page, Protect::Read);
      }
    }
  }
}

void AdaptiveProtocol::arm_page(PageId page) {
  // Arm the learned writers: twin + write-enable, so steady-state writes
  // trap no segv. Only nodes holding a valid replica are armed -- an
  // invalid copy re-joins through the normal fault path, and a writer the
  // window never saw arms itself on its first (trapped) write.
  const History& h = history_[page.index()];
  if (h.count == 0) return;
  const auto arm_one = [&](NodeId n) {
    if (rt_->table(n).prot(page) == Protect::None) return;
    NodeState& st = node(n);
    if (!st.twins.has(page)) rt_->create_twin(n, st.twins, page);
    if (rt_->table(n).prot(page) != Protect::ReadWrite) {
      rt_->mprotect(n, page, Protect::ReadWrite);
    }
  };
  const std::size_t newest = (h.head + h.ring.size() - 1) % h.ring.size();
  h.ring[newest].writers.for_each(arm_one);

  // Pure-reader consumers are armed too when the page's own (possibly
  // VM-stressed) mprotect cost makes the apply pair dearer than the armed
  // scan -- an armed consumer applies pushes with no protection flips, at
  // the price of an empty scan per epoch. Safe for the same reason as the
  // writers: armed implies twinned, and every twin is diffed at every
  // barrier, so even a consumer that unexpectedly starts writing is
  // captured at the next sequence point.
  const auto& os_costs = rt_->costs().os;
  const double mprotect_ns =
      ns(os_costs.mprotect_base) *
      (rt_->os(NodeId{0}).slow_page(page) ? os_costs.stress_multiplier : 1.0);
  if (policy_.consumer_arming_pays(summarize(h), mprotect_ns)) {
    dsm::NodeSet holders = gpage(page).copyset.snapshot();
    holders.add(gpage(page).home);
    holders.for_each(arm_one);
  }
}

void AdaptiveProtocol::update_phase(PageId page) {
  std::uint64_t& mask = phase_mask_[page.index()];
  mask = 0;
  if (period_ < 2 || period_ > 64) return;
  const History& h = history_[page.index()];
  if (h.ring.empty() || h.count < h.ring.size()) return;
  // The window's written epochs, as residues mod the period.
  std::uint64_t lo = ~0ULL, hi = 0, m = 0;
  for (std::size_t i = 0; i < h.count; ++i) {
    const std::uint64_t e = h.ring[i].epoch;
    m |= 1ULL << (e % period_);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  const std::uint64_t span = hi - lo + 1;
  if (span < period_ || span > 8 * period_) return;
  // Exact cover: the pattern is periodic only if every epoch in the
  // window's span whose residue is marked was actually a written sample.
  // (Samples exist only for written epochs, so over-coverage is the sole
  // failure mode.)
  std::uint64_t expect = 0;
  for (std::uint64_t e = lo; e <= hi; ++e) {
    expect += (m >> (e % period_)) & 1;
  }
  if (expect != h.count) return;
  const int quiet = static_cast<int>(period_) - std::popcount(m);
  if (quiet <= 0) return;  // written every epoch: nothing to park
  // Each maximal cyclic run of quiet residues costs one park + one re-arm
  // mprotect per armed replica and saves `run length` empty scans. Park
  // only if that is a net win at the page's own (possibly VM-stressed)
  // mprotect price -- slow pages under memory pressure stay permanently
  // armed and keep paying the cheaper scans.
  int runs = 0;
  for (std::uint64_t r = 0; r < period_; ++r) {
    const bool q = ((m >> r) & 1) == 0;
    const bool prev_q = ((m >> ((r + period_ - 1) % period_)) & 1) == 0;
    if (q && !prev_q) ++runs;
  }
  const auto& os_costs = rt_->costs().os;
  const double mp =
      ns(os_costs.mprotect_base) *
      (rt_->os(NodeId{0}).slow_page(page) ? os_costs.stress_multiplier
                                          : 1.0);
  const auto& dsm_costs = rt_->costs().dsm;
  const double scan = ns(dsm_costs.diff_fixed) +
                      dsm_costs.diff_create_per_byte_ns *
                          static_cast<double>(rt_->page_size());
  if (static_cast<double>(runs) * 2.0 * mp <
      static_cast<double>(quiet) * scan) {
    mask = m;
  }
}

}  // namespace updsm::protocols
