#include "updsm/protocols/async_update.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <span>

#include "updsm/mem/diff.hpp"

namespace updsm::protocols {

namespace {
using mem::Diff;
using mem::Protect;
using sim::MsgKind;
using sim::SimTime;
}  // namespace

void AsyncProtocol::init(dsm::Runtime& rt) {
  rt_ = &rt;
  nodes_.resize(static_cast<std::size_t>(rt.num_nodes()));
  global_.resize(rt.num_pages());
  journal_on_ = rt.config().trace;
  detector_ = std::make_unique<ConvergenceDetector>(
      rt.num_nodes(), rt.config().async_tolerance,
      rt.config().async_convergence_window);
  // Homes: same block distribution as bar-* (contiguous page ranges per
  // node), with the same Zhou-style static_homes override. No migration:
  // the async protocols keep homes fixed -- there is no barrier at which a
  // home handoff could be made globally visible.
  const std::uint32_t pages = rt.num_pages();
  const std::uint32_t n = static_cast<std::uint32_t>(rt.num_nodes());
  const std::uint32_t per = (pages + n - 1) / n;
  for (std::uint32_t p = 0; p < pages; ++p) {
    global_[p].home = NodeId{std::min(p / per, n - 1)};
  }
  const auto& annotated = rt.config().static_homes;
  for (std::uint32_t p = 0;
       p < pages && p < static_cast<std::uint32_t>(annotated.size()); ++p) {
    UPDSM_REQUIRE(annotated[p] < n, "static home " << annotated[p]
                                                   << " for page " << p
                                                   << " out of range");
    global_[p].home = NodeId{annotated[p]};
  }
  for (int i = 0; i < rt.num_nodes(); ++i) {
    const NodeId node_id{static_cast<std::uint32_t>(i)};
    auto& st = nodes_[static_cast<std::size_t>(i)];
    st.cached_version.assign(pages, 0);
    st.twins.bind_pool(&rt.arena_for_node(node_id).pages);
    // Everyone starts with an identical zero-filled copy, write-protected.
    for (std::uint32_t p = 0; p < pages; ++p) {
      rt.table(node_id).set_prot(PageId{p}, Protect::Read);
    }
  }
}

void AsyncProtocol::fetch_page(NodeId n, PageId page, bool count_as_miss) {
  PageGlobal& gp = gpage(page);
  const NodeId home = gp.home;
  UPDSM_CHECK_MSG(home != n, "node " << n << " fetching page " << page
                                     << " from itself");
  const std::uint32_t psize = rt_->page_size();
  const SimTime serve = static_cast<SimTime>(
      rt_->costs().dsm.copy_per_byte_ns * static_cast<double>(psize));
  rt_->roundtrip(n, home, MsgKind::DataRequest, 16, psize + 32, serve);
  // Serve the page's PUBLISHED contents: the home's twin when the home is
  // mid-sweep with unpublished local writes, else the frame itself. The
  // copy runs under the home's service mutex for the same trap-upgrade
  // reason as bar-* (only relevant when this protocol is driven under the
  // parallel gang; under the async gang every other node is parked).
  {
    NodeState& hs = node(home);
    auto dst = rt_->table(n).frame(page);
    std::shared_lock<std::shared_mutex> lock(rt_->service_mutex(home));
    std::span<const std::byte> src = hs.twins.has(page)
                                         ? hs.twins.get(page)
                                         : rt_->table(home).frame(page);
    std::memcpy(dst.data(), src.data(), dst.size());
  }
  rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns, psize);
  if (count_as_miss) {
    rt_->clock(n).advance(sim::TimeCat::Os, rt_->os(n).fault_service_extra());
    ++rt_->counters().remote_misses;
  }
  ++rt_->counters().pages_fetched;
  rt_->mprotect(n, page, Protect::Read);
  node(n).cached_version[page.index()] = gp.version;
  gp.copyset.add(n);
  note(JournalEntry::Kind::Fetch, n, page, gp.version, 0);
}

void AsyncProtocol::apply_diff(NodeId m, PageId page, const mem::Diff& diff) {
  NodeState& st = node(m);
  std::lock_guard<std::shared_mutex> lock(rt_->service_mutex(m));
  diff.apply(rt_->table(m).frame(page));
  // Keep the twin in sync: at a home it IS the published contents; at a
  // concurrent writer it keeps the writer's next diff from re-publishing
  // these foreign bytes as its own.
  if (st.twins.has(page)) diff.apply(st.twins.get_mut(page));
}

void AsyncProtocol::read_fault(NodeId n, PageId page) {
  UPDSM_CHECK_MSG(rt_->table(n).prot(page) == Protect::None,
                  "async read fault on readable page " << page);
  fetch_page(n, page, /*count_as_miss=*/true);
}

void AsyncProtocol::write_fault(NodeId n, PageId page) {
  NodeState& st = node(n);
  if (rt_->table(n).prot(page) == Protect::None) {
    fetch_page(n, page, /*count_as_miss=*/true);
  }
  // Every write is twinned, home or not: the diff is what gets published,
  // and at a home the twin additionally preserves the published contents
  // that fetches are served from while the frame is dirty.
  std::lock_guard<std::shared_mutex> lock(rt_->service_mutex(n));
  if (!st.twins.has(page)) {
    st.twins.create(page, rt_->table(n).frame(page));
    ++rt_->counters().twins_created;
    rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                    rt_->page_size());
  }
  rt_->mprotect(n, page, Protect::ReadWrite);
}

bool AsyncProtocol::async_publish(NodeId n, std::uint64_t step,
                                  double residual) {
  NodeState& st = node(n);
  const auto& dsm_costs = rt_->costs().dsm;

  for (const PageId page : st.twins.pages_sorted()) {
    PageGlobal& gp = gpage(page);
    Diff diff = rt_->arena_for_node(n).diffs.take();
    Diff::create_into(diff, st.twins.get(page), rt_->table(n).frame(page));
    rt_->charge_dsm(n, dsm_costs.diff_fixed, dsm_costs.diff_create_per_byte_ns,
                    rt_->page_size());
    ++rt_->counters().diffs_created;
    st.twins.discard(page);
    rt_->mprotect(n, page, Protect::Read);
    if (diff.empty()) {
      ++rt_->counters().zero_diffs;
      rt_->arena_for_node(n).diffs.recycle(std::move(diff));
      continue;
    }

    const std::uint64_t base = gp.version;
    const std::uint64_t next = base + 1;
    if (n != gp.home) {
      // Reliable flush to the home, applied eagerly: the staged record
      // carries the wire cost, the bytes land now (exactly one node runs
      // at a time, so "now" is a well-defined global order).
      rt_->stage_flush(n, gp.home, page, n, diff, /*reliable=*/true, {});
      apply_diff(gp.home, page, diff);
      rt_->charge_dsm(gp.home, 0, dsm_costs.diff_apply_per_byte_ns,
                      diff.payload_bytes(), /*sigio=*/true);
    }
    gp.version = next;
    if (n == gp.home || st.cached_version[page.index()] == base) {
      // The writer's copy was current (or it IS the home), so frame ==
      // published state `next` and it may adopt the new version.
      st.cached_version[page.index()] = next;
    }
    // Otherwise the writer missed pushes for this page: its own bytes are
    // published, but the frame's *foreign* bytes still date from its old
    // cached_version. Adopting `next` here would hide that staleness from
    // the lag check forever (the halo would freeze and convergence stall);
    // keeping the old version lets the bound force a refresh instead.
    note(JournalEntry::Kind::Publish, n, page, next, step);

    if (mode_ == AsyncMode::Update) {
      // Push the diff to every cached copy. Unreliable: a dropped push
      // just leaves the member's copy older, and the staleness refresh
      // heals it within the bound.
      gp.copyset.for_each([&](NodeId member) {
        if (member == n || member == gp.home) return;
        ++rt_->counters().updates_sent;
        rt_->stage_flush(
            n, member, page, n, diff, /*reliable=*/false,
            [this, member, page, base, next,
             step](const dsm::FlushRecordView& rec) {
              ++rt_->counters().updates_received;
              NodeState& ms = node(member);
              if (rt_->table(member).prot(page) == Protect::None ||
                  ms.cached_version[page.index()] != base) {
                ++rt_->counters().updates_ignored;
                return;
              }
              Diff copy = rt_->arena_for_node(member).diffs.take();
              rec.decode_into(copy);
              apply_diff(member, page, copy);
              rt_->charge_dsm(member, 0,
                              rt_->costs().dsm.diff_apply_per_byte_ns,
                              copy.payload_bytes(), /*sigio=*/true);
              ++rt_->counters().updates_applied;
              ms.cached_version[page.index()] = next;
              note(JournalEntry::Kind::Apply, member, page, next, step);
              rt_->arena_for_node(member).diffs.recycle(std::move(copy));
            });
      });
    } else {
      // Invalidate every cached copy -- except concurrent writers (a live
      // twin means unpublished local writes that must not be destroyed;
      // their copy ages within the staleness bound instead). Reliable:
      // losing an invalidation would leave a copy stale beyond the bound.
      std::vector<NodeId> members;
      gp.copyset.for_each([&](NodeId member) {
        if (member == n || member == gp.home) return;
        if (node(member).twins.has(page)) return;
        members.push_back(member);
      });
      for (const NodeId member : members) {
        rt_->reliable_send(MsgKind::Control, n, member, 16);
        rt_->mprotect(member, page, Protect::None, /*sigio=*/true);
        node(member).cached_version[page.index()] = 0;
        gp.copyset.remove(member);
        ++rt_->counters().async_invalidations;
        note(JournalEntry::Kind::Invalidate, member, page, next, step);
      }
    }
    rt_->arena_for_node(n).diffs.recycle(std::move(diff));
  }
  rt_->seal_flush_batches();

  // Residual report to the master (which hosts the detector). Reports are
  // fire-and-forget like update pushes (§2.1.2): a reliable exchange here
  // would make non-master clocks pay retry timeouts under lossy plans while
  // the master pays nothing, and the resulting clock skew starves the slow
  // nodes of scheduler turns. The detector itself is a deterministic global
  // monitor -- convergence is decided from every residual whether or not
  // the modelled report message survived the wire (its verdict is sticky
  // and conservative, so a lost report can only delay the *costing* of
  // detection, never un-converge it).
  if (n != rt_->master()) {
    (void)rt_->flush(n, rt_->master(), 24);
  }
  detector_->report(static_cast<int>(n.value()), residual);
  return detector_->converged();
}

void AsyncProtocol::async_refresh(NodeId n) {
  NodeState& st = node(n);
  const int bound = rt_->config().staleness_bound;
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    const PageId page{p};
    PageGlobal& gp = gpage(page);
    if (gp.home == n) continue;
    if (rt_->table(n).prot(page) == Protect::None) continue;
    const std::uint64_t cached = st.cached_version[p];
    UPDSM_CHECK_MSG(gp.version >= cached, "cached version ran ahead of home"
                                              << " for page " << page);
    if (gp.version - cached > static_cast<std::uint64_t>(bound)) {
      fetch_page(n, page, /*count_as_miss=*/false);
      ++rt_->counters().async_refreshes;
    }
  }
  // The sweep the node is about to run reads exactly the state installed
  // by now (versions cannot advance until it yields again).
  note(JournalEntry::Kind::StepBegin, n, PageId{0}, 0, 0);
}

void AsyncProtocol::barrier_arrive(NodeId n) {
  // Degenerate sync path (init/teardown barriers, or an async protocol
  // driven under a barrier gang): publish every twinned page to its home.
  NodeState& st = node(n);
  const auto& dsm_costs = rt_->costs().dsm;
  for (const PageId page : st.twins.pages_sorted()) {
    PageGlobal& gp = gpage(page);
    Diff diff = rt_->arena_for_node(n).diffs.take();
    Diff::create_into(diff, st.twins.get(page), rt_->table(n).frame(page));
    rt_->charge_dsm(n, dsm_costs.diff_fixed, dsm_costs.diff_create_per_byte_ns,
                    rt_->page_size());
    ++rt_->counters().diffs_created;
    st.twins.discard(page);
    rt_->mprotect(n, page, Protect::Read);
    if (diff.empty()) {
      ++rt_->counters().zero_diffs;
      rt_->arena_for_node(n).diffs.recycle(std::move(diff));
      continue;
    }
    const std::uint64_t next = gp.version + 1;
    if (n != gp.home) {
      rt_->stage_flush(n, gp.home, page, n, diff, /*reliable=*/true, {});
      apply_diff(gp.home, page, diff);
      rt_->charge_dsm(gp.home, 0, dsm_costs.diff_apply_per_byte_ns,
                      diff.payload_bytes(), /*sigio=*/true);
    }
    gp.version = next;
    // Same adoption rule as async_publish (the journal replay model
    // mirrors one rule for every Publish): a writer whose copy was stale
    // keeps its old version. Here it is also moot -- barrier_release drops
    // every non-home copy right after.
    if (n == gp.home || st.cached_version[page.index()] + 1 == next) {
      st.cached_version[page.index()] = next;
    }
    note(JournalEntry::Kind::Publish, n, page, next, 0);
    rt_->arena_for_node(n).diffs.recycle(std::move(diff));
  }
}

void AsyncProtocol::barrier_release(NodeId n) {
  // Drop every non-home copy: the next phase refetches current versions on
  // demand, so a barrier is a full synchronization point regardless of how
  // stale the copies were allowed to get before it.
  NodeState& st = node(n);
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    const PageId page{p};
    PageGlobal& gp = gpage(page);
    if (gp.home == n) continue;
    if (rt_->table(n).prot(page) == Protect::None) continue;
    rt_->mprotect(n, page, Protect::None);
    st.cached_version[p] = 0;
    gp.copyset.remove(n);
    note(JournalEntry::Kind::Invalidate, n, page, gp.version, 0);
  }
}

}  // namespace updsm::protocols
