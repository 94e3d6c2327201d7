#include "updsm/protocols/bar.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <span>

#include "updsm/common/log.hpp"

namespace updsm::protocols {

namespace {
using dsm::OverdriveFallback;
using mem::Diff;
using mem::Protect;
using sim::MsgKind;
using sim::SimTime;
}  // namespace

void BarProtocol::init(dsm::Runtime& rt) {
  rt_ = &rt;
  nodes_.resize(static_cast<std::size_t>(rt.num_nodes()));
  global_.resize(rt.num_pages());
  // Initial homes: block distribution -- contiguous page ranges per node,
  // matching how "owner computes" compilers lay out array slices. (Runtime
  // migration corrects any page this guess gets wrong.)
  const std::uint32_t pages = rt.num_pages();
  const std::uint32_t n = static_cast<std::uint32_t>(rt.num_nodes());
  const std::uint32_t per = (pages + n - 1) / n;
  for (std::uint32_t p = 0; p < pages; ++p) {
    global_[p].home = NodeId{std::min(p / per, n - 1)};
  }
  // Zhou-style user annotations override the block guess (§2.2.1: Zhou
  // "addressed the problem of assignments by requiring user annotations on
  // each section of data"). Runtime migration, if enabled, still corrects
  // any page the annotation gets wrong.
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
    st.dirty.assign(pages, false);
    st.writable_union.assign(pages, false);
    // Page-buffer traffic (twins, service snapshots) routes through the
    // arena of the gang worker that owns this node: uncontended mid-phase,
    // deterministically drained by the barrier hooks.
    st.twins.bind_pool(&rt.arena_for_node(node_id).pages);
    st.snapshots.bind_pool(&rt.arena_for_node(node_id).pages);
    // Everyone starts with an identical zero-filled copy, write-protected.
    for (std::uint32_t p = 0; p < pages; ++p) {
      rt.table(node_id).set_prot(PageId{p}, Protect::Read);
    }
  }
}

void BarProtocol::fetch_page(NodeId n, PageId page, bool count_as_miss) {
  PageGlobal& gp = gpage(page);
  const NodeId home = gp.home;
  UPDSM_CHECK_MSG(home != n, "node " << n << " fetching page " << page
                                     << " from itself");
  const std::uint32_t psize = rt_->page_size();
  const SimTime serve = static_cast<SimTime>(
      rt_->costs().dsm.copy_per_byte_ns * static_cast<double>(psize));
  rt_->roundtrip(n, home, MsgKind::DataRequest, 16,
                 psize + 32, serve);
  // Install the whole page as of the LAST BARRIER: from the home's service
  // snapshot or live twin when one exists, else from the frame itself
  // (which is then read-only at the home and immutable mid-phase). The
  // copy runs under the home's service mutex, which closes the
  // trap-upgrade race: a concurrent home write fault installs its
  // twin/snapshot and write-enables the frame atomically with respect to
  // this copy, so a torn or part-epoch read is impossible. (LRC never
  // ordered the home's same-epoch writes before this access anyway.)
  // Shared mode: fetchers only read the home's state, so any number of
  // nodes may fetch from one hot home concurrently without convoying --
  // only the home's own write-fault upgrade takes the lock exclusively.
  {
    NodeState& hs = node(home);
    auto dst = rt_->table(n).frame(page);
    std::shared_lock<std::shared_mutex> lock(rt_->service_mutex(home));
    std::span<const std::byte> src;
    if (hs.snapshots.has(page)) {
      src = hs.snapshots.get(page);
    } else if (hs.twins.has(page)) {
      src = hs.twins.get(page);
    } else {
      src = rt_->table(home).frame(page);
    }
    std::memcpy(dst.data(), src.data(), dst.size());
  }
  rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns, psize);
  if (count_as_miss) {
    // AIX-side VM bookkeeping on the demand-fault path (§3.2 calibration).
    rt_->clock(n).advance(sim::TimeCat::Os, rt_->os(n).fault_service_extra());
    ++rt_->counters().remote_misses;
  }
  ++rt_->counters().pages_fetched;
  rt_->mprotect(n, page, Protect::Read);
  node(n).cached_version[page.index()] = gp.version;
  gp.copyset.add(n);
  // Whether this fetch ends a home-private (untracked) page is decided by
  // barrier_master from the merged fetch logs -- the `untracked` flag is
  // written by the home's thread mid-phase and must not be read here.
  node(n).fetched_log.push_back(page);
  observe_fetch(n, page);
}

void BarProtocol::note_dirty(NodeId n, PageId page) {
  // Fault-time bookkeeping only: a trapped write drives prediction
  // learning and the home-effect scan, but does NOT make this node a
  // writer in the coherence sense -- a write that leaves the page
  // unchanged (zero-length diff) must not force consumers to wait for a
  // diff that will never be sent, nor sway home migration.
  NodeState& st = node(n);
  if (!st.dirty[page.index()]) {
    st.dirty[page.index()] = true;
    st.dirty_pages.push_back(page);
  }
  gpage(page).fault_writers_ever.add(n);
}

void BarProtocol::note_writer(NodeId n, PageId page) {
  // Value-based writer bookkeeping, called at barrier arrival for pages
  // with a non-empty diff (and for home trap-writes, whose effect cannot
  // be checked without a twin).
  PageGlobal& gp = gpage(page);
  if (gp.writers_epoch.empty() && !gp.home_wrote) {
    epoch_touched_.push_back(page);
  }
  gp.writers_epoch.add(n);
  gp.writers_ever.add(n);
}

void BarProtocol::read_fault(NodeId n, PageId page) {
  UPDSM_CHECK_MSG(rt_->table(n).prot(page) == Protect::None,
                  "bar read fault on readable page " << page);
  fetch_page(n, page, /*count_as_miss=*/true);
}

void BarProtocol::write_fault(NodeId n, PageId page) {
  NodeState& st = node(n);
  if (rt_->table(n).prot(page) == Protect::None) {
    fetch_page(n, page, /*count_as_miss=*/true);
  }
  if (od_active_) {
    // Overdrive replaced write trapping with prediction; only a write the
    // learned pattern did NOT predict means the application diverged
    // (§4.1). A *predicted* page can still trap when its pre-armed copy
    // was torn down by a barrier invalidation healing a lost update push:
    // the prediction was right, the copy was lost. Recover like bar-u and
    // rejoin the pattern.
    const bool predicted =
        mode_ == BarMode::OverdriveM
            ? static_cast<bool>(st.writable_union[page.index()])
            : [&] {
                const auto& pw = predicted_writes(n, rt_->epoch().value());
                return std::binary_search(pw.begin(), pw.end(), page);
              }();
    if (predicted) {
      // The frame is current again (refetched above or still readable);
      // a surviving twin holds pre-invalidation bytes and must be brought
      // up to date or the next diff would swallow foreign data.
      if (st.twins.has(page)) {
        st.twins.refresh(page, rt_->table(n).frame(page));
        rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                        rt_->page_size());
      }
    } else {
      ++rt_->counters().overdrive_mispredictions;
      UPDSM_LOG(Debug, name() << " misprediction: node " << n << " page "
                              << page << " epoch " << rt_->epoch()
                              << " base " << od_base_epoch_ << " period "
                              << od_period_ << " prot "
                              << mem::to_string(rt_->table(n).prot(page)));
      if (rt_->config().overdrive_fallback == OverdriveFallback::Strict) {
        throw ProtocolError(std::string(name()) +
                            ": unpredicted write trapped during overdrive "
                            "(page " +
                            std::to_string(page.value()) + ", node " +
                            std::to_string(n.value()) + ")");
      }
      // Revert mode: fall through and handle it exactly like bar-u. Under
      // bar-m the page then joins the writable set for the rest of the run
      // (it will be audited against its twin like any other writable page).
      if (mode_ == BarMode::OverdriveM) {
        st.writable_union[page.index()] = true;
      }
    }
  }

  const NodeId home = gpage(page).home;
  // Consumer count from the barrier-frozen copyset shadow, NOT the live
  // bitmap: concurrent fetches add members mid-phase, and this decision
  // must be independent of their timing.
  const dsm::NodeSet& frozen = gpage(page).copyset_frozen;
  const int consumers = frozen.count() - (frozen.contains(n) ? 1 : 0);
  if (loop_entered_ && n == home && consumers == 0) {
    // (Gated on the loop annotation: the fast path's invariant -- every
    // valid non-home replica is in the copyset -- is established by the
    // loop-entry invalidation. Unannotated programs never untrack.)
    // Home-private page: nobody else caches it (the loop-entry reset
    // invalidated all cold replicas, and every later consumer enters the
    // copyset via its fetch), so trapping buys nothing. Leave it writable
    // until a consumer appears.
    gpage(page).untracked = true;
    ++rt_->counters().private_entries;
    std::lock_guard<std::shared_mutex> lock(rt_->service_mutex(n));
    if (!st.snapshots.has(page)) {
      // Service snapshot: fetchers are served these (last-barrier) bytes
      // while the frame is writable. A leftover snapshot from a previous
      // tenure holds identical bytes (the frame was read-only since), so
      // it is simply kept.
      st.snapshots.create(page, rt_->table(n).frame(page));
    }
    rt_->mprotect(n, page, Protect::ReadWrite);
    return;
  }
  // The home effect: the home's own writes need no diff -- unless it must
  // push updates to consumers, which requires knowing the modified bytes.
  const bool need_twin =
      n != home || (page_pushes_updates(page) && consumers > 0);
  if (n == home) {
    // The home's twin/snapshot installation and frame write-enable must be
    // atomic with respect to concurrent fetch_page copies (see there).
    std::lock_guard<std::shared_mutex> lock(rt_->service_mutex(n));
    if (need_twin && !st.twins.has(page)) {
      st.twins.create(page, rt_->table(n).frame(page));
      ++rt_->counters().twins_created;
      rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                      rt_->page_size());
    } else if (!need_twin && !st.snapshots.has(page)) {
      // Home-effect write with no consumers to update: no twin, so arm a
      // service snapshot instead.
      st.snapshots.create(page, rt_->table(n).frame(page));
    }
    rt_->mprotect(n, page, Protect::ReadWrite);
  } else {
    // This page's bytes are never served from here mid-phase (we are not
    // its home), but the twin map is one container per NODE: a concurrent
    // fetch of a *different* page homed at n walks the same hashtable
    // under the service mutex, so this insert must hold it too.
    std::lock_guard<std::shared_mutex> lock(rt_->service_mutex(n));
    if (need_twin && !st.twins.has(page)) {
      st.twins.create(page, rt_->table(n).frame(page));
      ++rt_->counters().twins_created;
      rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                      rt_->page_size());
    }
    rt_->mprotect(n, page, Protect::ReadWrite);
  }
  note_dirty(n, page);
}

void BarProtocol::barrier_begin() {
  rt_->for_each_node([this](NodeId n) { capture_arrival(n); });
}

void BarProtocol::barrier_arrive(NodeId n) {
  NodeState& st = node(n);
  for (Captured& c : st.captured) {
    PageGlobal& gp = gpage(c.page);
    switch (c.op) {
      case Captured::Op::Writer:
        note_writer(n, c.page);
        break;
      case Captured::Op::HomeWrote:
        gp.home_wrote = true;
        break;
      case Captured::Op::Diff:
        observe_diff(n, c.page, c.bytes);
        break;
      case Captured::Op::Queue:
        gp.queued.push_back(QueuedDiff{n, std::move(c.diff)});
        break;
    }
  }
  st.captured.clear();
  // Arrival message metadata, meant as the ids of the pages this node
  // modified. Model defect (ROADMAP, correctness): epoch_touched_ holds
  // the distinct pages written by nodes 0..n so far, so the payload grows
  // with the node id, and tree barriers sum it again per subtree. Kept
  // as is so every result stays comparable with earlier runs.
  rt_->add_arrival_payload(n, 8 * epoch_touched_.size());
}

void BarProtocol::capture_arrival(NodeId n) {
  NodeState& st = node(n);
  const EpochId epoch = rt_->epoch();
  const auto& dsm_costs = rt_->costs().dsm;
  const bool od_m_active = od_active_ && mode_ == BarMode::OverdriveM;
  const auto log = [&st](Captured::Op op, PageId page,
                         std::uint64_t bytes = 0) {
    st.captured.push_back(Captured{op, page, bytes, {}});
  };

  if (rt_->config().overdrive_audit && od_m_active) {
    audit_unpredicted_writes(n);
  }

  // Home-effect pages first: dirtied by the home with no twin -- a version
  // bump and trap re-arm, no diff anywhere. Must run before twin
  // processing so "has no twin" still distinguishes these pages.
  for (const PageId page : st.dirty_pages) {
    if (n == gpage(page).home && !st.twins.has(page)) {
      log(Captured::Op::Writer, page);
      log(Captured::Op::HomeWrote, page);
      if (!od_m_active) rt_->mprotect(n, page, Protect::Read);
    }
  }

  // Pages to diff: normally every twinned page; under bar-m overdrive the
  // twins are permanent, so only the pages *predicted* for this epoch are
  // diffed (plus any fallback-trapped pages).
  std::vector<PageId> to_diff;
  if (od_m_active) {
    to_diff = predicted_writes(n, epoch.value());
    for (const PageId page : st.dirty_pages) {
      if (st.twins.has(page)) to_diff.push_back(page);
    }
    std::sort(to_diff.begin(), to_diff.end());
    to_diff.erase(std::unique(to_diff.begin(), to_diff.end()),
                  to_diff.end());
    std::erase_if(to_diff,
                  [&](PageId page) { return !st.twins.has(page); });
  } else {
    to_diff = st.twins.pages_sorted();
    // Phase-parked pages (adaptive overdrive: read-protected with a
    // retained, synced twin) cannot have been written since the twin last
    // absorbed the frame -- a write would have trapped and re-armed them.
    // Skipping the scan is the whole point of parking. Fixed protocols
    // never hold a twin on a non-writable page, so this erases nothing
    // for them.
    std::erase_if(to_diff, [&](PageId page) {
      return rt_->table(n).prot(page) != Protect::ReadWrite;
    });
  }

  for (const PageId page : to_diff) {
    PageGlobal& gp = gpage(page);
    Diff diff = rt_->arena_for_node(n).diffs.take();
    Diff::create_into(diff, st.twins.get(page), rt_->table(n).frame(page));
    rt_->charge_dsm(n, dsm_costs.diff_fixed,
                    dsm_costs.diff_create_per_byte_ns, rt_->page_size());
    ++rt_->counters().diffs_created;

    // Protection re-arming: bar-i/bar-u/bar-s write-protect after diffing;
    // bar-m in overdrive never touches protections, and the adaptive
    // protocol keeps its armed overdrive pages writable the same way.
    // The surviving twin is re-snapshotted now so the next diff (and the
    // divergence audit) sees this epoch's writes as committed -- except
    // that an adaptive page whose scan came back clean needs no refresh
    // (the twin already equals the frame).
    if (od_m_active || page_keep_writable(page)) {
      if (od_m_active || !diff.empty()) {
        st.twins.refresh(page, rt_->table(n).frame(page));
        rt_->charge_dsm(n, 0, dsm_costs.copy_per_byte_ns, rt_->page_size());
      }
    } else {
      st.twins.discard(page);
      rt_->mprotect(n, page, Protect::Read);
    }

    if (diff.empty()) {
      // Predicted-but-unwritten page: pure overhead (paper §4.1), or a
      // trapped write that restored the original values.
      ++rt_->counters().zero_diffs;
      rt_->arena_for_node(n).diffs.recycle(std::move(diff));
      continue;
    }
    // A real modification exists: this node is a writer of the page.
    log(Captured::Op::Writer, page);
    log(Captured::Op::Diff, page, diff.payload_bytes());

    if (n != gp.home) {
      // Flush the diff to the home: reliable (rides the barrier channel).
      // The home's copy travels via gp.queued below; the staged record only
      // carries the cost, so no delivery callback is needed.
      rt_->stage_flush(n, gp.home, page, n, diff, /*reliable=*/true, {});
    } else {
      log(Captured::Op::HomeWrote, page);
    }

    if (page_pushes_updates(page)) {
      // Push to consumers. The home receives the diff via the reliable
      // flush above (when we are not the home); everyone else in the
      // copyset gets an unreliable update push. The inbox entry is built
      // on delivery only (a dropped batch loses all its records).
      gp.copyset.for_each([&](NodeId member) {
        if (member == n) return;
        if (member == gp.home && n != gp.home) return;  // already flushed
        ++rt_->counters().updates_sent;
        rt_->stage_flush(
            n, member, page, n, diff, /*reliable=*/false,
            [this, member](const dsm::FlushRecordView& rec) {
              ++rt_->counters().updates_received;
              // Copy through a recycled diff so the inbox copy reuses
              // capacity -- the receiving member's arena, since the entry
              // lands in (and is later recycled from) member's inbox.
              Diff copy = rt_->arena_for_node(member).diffs.take();
              rec.decode_into(copy);
              node(member).inbox.push_back(
                  InboxEntry{rec.page, rec.creator, std::move(copy)});
            });
      });
    }

    if (n != gp.home) {
      st.captured.push_back(
          Captured{Captured::Op::Queue, page, 0, std::move(diff)});
    } else {
      rt_->arena_for_node(n).diffs.recycle(std::move(diff));
    }
  }

  // Learning: record this epoch's write set while not yet in overdrive.
  if (overdrive_capable() && !od_active_) {
    std::vector<PageId> writes = st.dirty_pages;
    std::sort(writes.begin(), writes.end());
    st.write_sets[epoch.value()] = std::move(writes);
  }

  for (const PageId page : st.dirty_pages) st.dirty[page.index()] = false;
  st.dirty_pages.clear();
}

void BarProtocol::barrier_master() {
  const std::uint64_t new_version = rt_->epoch().value() + 1;
  epoch_changes_.clear();

  // Home-private pages that gained a consumer this epoch re-enter
  // tracking: the home write-protects them and publishes a version bump,
  // conservatively invalidating the mid-epoch copies the fetchers took.
  // The per-node fetch logs are merged, sorted and deduplicated first, so
  // the retrack set -- and everything downstream -- is independent of
  // mid-phase fetch timing.
  std::vector<PageId> fetched;
  for (NodeState& st : nodes_) {
    fetched.insert(fetched.end(), st.fetched_log.begin(),
                   st.fetched_log.end());
    st.fetched_log.clear();
  }
  std::sort(fetched.begin(), fetched.end());
  fetched.erase(std::unique(fetched.begin(), fetched.end()), fetched.end());
  for (const PageId page : fetched) {
    PageGlobal& gp = gpage(page);
    if (!gp.untracked) continue;
    const NodeId home = gp.home;
    gp.untracked = false;
    ++rt_->counters().private_exits;
    note_writer(home, page);
    gp.home_wrote = true;
    if (rt_->table(home).prot(page) == Protect::ReadWrite) {
      rt_->mprotect(home, page, Protect::Read);
    }
  }
  std::sort(epoch_touched_.begin(), epoch_touched_.end());
  epoch_touched_.erase(
      std::unique(epoch_touched_.begin(), epoch_touched_.end()),
      epoch_touched_.end());

  for (const PageId page : epoch_touched_) {
    PageGlobal& gp = gpage(page);
    if (gp.writers_epoch.empty() && !gp.home_wrote) continue;  // all zero diffs
    const NodeId home = gp.home;

    if (!gp.queued.empty()) {
      // The home applies foreign diffs to its master copy. Its own page is
      // write-protected (trap re-arming), so the real handler brackets the
      // apply in a write-enable / re-protect mprotect pair -- unless bar-m
      // overdrive left the page writable.
      const bool writable =
          rt_->table(home).prot(page) == Protect::ReadWrite;
      if (!writable) rt_->mprotect(home, page, Protect::ReadWrite);
      auto frame = rt_->table(home).frame(page);
      for (const QueuedDiff& qd : gp.queued) {
        qd.diff.apply(frame);
        rt_->charge_dsm(home, 0, rt_->costs().dsm.diff_apply_per_byte_ns,
                        qd.diff.payload_bytes(), /*sigio=*/true);
      }
      if (!writable) rt_->mprotect(home, page, Protect::Read);
      // The home's twin (if pushing updates) must absorb the foreign
      // bytes, or its next diff would re-publish them as its own.
      if (node(home).twins.has(page)) {
        node(home).twins.refresh(page, rt_->table(home).frame(page));
      }
    }

    observe_epoch_page(page, gp.writers_epoch, gp.home_wrote);
    epoch_changes_.push_back(ChangeRecord{page, gp.version, new_version,
                                          gp.writers_epoch});
    gp.version = new_version;
    node(home).cached_version[page.index()] = new_version;
    for (QueuedDiff& qd : gp.queued) {
      // Back to the creator's arena, closing the loan opened at diff time.
      rt_->arena_for_node(qd.creator).diffs.recycle(std::move(qd.diff));
    }
    gp.queued.clear();
    gp.writers_epoch.clear();
    gp.home_wrote = false;
  }
  epoch_touched_.clear();

  // Runtime home migration, once, after every node has entered iteration 2
  // (paper §2.2.1: "collect access behavior information during the first
  // iteration, and migrate pages before the second iteration begins").
  if (rt_->config().home_migration && !migration_done_ &&
      !nodes_.empty()) {
    const bool all_in_iter2 = std::all_of(
        nodes_.begin(), nodes_.end(),
        [](const NodeState& st) { return st.iteration >= 2; });
    if (all_in_iter2) run_migration();
  }

  // Overdrive engagement, once, after the learning iterations complete.
  if (overdrive_capable() && !od_active_) {
    const std::uint64_t target =
        static_cast<std::uint64_t>(rt_->config().overdrive_learn_iterations) +
        1;
    const bool learned = std::all_of(
        nodes_.begin(), nodes_.end(),
        [&](const NodeState& st) { return st.iteration >= target; });
    if (learned) engage_overdrive();
  }

  // Release payload: one change record per modified page, plus migration
  // announcements (handled in run_migration), for every slave.
  for (int i = 0; i < rt_->num_nodes(); ++i) {
    rt_->add_release_payload(NodeId{static_cast<std::uint32_t>(i)},
                             ChangeRecord::wire_bytes(rt_->num_nodes()) *
                                 epoch_changes_.size());
  }
}

void BarProtocol::run_migration() {
  migration_done_ = true;
  std::uint64_t moved = 0;
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    PageGlobal& gp = global_[p];
    const dsm::NodeSet fault_writers = gp.fault_writers_ever.snapshot();
    if (fault_writers.empty()) continue;
    if (fault_writers.contains(gp.home)) continue;
    // Written, but never by its home: migrate to the lowest-id writer.
    const NodeId new_home = fault_writers.lowest();
    const NodeId old_home = gp.home;
    const PageId page{p};
    // The new home needs the authoritative copy.
    if (node(new_home).cached_version[p] != gp.version ||
        rt_->table(new_home).prot(page) == Protect::None) {
      const std::uint32_t psize = rt_->page_size();
      rt_->roundtrip(new_home, old_home, MsgKind::DataRequest, 16,
                     psize + 32,
                     static_cast<SimTime>(rt_->costs().dsm.copy_per_byte_ns *
                                          static_cast<double>(psize)));
      std::memcpy(rt_->table(new_home).frame(page).data(),
                  rt_->table(old_home).frame(page).data(), psize);
      rt_->charge_dsm(new_home, 0, rt_->costs().dsm.copy_per_byte_ns, psize);
      node(new_home).cached_version[p] = gp.version;
      rt_->mprotect(new_home, page, Protect::Read);
    }
    gp.home = new_home;
    // Drop the old home's replica rather than tracking it as a consumer:
    // it never wrote the page (that is why it lost it) and keeping it in
    // the copyset would disguise single-writer pages as shared, blocking
    // the home-private fast path forever.
    if (rt_->table(old_home).prot(page) != Protect::None) {
      rt_->mprotect(old_home, page, Protect::None);
    }
    gp.copyset.remove(old_home);
    ++moved;
    ++rt_->counters().migrations;
  }
  // Migration decisions ride the next release messages (8 bytes per page
  // per node: page id + new home).
  for (int i = 0; i < rt_->num_nodes(); ++i) {
    rt_->add_release_payload(NodeId{static_cast<std::uint32_t>(i)},
                             8 * moved);
  }
}

void BarProtocol::engage_overdrive() {
  // Determine the iteration period from the recorded iteration beginnings:
  // every node must agree or the application is not barrier-regular.
  const auto& ib0 = nodes_[0].iter_begin_epochs;
  const std::uint64_t learn =
      static_cast<std::uint64_t>(rt_->config().overdrive_learn_iterations);
  UPDSM_CHECK(ib0.size() > learn + 1);
  od_base_epoch_ = ib0[learn];            // first epoch of last learning iter
  od_period_ = ib0[learn + 1] - ib0[learn];
  UPDSM_REQUIRE(od_period_ > 0, "overdrive needs at least one barrier per "
                                "iteration");
  for (const NodeState& st : nodes_) {
    UPDSM_REQUIRE(st.iter_begin_epochs.size() > learn + 1 &&
                      st.iter_begin_epochs[learn] == od_base_epoch_ &&
                      st.iter_begin_epochs[learn + 1] ==
                          od_base_epoch_ + od_period_,
                  "nodes disagree on iteration boundaries; overdrive "
                  "requires globally aligned iterations");
  }
  od_active_ = true;

  if (mode_ == BarMode::OverdriveM) {
    // bar-m: every page that will be written locally while overdrive is in
    // effect -- by the application or by update application -- is made
    // writable now, once; protections are never changed again (§5).
    for (int i = 0; i < rt_->num_nodes(); ++i) {
      const NodeId n{static_cast<std::uint32_t>(i)};
      NodeState& st = node(n);
      std::vector<PageId> union_pages;
      for (std::uint64_t e = od_base_epoch_; e < od_base_epoch_ + od_period_;
           ++e) {
        const auto wit = st.write_sets.find(e);
        if (wit != st.write_sets.end()) {
          union_pages.insert(union_pages.end(), wit->second.begin(),
                             wit->second.end());
        }
        const auto uit = st.update_sets.find(e);
        if (uit != st.update_sets.end()) {
          union_pages.insert(union_pages.end(), uit->second.begin(),
                             uit->second.end());
        }
      }
      std::sort(union_pages.begin(), union_pages.end());
      union_pages.erase(
          std::unique(union_pages.begin(), union_pages.end()),
          union_pages.end());
      for (const PageId page : union_pages) {
        st.writable_union[page.index()] = true;
        if (!st.twins.has(page)) {
          st.twins.create(page, rt_->table(n).frame(page));
          ++rt_->counters().twins_created;
          rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                          rt_->page_size());
        }
        if (rt_->table(n).prot(page) != Protect::ReadWrite) {
          rt_->mprotect(n, page, Protect::ReadWrite);
        }
      }
    }
  }
}

const std::vector<PageId>& BarProtocol::predicted_writes(NodeId n,
                                                         std::uint64_t e) {
  static const std::vector<PageId> kEmpty;
  NodeState& st = node(n);
  const std::uint64_t mapped =
      od_base_epoch_ + (e - od_base_epoch_) % od_period_;
  const auto it = st.write_sets.find(mapped);
  return it == st.write_sets.end() ? kEmpty : it->second;
}

void BarProtocol::overdrive_prepare(NodeId n, std::uint64_t next_epoch) {
  NodeState& st = node(n);
  for (const PageId page : predicted_writes(n, next_epoch)) {
    if (mode_ == BarMode::OverdriveM) {
      // Page is already writable and twinned; nothing per-epoch. The twin
      // is diffed at the next arrive because we record it as predicted.
      if (!st.twins.has(page)) continue;  // invalid page: see below
    } else {
      // bar-s: twin ahead of the (predicted) write and write-enable, so no
      // segv fires (Figure 5). An invalid page cannot be pre-twinned: the
      // eventual write will fault and take the fallback path.
      if (rt_->table(n).prot(page) == Protect::None) continue;
      if (!st.twins.has(page)) {
        st.twins.create(page, rt_->table(n).frame(page));
        ++rt_->counters().twins_created;
        rt_->charge_dsm(n, 0, rt_->costs().dsm.copy_per_byte_ns,
                        rt_->page_size());
      }
      if (rt_->table(n).prot(page) != Protect::ReadWrite) {
        rt_->mprotect(n, page, Protect::ReadWrite);
      }
    }
  }
}

void BarProtocol::audit_unpredicted_writes(NodeId n) {
  // bar-m consistency audit (tests only): a writable page that is NOT
  // predicted for this epoch must still match its twin; a mismatch is a
  // silent divergence the real bar-m would have missed.
  NodeState& st = node(n);
  const std::uint64_t e = rt_->epoch().value();
  const auto& predicted = predicted_writes(n, e);
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    const PageId page{p};
    if (!st.writable_union[p] || !st.twins.has(page)) continue;
    if (std::binary_search(predicted.begin(), predicted.end(), page)) {
      continue;
    }
    const auto twin = st.twins.get(page);
    const auto frame = rt_->table(n).frame(page);
    if (std::memcmp(twin.data(), frame.data(), frame.size()) != 0) {
      throw ProtocolError(
          "bar-m audit: unpredicted write to page " +
          std::to_string(p) + " on node " + std::to_string(n.value()) +
          " went untrapped (silent divergence)");
    }
  }
}

void BarProtocol::release_node(NodeId n) {
  NodeState& st = node(n);
  const auto& dsm_costs = rt_->costs().dsm;
  const bool od_m_active = od_active_ && mode_ == BarMode::OverdriveM;
  std::vector<PageId> updated_pages;

  for (const ChangeRecord& rec : epoch_changes_) {
    const PageId page = rec.page;
    PageGlobal& gp = gpage(page);
    // Collect this node's update pushes for the page (creator order is node
    // order because arrivals ran in node order).
    dsm::NodeSet got;
    for (const InboxEntry& e : st.inbox) {
      if (e.page == page) got.add(e.creator);
    }

    if (n == gp.home) {
      // Home copy was made authoritative in barrier_master.
      continue;
    }
    const bool cached = rt_->table(n).prot(page) != Protect::None;
    if (!cached) {
      if (!got.empty()) ++rt_->counters().updates_ignored;
      continue;
    }
    const bool current = st.cached_version[page.index()] == rec.prev_version;
    dsm::NodeSet need = rec.writers;
    need.remove(n);
    if (current && got.contains_all(need)) {
      // All concurrent modifications are available locally: apply inside
      // the barrier and stay valid -- the fault never happens (bar-u) --
      // or, with no foreign writers, nothing to do at all.
      if (!need.empty()) {
        const bool writable =
            rt_->table(n).prot(page) == Protect::ReadWrite;
        if (!writable) rt_->mprotect(n, page, Protect::ReadWrite);
        auto frame = rt_->table(n).frame(page);
        for (const InboxEntry& e : st.inbox) {
          if (e.page != page || !need.contains(e.creator)) continue;
          e.diff.apply(frame);
          rt_->charge_dsm(n, 0, dsm_costs.diff_apply_per_byte_ns,
                          e.diff.payload_bytes());
          ++rt_->counters().updates_applied;
        }
        if (!writable) rt_->mprotect(n, page, Protect::Read);
        updated_pages.push_back(page);
        // A live twin must absorb the foreign bytes.
        if (st.twins.has(page)) {
          st.twins.refresh(page, rt_->table(n).frame(page));
          rt_->charge_dsm(n, 0, dsm_costs.copy_per_byte_ns,
                          rt_->page_size());
        }
      }
      st.cached_version[page.index()] = rec.new_version;
    } else {
      // Stale copy or missing diffs (e.g. a dropped flush): invalidate;
      // the next access refetches from the home. Never a correctness
      // problem -- exactly the paper's unreliable-flush argument.
      UPDSM_LOG(Trace, name() << " invalidate node " << n << " page "
                              << page << " cached "
                              << st.cached_version[page.index()] << " prev "
                              << rec.prev_version << " writers "
                              << rec.writers.count() << " got "
                              << got.count());
      if (page_pushes_updates(page) && current && !got.contains_all(need)) {
        // Update delivery, current copy, missing diffs: this invalidation
        // would not have happened had every update push arrived -- pure
        // recovery from a lost flush (the degradation the fault benches
        // measure). Pages that never push (bar-i; adaptive pages in
        // invalidate mode) never count here.
        ++rt_->counters().recovery_faults;
      }
      if (!got.empty()) ++rt_->counters().updates_ignored;
      rt_->mprotect(n, page, Protect::None);
      if (st.twins.has(page) && !od_m_active) {
        st.twins.discard(page);
      }
    }
  }

  // Drop all inbox entries for this epoch (applied or ignored), recycling
  // their diff buffers into this node's arena (the one they were copied
  // from at delivery).
  for (InboxEntry& e : st.inbox) {
    rt_->arena_for_node(n).diffs.recycle(std::move(e.diff));
  }
  st.inbox.clear();

  // Learning: pages that receive updates feed bar-m's writable union.
  if (overdrive_capable() && !od_active_ && !updated_pages.empty()) {
    std::sort(updated_pages.begin(), updated_pages.end());
    st.update_sets[rt_->epoch().value()] = updated_pages;
  }

  // Overdrive per-epoch preparation for the *next* epoch.
  if (od_active_) {
    overdrive_prepare(n, rt_->epoch().value() + 1);
  }
}

void BarProtocol::barrier_finish() {
  rt_->for_each_node([this](NodeId n) { release_node(n); });
  // Refresh the barrier-frozen copyset shadows that mid-phase decisions
  // read: runs after all release work, with every node parked, so the next
  // phase sees one consistent, deterministic value per page.
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    global_[p].copyset_frozen = global_[p].copyset.snapshot();
  }
  // Service-snapshot upkeep, in node order: a snapshot must exist exactly
  // for the pages a home keeps ReadWrite with no twin (untracked pages,
  // bar-m home-effect pages). Refresh survivors to this barrier's frame
  // contents -- AFTER barrier_master possibly applied queued foreign diffs
  // to the frame -- and drop the rest.
  for (int i = 0; i < rt_->num_nodes(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    NodeState& st = node(n);
    for (const PageId page : st.snapshots.pages_sorted()) {
      if (rt_->table(n).prot(page) == Protect::ReadWrite &&
          !st.twins.has(page)) {
        st.snapshots.refresh(page, rt_->table(n).frame(page));
      } else {
        st.snapshots.discard(page);
      }
    }
  }
}

void BarProtocol::iteration_begin(NodeId n, std::uint64_t iteration) {
  NodeState& st = node(n);
  st.iteration = iteration;
  UPDSM_CHECK(st.iter_begin_epochs.size() == iteration);
  st.iter_begin_epochs.push_back(rt_->epoch().value());

  if (iteration != 1) return;
  // Entry to the time-step loop: "On the first iteration of the time-step
  // loop, the copysets of each page are empty, and page faults occur"
  // (§2.2.1). Discard everything learned during initialisation -- the
  // init-phase writer (typically node 0 populating all data) must not
  // pollute migration decisions or update targeting.
  //
  // The global reset runs once, by whichever node thread arrives first;
  // applications call iteration_begin before any shared access of the
  // entering epoch, so the mutex acquire in every node's call orders the
  // reset before all copyset/writer learning of that epoch. (The frozen
  // copyset shadows are deliberately NOT touched: they refresh at the next
  // barrier_finish, keeping mid-phase decisions schedule-independent.)
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_entered_) {
      loop_entered_ = true;
      for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
        PageGlobal& gp = global_[p];
        gp.copyset.clear();
        gp.writers_ever.clear();
        gp.fault_writers_ever.clear();
      }
    }
  }
  // Invalidate every cold (non-home) replica so that "valid non-home copy
  // implies copyset membership" holds from here on -- the invariant the
  // home-private fast path relies on. Iteration-1 reads re-fault and
  // re-join copysets, exactly the paper's "on the first iteration ... page
  // faults occur". Distributed: each node drops its OWN replicas, on its
  // own thread (a node must not touch another node's page table
  // mid-phase).
  for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
    const PageId page{p};
    if (global_[p].home == n) continue;
    if (rt_->table(n).prot(page) != Protect::None) {
      rt_->mprotect(n, page, Protect::None);
    }
  }
}

}  // namespace updsm::protocols
