#include "updsm/protocols/lmw.hpp"

#include <algorithm>
#include <map>

#include "updsm/mem/diff.hpp"

namespace updsm::protocols {

namespace {
using dsm::DiffStore;
using dsm::WriteNotice;
using mem::Diff;
using mem::Protect;
using sim::MsgKind;
using sim::SimTime;
}  // namespace

void LmwProtocol::init(dsm::Runtime& rt) {
  rt_ = &rt;
  nodes_.resize(static_cast<std::size_t>(rt.num_nodes()));
  for (int i = 0; i < rt.num_nodes(); ++i) {
    auto& node_state = nodes_[static_cast<std::size_t>(i)];
    node_state.pages.resize(rt.num_pages());
    // Route every pooled allocation of this node (twins, service snapshots,
    // retained/created diffs, stored update copies) through the arena of
    // the gang worker that owns it: uncontended mid-phase, deterministic
    // loan accounting at the barrier.
    dsm::PoolArena& arena = rt.arena_for_node(NodeId{static_cast<std::uint32_t>(i)});
    node_state.twins.bind_pool(&arena.pages);
    node_state.snapshots.bind_pool(&arena.pages);
    node_state.created.bind_pool(&arena.diffs);
    node_state.stored_updates.bind_pool(&arena.diffs);
  }
  // Every node starts with an identical (zero-filled) valid copy of the
  // whole segment, write-protected so that first writes are trapped.
  for (int i = 0; i < rt.num_nodes(); ++i) {
    rt.table(NodeId{static_cast<std::uint32_t>(i)})
        .set_all_prot(Protect::Read);
  }
}

bool LmwProtocol::validate_page(NodeId n, PageId page, bool demand) {
  NodeState& st = node(n);
  PageLocal& pl = st.pages[page.index()];
  UPDSM_CHECK_MSG(!pl.pending.empty(),
                  "page " << page << " invalid on node " << n
                          << " but has no pending write notices");

  // Single-writer fast path: if the newest notice's creator holds the page
  // exclusively, fetch the whole page (one request/reply pair, like a
  // home-based miss). The copy is served from the creator's *service
  // snapshot* -- the page as of the previous barrier -- not its live frame:
  // the creator may be writing the frame concurrently under the parallel
  // gang, and LRC does not order those same-epoch writes before this
  // access anyway. The creator-side exclusivity exit (twin, republished
  // whole-page diff) mutates creator state and is therefore deferred to
  // barrier_begin() via the per-node fast_fetches log; until then the
  // `exclusive` flag stays frozen, so every same-epoch requester takes
  // this same path and is served the same bytes.
  const NodeId newest_creator = pl.pending.back().creator;
  if (node(newest_creator).pages[page.index()].exclusive) {
    NodeState& cs = node(newest_creator);
    rt_->charge_page_transfer(n, newest_creator);
    auto src = cs.snapshots.get(page);
    auto dst = rt_->table(n).frame(page);
    std::memcpy(dst.data(), src.data(), dst.size());
    rt_->mprotect(n, page, Protect::Read);
    for (const WriteNotice& wn : pl.pending) {
      st.stored_updates.erase(DiffStore::Key{wn.page, wn.epoch, wn.creator});
    }
    pl.pending.clear();
    // Copyset learning happens at fetch time (commutative atomic add); the
    // rest of the creator-side exit replays at the next barrier.
    if (demand) cs.pages[page.index()].copyset.add(n);
    st.fast_fetches.emplace_back(newest_creator, page);
    ++rt_->counters().pages_fetched;
    if (demand) ++rt_->counters().remote_misses;
    return true;
  }

  // Which diffs are already available locally? (lmw-u stores flushed
  // updates; lmw-i never has any.)
  std::vector<const Diff*> to_apply(pl.pending.size(), nullptr);
  // Notices whose diffs must be fetched, grouped by creator.
  std::map<NodeId, std::vector<std::size_t>> fetch_by_creator;
  for (std::size_t i = 0; i < pl.pending.size(); ++i) {
    const WriteNotice& wn = pl.pending[i];
    const DiffStore::Key key{wn.page, wn.epoch, wn.creator};
    if (const Diff* stored = st.stored_updates.find(key)) {
      to_apply[i] = stored;
    } else {
      fetch_by_creator[wn.creator].push_back(i);
    }
  }

  const bool missed = !fetch_by_creator.empty();
  for (auto& [creator, indices] : fetch_by_creator) {
    // One request naming all needed diffs; one reply carrying them. Diffs
    // are retained by creators until garbage collection (paper §2.2), but
    // squashing may have replaced an old diff with a newer covering one --
    // which is then served (and shipped) once for all the notices it
    // subsumes.
    std::uint64_t reply_bytes = 8;
    SimTime serve_work = 0;
    const Diff* last_served = nullptr;
    for (const std::size_t i : indices) {
      const WriteNotice& wn = pl.pending[i];
      const Diff* diff = node(creator).created.find_or_successor(
          DiffStore::Key{wn.page, wn.epoch, wn.creator});
      UPDSM_CHECK_MSG(diff != nullptr, "creator " << creator
                                                  << " lost diff for page "
                                                  << wn.page);
      to_apply[i] = diff;
      if (diff != last_served) {
        reply_bytes += diff->wire_bytes();
        serve_work += static_cast<SimTime>(
            rt_->costs().dsm.copy_per_byte_ns *
            static_cast<double>(diff->wire_bytes()));
        last_served = diff;
      }
    }
    rt_->roundtrip(n, creator, MsgKind::DataRequest,
                   16 + 8 * indices.size(), reply_bytes, serve_work);
    // If the creator already knew this consumer, lmw-u pushed these diffs
    // at the barrier and the stored copy should have been found above --
    // this fetch exists only because an unreliable push was lost. (Checked
    // before the copyset add below, which is what records the knowledge.)
    if (use_updates_ && node(creator).pages[page.index()].copyset.contains(n)) {
      ++rt_->counters().recovery_faults;
    }
    // The creator learns a consumer: copyset learning (paper §2.1.2).
    if (demand) node(creator).pages[page.index()].copyset.add(n);
  }

  // Apply in (epoch, creator) order onto the stale local copy. The real
  // handler write-enables the page, applies, then restores read protection:
  // two mprotect calls.
  rt_->mprotect(n, page, Protect::ReadWrite);
  auto frame = rt_->table(n).frame(page);
  const Diff* last_applied = nullptr;
  for (std::size_t i = 0; i < pl.pending.size(); ++i) {
    UPDSM_CHECK(to_apply[i] != nullptr);
    if (to_apply[i] == last_applied) continue;  // squashed duplicate
    last_applied = to_apply[i];
    to_apply[i]->apply(frame);
    rt_->charge_diff_apply(n, to_apply[i]->payload_bytes());
    // Consumed stored updates are dropped (their keys may or may not have
    // been in the store; erase is a no-op for fetched ones).
    const WriteNotice& wn = pl.pending[i];
    st.stored_updates.erase(DiffStore::Key{wn.page, wn.epoch, wn.creator});
  }
  rt_->mprotect(n, page, Protect::Read);
  pl.pending.clear();
  if (missed && demand) ++rt_->counters().remote_misses;
  return missed;
}

void LmwProtocol::read_fault(NodeId n, PageId page) {
  // Only invalid pages raise read faults under lmw.
  UPDSM_CHECK(rt_->table(n).prot(page) == Protect::None);
  validate_page(n, page);
}

void LmwProtocol::write_fault(NodeId n, PageId page) {
  NodeState& st = node(n);
  if (rt_->table(n).prot(page) == Protect::None) {
    // Bring the copy current before twinning it (the twin must be the
    // pre-epoch contents, or the diff would swallow foreign data).
    validate_page(n, page);
  }
  rt_->create_twin(n, st.twins, page);
  rt_->mprotect(n, page, Protect::ReadWrite);
}

void LmwProtocol::barrier_begin() {
  // Replay the phase's single-writer fast-path fetches: the creator-side
  // exclusivity exits that the serializing baton performed inline at fetch
  // time. Entries are merged over all nodes, sorted and deduplicated, so
  // the replay order -- and hence every downstream effect -- is independent
  // of mid-phase scheduling. Several nodes may have fetched the same
  // exclusive page in one phase; the exit happens once.
  std::vector<std::pair<NodeId, PageId>> exits;
  for (NodeState& st : nodes_) {
    exits.insert(exits.end(), st.fast_fetches.begin(), st.fast_fetches.end());
    st.fast_fetches.clear();
  }
  std::sort(exits.begin(), exits.end());
  exits.erase(std::unique(exits.begin(), exits.end()), exits.end());

  for (const auto& [creator, page] : exits) {
    NodeState& cs = node(creator);
    PageLocal& cpl = cs.pages[page.index()];
    UPDSM_CHECK_MSG(cpl.exclusive, "fast-path fetch logged for page "
                                       << page << " but creator " << creator
                                       << " is not exclusive");
    cpl.exclusive = false;
    // Writes must be trapped again next epoch; the twin snapshots the
    // *served* contents (the previous-barrier snapshot), so the diff taken
    // at this barrier's arrival captures every silent single-writer write
    // of the finished epoch and announces it with a fresh notice.
    const auto snapshot = cs.snapshots.get(page);
    cs.twins.create(page, snapshot);
    rt_->charge_dsm(creator, 0, rt_->costs().dsm.copy_per_byte_ns,
                    rt_->page_size(), /*sigio=*/true);
    ++rt_->counters().twins_created;
    // The silent modifications accumulated during single-writer mode were
    // never diffed; republish the creator's newest diff id as a whole-page
    // diff so that OTHER nodes still holding the old notice reconstruct
    // the served contents rather than the pre-exclusivity state.
    cs.created.put(DiffStore::Key{page, cpl.last_notice_epoch, creator},
                   mem::Diff::full_page(snapshot));
    ++rt_->counters().private_exits;
    cs.snapshots.discard(page);
  }

  rt_->for_each_node([this](NodeId n) { capture_arrival(n); });
}

void LmwProtocol::barrier_arrive(NodeId n) {
  NodeState& st = node(n);
  // Each notice rides this node's barrier arrival message.
  rt_->add_arrival_payload(n, WriteNotice::kWireBytes * st.notices.size());
  epoch_notices_.insert(epoch_notices_.end(), st.notices.begin(),
                        st.notices.end());
  st.notices.clear();
}

void LmwProtocol::capture_arrival(NodeId n) {
  NodeState& st = node(n);
  const EpochId epoch = rt_->epoch();

  // Re-snapshot still-exclusive pages: the frame now holds the epoch's
  // silent writes, and the snapshot must track the page barrier-to-barrier
  // so next epoch's fast-path fetches serve current (barrier-frozen) data.
  for (const PageId page : st.snapshots.pages_sorted()) {
    st.snapshots.refresh(page, rt_->table(n).frame(page));
  }

  for (const PageId page : st.twins.pages_sorted()) {
    // The diff comes from n's arena, which st.created is bound to: storing
    // it (or recycling it there) closes the loan.
    Diff diff = rt_->diff_page(n, st.twins, page);
    st.twins.discard(page);
    // Re-arm write trapping for the next epoch.
    rt_->mprotect(n, page, Protect::Read);
    if (diff.empty()) {
      // The write was trapped but left no net modification. Consumers stay
      // valid (nothing to propagate), but a page with NO consumers is a
      // single-writer candidate: emit one (empty) notice so every stale
      // replica is invalidated and the release-time entry check is sound.
      PageLocal& pl = st.pages[page.index()];
      if (pl.copyset.empty() && !pl.exclusive) {
        st.notices.push_back(WriteNotice{page, n, epoch});
        st.epoch_diffed.push_back(page);
        pl.last_notice_epoch = epoch;
        st.created.squash_put(DiffStore::Key{page, epoch, n},
                              std::move(diff));
      } else {
        st.created.recycle(std::move(diff));
      }
      continue;
    }

    st.notices.push_back(WriteNotice{page, n, epoch});
    st.epoch_diffed.push_back(page);
    st.pages[page.index()].last_notice_epoch = epoch;

    if (use_updates_) {
      // Push the diff, unreliably, to every known consumer; storage happens
      // on delivery only (a dropped batch loses all its records and heals
      // through the lazy refetch path).
      const dsm::Copyset consumers = st.pages[page.index()].copyset;
      consumers.for_each([&](NodeId member) {
        if (member == n) return;
        ++rt_->counters().updates_sent;
        rt_->stage_flush(
            n, member, page, n, diff, /*reliable=*/false,
            [this, member](const dsm::FlushRecordView& rec) {
              ++rt_->counters().updates_received;
              ++rt_->counters().updates_stored;
              // Out-of-order update storage: the very machinery the paper
              // blames for lmw-u's barnes/swm regression; charged per byte.
              rt_->charge_dsm(member, rt_->costs().dsm.update_store_fixed,
                              rt_->costs().dsm.update_store_per_byte_ns,
                              rec.diff_wire_bytes(), /*sigio=*/true);
              // The only decode of a delivered record: a stored update
              // outlives the batch, so it is materialized into a recycled
              // diff that reuses pooled capacity.
              NodeState& dst = node(member);
              Diff stored = dst.stored_updates.take_scratch();
              rec.decode_into(stored);
              dst.stored_updates.put(
                  DiffStore::Key{rec.page, rec.epoch, rec.creator},
                  std::move(stored));
            });
      });
    }

    st.created.squash_put(DiffStore::Key{page, epoch, n}, std::move(diff));
  }
}

void LmwProtocol::barrier_master() {
  // Track the homeless memory appetite and decide on garbage collection.
  const std::uint64_t retained = retained_diff_bytes();
  auto& counters = rt_->counters();
  counters.retained_diff_bytes_peak =
      std::max<std::uint64_t>(counters.retained_diff_bytes_peak, retained);
  const std::uint64_t threshold = rt_->config().lmw_gc_threshold_bytes;
  gc_requested_ = threshold != 0 && retained > threshold;

  // The master redistributes every notice to every other node; each notice
  // costs payload on each release message (a node needs no notice for its
  // own diffs).
  for (int i = 0; i < rt_->num_nodes(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    std::uint64_t foreign = 0;
    for (const WriteNotice& wn : epoch_notices_) {
      if (wn.creator != n) ++foreign;
    }
    rt_->add_release_payload(n, foreign * WriteNotice::kWireBytes);
  }
}

void LmwProtocol::barrier_finish() {
  rt_->for_each_node([this](NodeId n) { release_node(n); });
  epoch_notices_.clear();
  if (gc_requested_) {
    gc_requested_ = false;
    garbage_collect();
  }
}

void LmwProtocol::release_node(NodeId n) {
  NodeState& st = node(n);
  std::vector<PageId> touched;
  for (const WriteNotice& wn : epoch_notices_) {
    if (wn.creator == n) continue;
    PageLocal& pl = st.pages[wn.page.index()];
    pl.pending.push_back(wn);
    touched.push_back(wn.page);
    // Multi-writer LRC invalidates on *foreign* notices only; a node that
    // was the sole writer of a page never sees a foreign notice for it and
    // keeps its copy valid -- no communication for private pages.
    if (rt_->table(n).prot(wn.page) != Protect::None) {
      rt_->mprotect(n, wn.page, Protect::None);
    }
  }
  // Keep deterministic diff-application order regardless of notice order.
  for (const PageId page : touched) {
    auto& pending = st.pages[page.index()].pending;
    std::sort(pending.begin(), pending.end(), dsm::WriteNoticeOrder{});
  }

  // Single-writer mode entry: a page this node just diffed, with no
  // concurrent foreign writer and no known consumer, now has no valid
  // replica anywhere (our notice invalidated them all) -- stop trapping it
  // until someone asks for it.
  for (const PageId page : st.epoch_diffed) {
    PageLocal& pl = st.pages[page.index()];
    if (pl.exclusive || !pl.copyset.empty()) continue;
    bool foreign_writer = false;
    for (const WriteNotice& wn : epoch_notices_) {
      if (wn.page == page && wn.creator != n) {
        foreign_writer = true;
        break;
      }
    }
    if (foreign_writer) continue;
    UPDSM_CHECK(rt_->table(n).prot(page) == Protect::Read);
    pl.exclusive = true;
    rt_->mprotect(n, page, Protect::ReadWrite);
    // Arm the service snapshot: mid-phase fetches of this page are served
    // from it, never from the live frame (parallel-gang safety).
    st.snapshots.create(page, rt_->table(n).frame(page));
    ++rt_->counters().private_entries;
  }
  st.epoch_diffed.clear();
}

void LmwProtocol::iteration_begin(NodeId /*n*/, std::uint64_t iteration) {
  // Time-step loop entry: start copyset learning afresh so the init-phase
  // broadcast (every node requesting node 0's initialisation diffs) does
  // not leave every page's copyset saturated (§2.1.2: copysets reflect the
  // *loop's* stable sharing pattern, learned during its first iteration).
  if (iteration != 1) return;
  // One-shot global reset, performed by whichever node thread arrives
  // first. Applications call iteration_begin before any shared access of
  // the entering epoch, so the mutex acquire in every other node's call
  // orders this reset before all copyset adds of that epoch -- the same
  // clear-then-learn order the serializing baton produced.
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_entered_) return;
  loop_entered_ = true;
  for (NodeState& st : nodes_) {
    for (PageLocal& pl : st.pages) pl.copyset.clear();
  }
}

void LmwProtocol::garbage_collect() {
  // Global GC (TreadMarks-style): every node first validates every invalid
  // page -- fetching any diffs it is missing, at full cost -- after which
  // no future request can name a pre-GC diff and all stores are dropped.
  ++gc_rounds_;
  ++rt_->counters().gc_rounds;
  for (int i = 0; i < rt_->num_nodes(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    NodeState& st = node(n);
    for (std::uint32_t p = 0; p < rt_->num_pages(); ++p) {
      if (!st.pages[p].pending.empty()) {
        validate_page(n, PageId{p}, /*demand=*/false);
      }
    }
  }
  for (auto& st : nodes_) {
    st.created.clear();
    st.stored_updates.clear();
  }
}

std::uint64_t LmwProtocol::retained_diff_bytes() const {
  std::uint64_t total = 0;
  for (const auto& st : nodes_) {
    total += st.created.retained_bytes() + st.stored_updates.retained_bytes();
  }
  return total;
}

}  // namespace updsm::protocols
