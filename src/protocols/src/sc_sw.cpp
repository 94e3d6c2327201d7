#include "updsm/protocols/sc_sw.hpp"

#include <cstring>

namespace updsm::protocols {

namespace {
using mem::Protect;
using sim::MsgKind;
}  // namespace

void ScSwProtocol::init(dsm::Runtime& rt) {
  rt_ = &rt;
  pages_.resize(rt.num_pages());
  // Initial exclusive owner: bar's initial home. It alone holds the page,
  // read-write; every other node's fresh page table maps nothing.
  for (std::uint32_t p = 0; p < rt.num_pages(); ++p) {
    const PageId page{p};
    const NodeId owner = rt.initial_home(page);
    pages_[p].owner = owner;
    pages_[p].holders.add(owner);
    rt.table(owner).set_prot(page, Protect::ReadWrite);
  }
}

void ScSwProtocol::transfer(NodeId n, PageId page) {
  const NodeId owner = pages_[page.index()].owner;
  UPDSM_CHECK(owner != n);
  rt_->charge_page_transfer(n, owner);
  std::memcpy(rt_->table(n).frame(page).data(),
              rt_->table(owner).frame(page).data(), rt_->page_size());
  ++rt_->counters().pages_fetched;
  ++rt_->counters().remote_misses;
}

void ScSwProtocol::read_fault(NodeId n, PageId page) {
  PageDir& dir = pages_[page.index()];
  transfer(n, page);
  // The owner keeps its copy but loses write permission (shared state).
  if (rt_->table(dir.owner).prot(page) == Protect::ReadWrite) {
    rt_->mprotect(dir.owner, page, Protect::Read, /*sigio=*/true);
  }
  rt_->mprotect(n, page, Protect::Read);
  dir.holders.add(n);
}

void ScSwProtocol::write_fault(NodeId n, PageId page) {
  PageDir& dir = pages_[page.index()];
  if (rt_->table(n).prot(page) == Protect::None) {
    transfer(n, page);
  }
  // Gain exclusivity: invalidate every other holder. Each invalidation is
  // a (small) reliable request/ack pair -- the very arbitration traffic
  // multi-writer LRC removes.
  dir.holders.for_each([&](NodeId holder) {
    if (holder == n) return;
    rt_->roundtrip(n, holder, MsgKind::DataRequest, 16, 8, 0);
    rt_->mprotect(holder, page, Protect::None, /*sigio=*/true);
  });
  dir.holders.clear();
  dir.holders.add(n);
  dir.owner = n;
  rt_->mprotect(n, page, Protect::ReadWrite);
}

}  // namespace updsm::protocols
