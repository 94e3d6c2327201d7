// Per-node software MMU: a private frame for every shared page plus a
// protection word. This stands in for the paper's per-node AIX address
// space; "mprotect" in the simulation is a plain protection-word write whose
// *cost* is charged by sim::OsModel at the call site in the DSM layer.
//
// Like that address space, the frames are demand-zero: they live in one
// anonymous private host mapping, so a page the node never touches reads as
// the kernel's zero page and commits no host memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"
#include "updsm/mem/protection.hpp"

namespace updsm::mem {

class PageTable {
 public:
  /// Creates a table of `num_pages` pages of `page_size` bytes each, all
  /// zero-filled with Protect::None (nothing mapped yet). Throws Error if
  /// the host cannot map the segment.
  PageTable(std::uint32_t num_pages, std::uint32_t page_size);
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  [[nodiscard]] std::uint32_t num_pages() const { return num_pages_; }
  [[nodiscard]] std::uint32_t page_size() const { return page_size_; }
  [[nodiscard]] std::uint64_t segment_bytes() const {
    return static_cast<std::uint64_t>(num_pages_) * page_size_;
  }

  [[nodiscard]] Protect prot(PageId page) const {
    return prot_[check(page)];
  }

  /// Raw protection change -- cost accounting is the caller's job.
  void set_prot(PageId page, Protect p) { prot_[check(page)] = p; }

  /// Mutable view of one page's private frame.
  [[nodiscard]] std::span<std::byte> frame(PageId page) {
    const std::size_t i = check(page);
    return {data_ + i * page_size_, page_size_};
  }
  [[nodiscard]] std::span<const std::byte> frame(PageId page) const {
    const std::size_t i = check(page);
    return {data_ + i * page_size_, page_size_};
  }

  /// The whole private segment (used by checksum validation and by the
  /// privileged sequential baseline).
  [[nodiscard]] std::span<std::byte> segment() {
    return {data_, segment_bytes()};
  }
  [[nodiscard]] std::span<const std::byte> segment() const {
    return {data_, segment_bytes()};
  }

  [[nodiscard]] PageId page_of(GlobalAddr addr) const {
    UPDSM_REQUIRE(addr < segment_bytes(),
                  "address " << addr << " beyond shared segment of "
                             << segment_bytes() << " bytes");
    return PageId{static_cast<std::uint32_t>(addr / page_size_)};
  }

 private:
  [[nodiscard]] std::size_t check(PageId page) const {
    UPDSM_CHECK_MSG(page.value() < num_pages_,
                    "page " << page << " out of range (" << num_pages_
                            << " pages)");
    return page.index();
  }

  std::uint32_t num_pages_;
  std::uint32_t page_size_;
  std::vector<Protect> prot_;
  std::byte* data_ = nullptr;  // segment_bytes() of demand-zero memory
};

}  // namespace updsm::mem
