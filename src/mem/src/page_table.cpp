#include "updsm/mem/page_table.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace updsm::mem {

PageTable::PageTable(std::uint32_t num_pages, std::uint32_t page_size)
    : num_pages_(num_pages), page_size_(page_size) {
  UPDSM_REQUIRE(num_pages > 0, "page table needs at least one page");
  UPDSM_REQUIRE(page_size >= 64 && (page_size & (page_size - 1)) == 0,
                "page size must be a power of two >= 64, got " << page_size);
  prot_.assign(num_pages, Protect::None);
  void* base = ::mmap(nullptr, segment_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    throw Error("page table: mapping a " + std::to_string(segment_bytes()) +
                "-byte segment failed: " + std::strerror(errno));
  }
  // With transparent huge pages a one-byte touch would commit a whole huge
  // page; keep commitment per host page. Advisory, so a failure is harmless.
  (void)::madvise(base, segment_bytes(), MADV_NOHUGEPAGE);
  data_ = static_cast<std::byte*>(base);
}

PageTable::~PageTable() { ::munmap(data_, segment_bytes()); }

}  // namespace updsm::mem
