// Twin management (paper §2.1.1).
//
// A twin is the pristine copy of a page snapshotted at the first write
// access of an epoch; diffing current contents against the twin yields the
// epoch's modifications. One TwinStore per node.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"
#include "updsm/mem/buffer_pool.hpp"

namespace updsm::dsm {

class TwinStore {
 public:
  ~TwinStore() { clear(); }  // close pool loans at teardown

  /// Routes twin buffers through a pool (a worker's arena, so the
  /// host-parallel engine never shares one). Must be bound before any twin
  /// exists; the bound pool must outlive this store. Buffer contents never
  /// matter (create() overwrites the whole page), so the pool cannot change
  /// results.
  void bind_pool(mem::BufferPool* pool) {
    UPDSM_CHECK_MSG(twins_.empty(), "bind_pool with live twins");
    pool_ = pool;
  }

  /// Snapshots `page_data` as the twin of `page`. A twin must not already
  /// exist (protocols create exactly one twin per page per epoch), and a
  /// pool must be bound. Takes the buffer from the pool, so the
  /// twin/diff/discard cycle of each epoch allocates nothing in steady
  /// state.
  void create(PageId page, std::span<const std::byte> page_data) {
    UPDSM_CHECK_MSG(pool_ != nullptr, "TwinStore::create before bind_pool");
    auto [it, inserted] = twins_.try_emplace(page);
    UPDSM_CHECK_MSG(inserted, "twin for page " << page << " already exists");
    it->second = pool_->take();
    it->second.assign(page_data.begin(), page_data.end());
  }

  /// Re-snapshots an existing twin in place (bar-s/bar-m refresh the twin
  /// each epoch instead of discarding it).
  void refresh(PageId page, std::span<const std::byte> page_data) {
    const auto it = twins_.find(page);
    UPDSM_CHECK_MSG(it != twins_.end(), "no twin for page " << page);
    UPDSM_CHECK(it->second.size() == page_data.size());
    std::memcpy(it->second.data(), page_data.data(), page_data.size());
  }

  [[nodiscard]] bool has(PageId page) const { return twins_.count(page) != 0; }

  [[nodiscard]] std::span<const std::byte> get(PageId page) const {
    const auto it = twins_.find(page);
    UPDSM_CHECK_MSG(it != twins_.end(), "no twin for page " << page);
    return it->second;
  }

  /// Mutable view of an existing twin. The async protocols keep a home's
  /// twin equal to its last-PUBLISHED contents (the frame may hold newer
  /// unpublished local writes), so foreign diffs must be applied to the
  /// twin as well as the frame.
  [[nodiscard]] std::span<std::byte> get_mut(PageId page) {
    const auto it = twins_.find(page);
    UPDSM_CHECK_MSG(it != twins_.end(), "no twin for page " << page);
    return it->second;
  }

  void discard(PageId page) {
    const auto it = twins_.find(page);
    if (it == twins_.end()) return;
    recycle(std::move(it->second));
    twins_.erase(it);
  }

  void clear() {
    for (auto& [page, twin] : twins_) recycle(std::move(twin));
    twins_.clear();
  }

  [[nodiscard]] std::size_t size() const { return twins_.size(); }

  /// Pages with live twins, in ascending page order (deterministic
  /// iteration for diff creation).
  [[nodiscard]] std::vector<PageId> pages_sorted() const;

 private:
  // Every live twin came from create(), so the pool is bound.
  void recycle(std::vector<std::byte>&& buffer) {
    pool_->recycle(std::move(buffer));
  }

  std::unordered_map<PageId, std::vector<std::byte>> twins_;
  mem::BufferPool* pool_ = nullptr;
};

inline std::vector<PageId> TwinStore::pages_sorted() const {
  std::vector<PageId> pages;
  pages.reserve(twins_.size());
  for (const auto& [page, twin] : twins_) pages.push_back(page);
  std::sort(pages.begin(), pages.end());
  return pages;
}

}  // namespace updsm::dsm
