// Retained-diff storage for homeless protocols (paper §2.2, Figure 1).
//
// A creator cannot discard a diff after serving it, "because P1 can not
// know if or when some other process might subsequently request the diff as
// well" -- diffs live until an explicit garbage collection. DiffStore keyes
// diffs by (page, epoch, creator), tracks total retained bytes (the
// homeless protocols' memory appetite, reported in Table-1 ablations), and
// supports the global GC that the lmw protocols trigger on memory pressure.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm::dsm {

class DiffStore {
 public:
  struct Key {
    PageId page{0};
    EpochId epoch{0};
    NodeId creator{0};

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.page, a.epoch, a.creator) <
             std::tie(b.page, b.epoch, b.creator);
    }
  };

  ~DiffStore() { clear(); }  // close pool loans at teardown

  /// Routes diff buffers through a pool (a worker's arena, so the
  /// host-parallel engine never shares one). Must be bound while empty;
  /// the bound pool must outlive this store. Pool contents never matter
  /// (takers clear or overwrite), so the pool cannot change results.
  void bind_pool(mem::DiffPool* pool) { pool_ = pool; }

  /// Stores a diff; replaces any previous diff with the same key. Like
  /// take_scratch(), needs a bound pool.
  void put(const Key& key, mem::Diff diff);

  /// A cleared diff with pooled capacity, to build a diff to store in
  /// (lmw-u decodes each stored update into one). Spent diffs return to
  /// the pool via recycle() or any erase/clear/squash.
  [[nodiscard]] mem::Diff take_scratch() { return pool().take(); }
  void recycle(mem::Diff&& diff) { pool().recycle(std::move(diff)); }

  /// Nullptr when absent.
  [[nodiscard]] const mem::Diff* find(const Key& key) const;

  /// Exact match, or -- when the entry was squashed away -- the OLDEST
  /// surviving diff of the same (page, creator) with a newer epoch (whose
  /// coverage supersedes the squashed one by construction). Nullptr when
  /// neither exists.
  [[nodiscard]] const mem::Diff* find_or_successor(const Key& key) const;

  /// Stores `diff` and erases any older diff of the same (page, creator)
  /// that it fully covers ("diff squashing": repeatedly rewritten pages
  /// retain only the newest diff instead of one per epoch).
  void squash_put(const Key& key, mem::Diff diff);

  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != nullptr;
  }

  void erase(const Key& key);
  void clear();

  [[nodiscard]] std::size_t size() const { return diffs_.size(); }
  [[nodiscard]] std::uint64_t retained_bytes() const {
    return retained_bytes_;
  }

 private:
  [[nodiscard]] mem::DiffPool& pool() {
    UPDSM_CHECK_MSG(pool_ != nullptr, "DiffStore used before bind_pool");
    return *pool_;
  }

  std::map<Key, mem::Diff> diffs_;
  std::uint64_t retained_bytes_ = 0;
  mem::DiffPool* pool_ = nullptr;
};

}  // namespace updsm::dsm
