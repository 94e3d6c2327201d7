#include "updsm/dsm/diff_store.hpp"

namespace updsm::dsm {

void DiffStore::put(const Key& key, mem::Diff diff) {
  // Replacement only happens in lmw-u update storage, where a later flush
  // for the same (page, epoch, creator) supersedes a stored one; drop the
  // stale accounting (and recycle the buffers) before the old object goes.
  // Checked before storing: every stored diff returns to the pool.
  mem::DiffPool& spares = pool();
  const auto it = diffs_.find(key);
  if (it != diffs_.end()) {
    retained_bytes_ -= it->second.memory_bytes();
    spares.recycle(std::move(it->second));
  }
  retained_bytes_ += diff.memory_bytes();
  diffs_.insert_or_assign(key, std::move(diff));
}

const mem::Diff* DiffStore::find(const Key& key) const {
  const auto it = diffs_.find(key);
  return it == diffs_.end() ? nullptr : &it->second;
}

const mem::Diff* DiffStore::find_or_successor(const Key& key) const {
  auto it = diffs_.lower_bound(key);
  while (it != diffs_.end() && it->first.page == key.page) {
    if (it->first.creator == key.creator) return &it->second;
    ++it;
  }
  return nullptr;
}

void DiffStore::squash_put(const Key& key, mem::Diff diff) {
  auto it = diffs_.lower_bound(Key{key.page, EpochId{0}, NodeId{0}});
  while (it != diffs_.end() && it->first.page == key.page &&
         it->first.epoch < key.epoch) {
    if (it->first.creator == key.creator && diff.covers(it->second)) {
      retained_bytes_ -= it->second.memory_bytes();
      pool().recycle(std::move(it->second));
      it = diffs_.erase(it);
    } else {
      ++it;
    }
  }
  put(key, std::move(diff));
}

void DiffStore::erase(const Key& key) {
  const auto it = diffs_.find(key);
  if (it == diffs_.end()) return;
  retained_bytes_ -= it->second.memory_bytes();
  pool().recycle(std::move(it->second));
  diffs_.erase(it);
}

void DiffStore::clear() {
  for (auto& [key, diff] : diffs_) pool().recycle(std::move(diff));
  diffs_.clear();
  retained_bytes_ = 0;
}

}  // namespace updsm::dsm
