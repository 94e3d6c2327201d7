#include "updsm/mem/diff.hpp"

#include <algorithm>
#include <cstring>

namespace updsm::mem {
namespace {

/// Word used for the fast comparison sweep; pages are always a multiple of
/// this size (PageTable enforces power-of-two >= 64).
using Word = std::uint64_t;

/// Block used for the memcmp prescan that skips clean stretches without
/// touching the per-word loop. Must be a multiple of sizeof(Word); 64
/// matches a cache line, so a clean block costs one resident-line compare.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kWordsPerBlock = kBlock / sizeof(Word);

}  // namespace

Diff Diff::create(std::span<const std::byte> twin,
                  std::span<const std::byte> cur) {
  Diff diff;
  create_into(diff, twin, cur);
  return diff;
}

void Diff::create_into(Diff& out, std::span<const std::byte> twin,
                       std::span<const std::byte> cur) {
  UPDSM_CHECK_MSG(twin.size() == cur.size(),
                  "twin/current size mismatch: " << twin.size() << " vs "
                                                 << cur.size());
  UPDSM_CHECK(twin.size() % sizeof(Word) == 0);
  out.clear();

  const std::size_t words = twin.size() / sizeof(Word);
  const std::size_t full_blocks = twin.size() / kBlock;

  // Prescan: memcmp whole blocks to size runs_/data_ up front (no growth
  // reallocations in the extension loop) and to bail out on the very common
  // identical-page case without ever entering the per-word path. A run can
  // never cross a clean block (all its words match), so the span count here
  // is a true upper bound on the run count.
  std::size_t dirty_blocks = 0;
  std::size_t dirty_spans = 0;
  bool prev_dirty = false;
  for (std::size_t b = 0; b < full_blocks; ++b) {
    const bool dirty = std::memcmp(twin.data() + b * kBlock,
                                   cur.data() + b * kBlock, kBlock) != 0;
    dirty_blocks += dirty;
    dirty_spans += dirty && !prev_dirty;
    prev_dirty = dirty;
  }
  const std::size_t tail_bytes = twin.size() - full_blocks * kBlock;
  if (tail_bytes != 0 &&
      std::memcmp(twin.data() + full_blocks * kBlock,
                  cur.data() + full_blocks * kBlock, tail_bytes) != 0) {
    ++dirty_blocks;
    if (!prev_dirty) ++dirty_spans;
  }
  if (dirty_blocks == 0) return;
  out.runs_.reserve(dirty_spans);
  out.data_.reserve(std::min(dirty_blocks * kBlock, twin.size()));

  std::size_t w = 0;
  while (w < words) {
    // Re-skip clean blocks when word-aligned to one; between blocks (and in
    // the tail) fall back to skipping identical words one at a time.
    if (w % kWordsPerBlock == 0) {
      while (w + kWordsPerBlock <= words &&
             std::memcmp(twin.data() + w * sizeof(Word),
                         cur.data() + w * sizeof(Word), kBlock) == 0) {
        w += kWordsPerBlock;
      }
      if (w >= words) break;
    }
    Word a;
    Word b;
    std::memcpy(&a, twin.data() + w * sizeof(Word), sizeof(Word));
    std::memcpy(&b, cur.data() + w * sizeof(Word), sizeof(Word));
    if (a == b) {
      ++w;
      continue;
    }
    // Extend the run over consecutive differing words. Word granularity
    // (rather than byte) matches CVM's diffing and keeps runs aligned.
    const std::size_t start = w;
    while (w < words) {
      std::memcpy(&a, twin.data() + w * sizeof(Word), sizeof(Word));
      std::memcpy(&b, cur.data() + w * sizeof(Word), sizeof(Word));
      if (a == b) break;
      ++w;
    }
    DiffRun run;
    run.offset = static_cast<std::uint32_t>(start * sizeof(Word));
    run.length = static_cast<std::uint32_t>((w - start) * sizeof(Word));
    const auto* run_data = cur.data() + run.offset;
    out.data_.insert(out.data_.end(), run_data, run_data + run.length);
    out.runs_.push_back(run);
  }
}

Diff Diff::full_page(std::span<const std::byte> contents) {
  Diff diff;
  DiffRun run;
  run.offset = 0;
  run.length = static_cast<std::uint32_t>(contents.size());
  diff.runs_.push_back(run);
  diff.data_.assign(contents.begin(), contents.end());
  return diff;
}

void Diff::apply(std::span<std::byte> dst) const {
  std::size_t data_pos = 0;
  for (const DiffRun& run : runs_) {
    UPDSM_CHECK_MSG(static_cast<std::size_t>(run.offset) + run.length <=
                        dst.size(),
                    "diff run [" << run.offset << ", +" << run.length
                                 << ") beyond page of " << dst.size());
    std::memcpy(dst.data() + run.offset, data_.data() + data_pos, run.length);
    data_pos += run.length;
  }
  UPDSM_CHECK(data_pos == data_.size());
}

bool Diff::covers(const Diff& other) const {
  // Both run lists are sorted by offset; sweep `other`'s runs against ours.
  std::size_t i = 0;
  for (const DiffRun& o : other.runs_) {
    std::uint32_t pos = o.offset;
    const std::uint32_t end = o.offset + o.length;
    while (pos < end) {
      while (i < runs_.size() && runs_[i].offset + runs_[i].length <= pos) {
        ++i;
      }
      if (i == runs_.size() || runs_[i].offset > pos) return false;
      pos = runs_[i].offset + runs_[i].length;
    }
  }
  return true;
}

bool Diff::overlaps(const Diff& other) const {
  // Runs are sorted by offset by construction; merge-scan.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    const DiffRun& a = runs_[i];
    const DiffRun& b = other.runs_[j];
    const std::uint32_t a_end = a.offset + a.length;
    const std::uint32_t b_end = b.offset + b.length;
    if (a_end <= b.offset) {
      ++i;
    } else if (b_end <= a.offset) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace updsm::mem
