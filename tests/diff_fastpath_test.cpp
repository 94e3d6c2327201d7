// Reference-equivalence coverage for the Diff::create fast path.
//
// The optimized create() prescans 64-byte blocks (memcmp) before the
// per-word run extension; this suite pins it against a straight
// word-at-a-time reference implementation (the pre-optimization algorithm)
// over randomized twin/current pairs and the edge cases the block skip
// could plausibly get wrong: identical pages, fully-dirty pages, runs
// crossing block boundaries, dirt confined to the sub-block tail, and a
// single trailing dirty word.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "updsm/common/rng.hpp"
#include "updsm/dsm/diff_store.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm {
namespace {

using mem::Diff;
using mem::DiffRun;

/// The pre-optimization algorithm, kept verbatim as the reference: skip
/// identical 64-bit words, extend runs over consecutive differing words.
struct ReferenceDiff {
  std::vector<DiffRun> runs;
  std::vector<std::byte> data;
};

ReferenceDiff reference_create(std::span<const std::byte> twin,
                               std::span<const std::byte> cur) {
  using Word = std::uint64_t;
  ReferenceDiff diff;
  const std::size_t words = twin.size() / sizeof(Word);
  std::size_t w = 0;
  while (w < words) {
    Word a;
    Word b;
    std::memcpy(&a, twin.data() + w * sizeof(Word), sizeof(Word));
    std::memcpy(&b, cur.data() + w * sizeof(Word), sizeof(Word));
    if (a == b) {
      ++w;
      continue;
    }
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
    const std::size_t old = diff.data.size();
    diff.data.resize(old + run.length);
    std::memcpy(diff.data.data() + old, cur.data() + run.offset, run.length);
    diff.runs.push_back(run);
  }
  return diff;
}

void expect_equivalent(std::span<const std::byte> twin,
                       std::span<const std::byte> cur,
                       const char* label) {
  const ReferenceDiff want = reference_create(twin, cur);
  const Diff got = Diff::create(twin, cur);
  ASSERT_EQ(got.run_count(), want.runs.size()) << label;
  for (std::size_t i = 0; i < want.runs.size(); ++i) {
    EXPECT_EQ(got.runs()[i].offset, want.runs[i].offset) << label << " #" << i;
    EXPECT_EQ(got.runs()[i].length, want.runs[i].length) << label << " #" << i;
  }
  ASSERT_EQ(got.payload_bytes(), want.data.size()) << label;
  // Applying the diff onto the twin must reproduce `cur` exactly.
  std::vector<std::byte> rebuilt(twin.begin(), twin.end());
  got.apply(rebuilt);
  EXPECT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0) << label;
}

std::vector<std::byte> filled_page(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> page(size);
  for (auto& b : page) b = static_cast<std::byte>(rng.bounded(256));
  return page;
}

TEST(DiffFastPathTest, IdenticalPage) {
  const auto twin = filled_page(8192, 1);
  const auto cur = twin;
  expect_equivalent(twin, cur, "identical");
  EXPECT_TRUE(Diff::create(twin, cur).empty());
}

TEST(DiffFastPathTest, FullyDirtyPage) {
  const auto twin = filled_page(8192, 1);
  std::vector<std::byte> cur(twin.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    cur[i] = static_cast<std::byte>(~std::to_integer<unsigned>(twin[i]));
  }
  expect_equivalent(twin, cur, "fully dirty");
  EXPECT_EQ(Diff::create(twin, cur).run_count(), 1u);
}

TEST(DiffFastPathTest, SingleTrailingWordDirty) {
  const auto twin = filled_page(4096, 2);
  auto cur = twin;
  cur[4095] = static_cast<std::byte>(~std::to_integer<unsigned>(cur[4095]));
  expect_equivalent(twin, cur, "trailing word");
  const Diff d = Diff::create(twin, cur);
  ASSERT_EQ(d.run_count(), 1u);
  EXPECT_EQ(d.runs()[0].offset, 4088u);
  EXPECT_EQ(d.runs()[0].length, 8u);
}

TEST(DiffFastPathTest, SingleLeadingWordDirty) {
  const auto twin = filled_page(4096, 3);
  auto cur = twin;
  cur[0] = static_cast<std::byte>(~std::to_integer<unsigned>(cur[0]));
  expect_equivalent(twin, cur, "leading word");
}

TEST(DiffFastPathTest, RunCrossingBlockBoundary) {
  // Dirty words 7 and 8 of the page (bytes 56..72): one run straddling the
  // 64-byte prescan boundary, which must not be split in two.
  const auto twin = filled_page(4096, 4);
  auto cur = twin;
  for (std::size_t i = 56; i < 72; ++i) cur[i] ^= std::byte{0xff};
  expect_equivalent(twin, cur, "block straddle");
  EXPECT_EQ(Diff::create(twin, cur).run_count(), 1u);
}

TEST(DiffFastPathTest, AlternatingWordsDefeatBlockSkip) {
  // Every other word dirty: every block is dirty, maximal run count.
  const auto twin = filled_page(2048, 5);
  auto cur = twin;
  for (std::size_t w = 0; w < cur.size() / 8; w += 2) {
    cur[w * 8] ^= std::byte{0x01};
  }
  expect_equivalent(twin, cur, "alternating");
  EXPECT_EQ(Diff::create(twin, cur).run_count(), cur.size() / 16);
}

TEST(DiffFastPathTest, SubBlockPageSizes) {
  // Sizes that are multiples of the word but not of the prescan block:
  // everything is "tail".
  for (const std::size_t size : {8u, 24u, 56u, 120u, 200u}) {
    const auto twin = filled_page(size, size);
    auto cur = twin;
    cur[size / 2] ^= std::byte{0x80};
    expect_equivalent(twin, cur, "sub-block size");
  }
}

TEST(DiffFastPathTest, RandomizedPairsMatchReference) {
  Xoshiro256 rng(0x1998'0330);
  for (int trial = 0; trial < 300; ++trial) {
    // Word-multiple sizes, deliberately including non-block multiples.
    const std::size_t size = 8 * (1 + rng.bounded(600));
    const auto twin = filled_page(size, rng());
    auto cur = twin;
    // Dirty a random number of random islands (possibly zero).
    const std::uint64_t islands = rng.bounded(8);
    for (std::uint64_t k = 0; k < islands; ++k) {
      const std::size_t start = rng.bounded(size);
      const std::size_t len = 1 + rng.bounded(size - start);
      for (std::size_t i = start; i < start + len; ++i) {
        cur[i] = static_cast<std::byte>(rng.bounded(256));
      }
    }
    expect_equivalent(twin, cur, "randomized");
  }
}

TEST(DiffFastPathTest, CreateIntoReusesCapacityAndMatchesCreate) {
  Xoshiro256 rng(7);
  Diff scratch;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t size = 64 * (1 + rng.bounded(64));
    const auto twin = filled_page(size, rng());
    auto cur = twin;
    const std::size_t start = rng.bounded(size);
    cur[start] ^= std::byte{0x42};
    Diff::create_into(scratch, twin, cur);
    const Diff fresh = Diff::create(twin, cur);
    ASSERT_EQ(scratch.run_count(), fresh.run_count());
    EXPECT_EQ(scratch.payload_bytes(), fresh.payload_bytes());
    std::vector<std::byte> rebuilt(twin.begin(), twin.end());
    scratch.apply(rebuilt);
    EXPECT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0);
  }
}

TEST(DiffFastPathTest, TwinStoreRecyclesDiscardedBuffers) {
  mem::BufferPool pool;
  dsm::TwinStore twins;
  twins.bind_pool(&pool);
  const auto page = filled_page(4096, 9);
  twins.create(PageId{1}, page);
  EXPECT_EQ(pool.pooled(), 0u);
  twins.discard(PageId{1});
  EXPECT_EQ(pool.pooled(), 1u);
  // Re-creating consumes the pooled buffer and snapshots correctly.
  const auto page2 = filled_page(4096, 10);
  twins.create(PageId{2}, page2);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(std::memcmp(twins.get(PageId{2}).data(), page2.data(),
                        page2.size()),
            0);
}

TEST(DiffFastPathTest, DiffStoreScratchRoundTrip) {
  mem::DiffPool pool;
  dsm::DiffStore store;
  store.bind_pool(&pool);
  const auto twin = filled_page(1024, 11);
  auto cur = twin;
  cur[100] ^= std::byte{0xff};
  Diff d = store.take_scratch();
  Diff::create_into(d, twin, cur);
  const dsm::DiffStore::Key key{PageId{0}, EpochId{1}, NodeId{0}};
  store.put(key, std::move(d));
  ASSERT_NE(store.find(key), nullptr);
  store.erase(key);  // recycles into the pool
  Diff reused = store.take_scratch();
  EXPECT_EQ(pool.hits(), 1u);
  Diff::create_into(reused, twin, cur);
  ASSERT_EQ(reused.run_count(), 1u);
  std::vector<std::byte> rebuilt(twin.begin(), twin.end());
  reused.apply(rebuilt);
  EXPECT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0);
}

}  // namespace
}  // namespace updsm
