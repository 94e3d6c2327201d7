// Unit tests for the remaining mem/ components: page tables, the shared
// heap, twin stores and diff stores.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "updsm/dsm/diff_store.hpp"
#include "updsm/dsm/twin_store.hpp"
#include "updsm/mem/page_table.hpp"
#include "updsm/mem/shared_heap.hpp"

namespace updsm {
namespace {

using dsm::DiffStore;
using dsm::TwinStore;
using mem::Diff;
using mem::PageTable;
using mem::Protect;
using mem::SharedHeap;

// --- PageTable -------------------------------------------------------------

TEST(PageTableTest, StartsInvalidAndZeroFilled) {
  PageTable table(4, 1024);
  EXPECT_EQ(table.num_pages(), 4u);
  EXPECT_EQ(table.segment_bytes(), 4096u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(table.prot(PageId{p}), Protect::None);
    for (const std::byte b : table.frame(PageId{p})) {
      EXPECT_EQ(b, std::byte{0});
    }
  }
}

TEST(PageTableTest, FramesAreDisjointAndContiguous) {
  PageTable table(4, 1024);
  table.frame(PageId{1})[0] = std::byte{0xaa};
  EXPECT_EQ(table.segment()[1024], std::byte{0xaa});
  EXPECT_EQ(table.frame(PageId{0})[0], std::byte{0});
  EXPECT_EQ(table.frame(PageId{2})[0], std::byte{0});
}

// Indices of the host pages under `bytes` that are resident, per
// mincore(2); nullopt if the kernel rejects the query.
std::optional<std::vector<std::size_t>> resident_host_pages(
    std::span<const std::byte> bytes) {
  const auto host_page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes.size() + host_page - 1) / host_page);
  if (::mincore(const_cast<std::byte*>(bytes.data()), bytes.size(),
                vec.data()) != 0) {
    return std::nullopt;
  }
  std::vector<std::size_t> resident;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if ((vec[i] & 1) != 0) resident.push_back(i);
  }
  return resident;
}

constexpr std::uint32_t k64MbPages = 8192;  // 8 KB pages, as in the paper
constexpr std::uint32_t k8Kb = 8192;

TEST(PageTableTest, FreshTableCommitsNoHostMemory) {
  PageTable table(k64MbPages, k8Kb);
  ASSERT_EQ(table.segment_bytes(), 64u << 20);
  const auto resident = resident_host_pages(table.segment());
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(resident->size(), 0u);
}

TEST(PageTableTest, WritingOneFrameCommitsOnlyThatFrame) {
  PageTable table(k64MbPages, k8Kb);
  const PageId page{100};
  for (std::byte& b : table.frame(page)) b = std::byte{0x5a};

  // The host pages overlapping the frame's bytes, and nothing else.
  const auto host_page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<std::size_t> expected;
  for (std::size_t i = page.index() * k8Kb / host_page;
       i * host_page < (page.index() + 1) * k8Kb; ++i) {
    expected.push_back(i);
  }
  const auto resident = resident_host_pages(table.segment());
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(*resident, expected);
  for (const PageId neighbour : {PageId{99}, PageId{101}}) {
    for (const std::byte b : table.frame(neighbour)) {
      ASSERT_EQ(b, std::byte{0}) << "page " << neighbour;
    }
  }
}

TEST(PageTableTest, RecreatedTableReadsZero) {
  for (int round = 0; round < 3; ++round) {
    auto table = std::make_unique<PageTable>(64, k8Kb);
    for (const std::byte b : table->segment()) {
      ASSERT_EQ(b, std::byte{0}) << "round " << round;
    }
    for (std::byte& b : table->segment()) b = std::byte{0xff};
  }
}

TEST(PageTableTest, PageOfMapsAddresses) {
  PageTable table(4, 1024);
  EXPECT_EQ(table.page_of(0), PageId{0});
  EXPECT_EQ(table.page_of(1023), PageId{0});
  EXPECT_EQ(table.page_of(1024), PageId{1});
  EXPECT_EQ(table.page_of(4095), PageId{3});
  EXPECT_THROW((void)table.page_of(4096), UsageError);
}

TEST(PageTableTest, RejectsBadGeometry) {
  EXPECT_THROW(PageTable(0, 1024), UsageError);
  EXPECT_THROW(PageTable(4, 1000), UsageError);  // not a power of two
  EXPECT_THROW(PageTable(4, 32), UsageError);    // too small
}

TEST(PageTableTest, OutOfRangePageChecks) {
  PageTable table(4, 1024);
  EXPECT_THROW((void)table.prot(PageId{4}), InternalError);
  EXPECT_THROW((void)table.frame(PageId{7}), InternalError);
}

// --- SharedHeap --------------------------------------------------------------

TEST(SharedHeapTest, AlignsAllocations) {
  SharedHeap heap(8192);
  const GlobalAddr a = heap.alloc(10, "a");
  const GlobalAddr b = heap.alloc(10, "b");
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  const GlobalAddr c = heap.alloc_page_aligned(100, "c");
  EXPECT_EQ(c % 8192, 0u);
}

TEST(SharedHeapTest, SegmentPagesCoverEverything) {
  SharedHeap heap(1024);
  EXPECT_EQ(heap.segment_pages(), 1u);  // never zero
  heap.alloc(1, "x");
  EXPECT_EQ(heap.segment_pages(), 1u);
  heap.alloc(2048, "y");
  EXPECT_GE(heap.segment_pages() * 1024ull, heap.bytes_used());
}

TEST(SharedHeapTest, TracksNamedAllocations) {
  SharedHeap heap(1024);
  heap.alloc(128, "alpha");
  heap.alloc(256, "beta");
  ASSERT_EQ(heap.allocations().size(), 2u);
  EXPECT_EQ(heap.allocations()[0].name, "alpha");
  EXPECT_EQ(heap.allocations()[1].bytes, 256u);
}

TEST(SharedHeapTest, RejectsBadRequests) {
  SharedHeap heap(1024);
  EXPECT_THROW((void)heap.alloc(0, "zero"), UsageError);
  EXPECT_THROW((void)heap.alloc(8, "badalign", 48), UsageError);
  EXPECT_THROW(SharedHeap(100), UsageError);
}

// --- TwinStore ---------------------------------------------------------------

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(TwinStoreTest, CreateGetDiscard) {
  TwinStore twins;
  const auto data = bytes({1, 2, 3, 4});
  twins.create(PageId{7}, data);
  EXPECT_TRUE(twins.has(PageId{7}));
  EXPECT_EQ(twins.size(), 1u);
  EXPECT_EQ(twins.get(PageId{7})[2], std::byte{3});
  twins.discard(PageId{7});
  EXPECT_FALSE(twins.has(PageId{7}));
}

TEST(TwinStoreTest, DoubleCreateIsABug) {
  TwinStore twins;
  const auto data = bytes({1});
  twins.create(PageId{1}, data);
  EXPECT_THROW(twins.create(PageId{1}, data), InternalError);
}

TEST(TwinStoreTest, RefreshRequiresExistingTwin) {
  TwinStore twins;
  const auto v1 = bytes({1, 2});
  const auto v2 = bytes({3, 4});
  EXPECT_THROW(twins.refresh(PageId{0}, v1), InternalError);
  twins.create(PageId{0}, v1);
  twins.refresh(PageId{0}, v2);
  EXPECT_EQ(twins.get(PageId{0})[0], std::byte{3});
}

TEST(TwinStoreTest, PagesSortedIsSortedAndComplete) {
  TwinStore twins;
  const auto data = bytes({0});
  for (const std::uint32_t p : {9u, 3u, 27u, 1u}) {
    twins.create(PageId{p}, data);
  }
  const auto pages = twins.pages_sorted();
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_TRUE(std::is_sorted(pages.begin(), pages.end()));
}

// --- DiffStore ----------------------------------------------------------------

Diff make_diff(std::size_t page_size, std::size_t lo, std::size_t hi) {
  std::vector<std::byte> twin(page_size, std::byte{0});
  std::vector<std::byte> cur = twin;
  for (std::size_t i = lo; i < hi; ++i) cur[i] = std::byte{0xee};
  return Diff::create(twin, cur);
}

TEST(DiffStoreTest, PutFindEraseAccounting) {
  DiffStore store;
  const DiffStore::Key key{PageId{3}, EpochId{5}, NodeId{1}};
  store.put(key, make_diff(1024, 0, 64));
  EXPECT_NE(store.find(key), nullptr);
  EXPECT_GT(store.retained_bytes(), 64u);
  const std::uint64_t before = store.retained_bytes();
  store.put(key, make_diff(1024, 0, 8));  // replace with a smaller diff
  EXPECT_LT(store.retained_bytes(), before);
  store.erase(key);
  EXPECT_EQ(store.find(key), nullptr);
  EXPECT_EQ(store.retained_bytes(), 0u);
}

TEST(DiffStoreTest, SquashErasesCoveredOlderDiffs) {
  DiffStore store;
  const PageId page{2};
  const NodeId creator{4};
  store.squash_put({page, EpochId{1}, creator}, make_diff(1024, 0, 64));
  store.squash_put({page, EpochId{2}, creator}, make_diff(1024, 32, 48));
  EXPECT_EQ(store.size(), 2u);  // epoch 2 does not cover epoch 1
  store.squash_put({page, EpochId{3}, creator}, make_diff(1024, 0, 128));
  EXPECT_EQ(store.size(), 1u);  // epoch 3 covers both
  EXPECT_EQ(store.find({page, EpochId{1}, creator}), nullptr);
  EXPECT_NE(store.find({page, EpochId{3}, creator}), nullptr);
}

TEST(DiffStoreTest, SquashLeavesOtherCreatorsAndPagesAlone) {
  DiffStore store;
  store.squash_put({PageId{2}, EpochId{1}, NodeId{0}}, make_diff(1024, 0, 64));
  store.squash_put({PageId{9}, EpochId{1}, NodeId{1}}, make_diff(1024, 0, 64));
  store.squash_put({PageId{2}, EpochId{2}, NodeId{1}},
                   make_diff(1024, 0, 1024));
  EXPECT_EQ(store.size(), 3u);  // different creator: node 0's diff stays
}

TEST(DiffStoreTest, FindOrSuccessorSkipsToNewerEpoch) {
  DiffStore store;
  const PageId page{1};
  const NodeId creator{0};
  store.put({page, EpochId{5}, creator}, make_diff(1024, 0, 1024));
  // Epoch 3's entry was squashed away: the successor must be epoch 5.
  EXPECT_EQ(store.find_or_successor({page, EpochId{3}, creator}),
            store.find({page, EpochId{5}, creator}));
  // No diff at all for another creator.
  EXPECT_EQ(store.find_or_successor({page, EpochId{3}, NodeId{2}}), nullptr);
  // Nothing for another page either.
  EXPECT_EQ(store.find_or_successor({PageId{7}, EpochId{0}, creator}),
            nullptr);
}

}  // namespace
}  // namespace updsm
