// Wire-format unit tests for the aggregated FlushBatch (dsm/flush_batch.hpp):
// record round-trips against a reference decode, rejection of truncated and
// corrupted batches, empty-batch elision at the runtime layer, and the
// batch/record cost accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "updsm/common/rng.hpp"
#include "updsm/dsm/config.hpp"
#include "updsm/dsm/flush_batch.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm {
namespace {

using dsm::BatchReadStatus;
using dsm::FlushBatchReader;
using dsm::FlushBatchWriter;
using dsm::FlushRecordView;
using mem::Diff;

constexpr std::size_t kPage = 1024;

NodeId nid(std::uint32_t v) { return NodeId{v}; }
PageId pid(std::uint32_t v) { return PageId{v}; }

/// A reproducible diff with `mods` scattered modified ranges.
Diff random_diff(std::uint64_t seed, int mods) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> twin(kPage, std::byte{0});
  std::vector<std::byte> cur = twin;
  for (int m = 0; m < mods; ++m) {
    const std::size_t at = rng() % kPage;
    const std::size_t len = 1 + rng() % 32;
    for (std::size_t i = at; i < std::min(at + len, kPage); ++i) {
      cur[i] = static_cast<std::byte>(rng() & 0xff);
    }
  }
  return Diff::create(twin, cur);
}

/// Reference record decode: every view field must match the staged diff.
void expect_matches(const FlushRecordView& rec, PageId page, NodeId creator,
                    EpochId epoch, const Diff& diff) {
  EXPECT_EQ(rec.page, page);
  EXPECT_EQ(rec.creator, creator);
  EXPECT_EQ(rec.epoch, epoch);
  ASSERT_EQ(rec.runs.size(), diff.runs().size());
  for (std::size_t i = 0; i < rec.runs.size(); ++i) {
    EXPECT_EQ(rec.runs[i].offset, diff.runs()[i].offset);
    EXPECT_EQ(rec.runs[i].length, diff.runs()[i].length);
  }
  ASSERT_EQ(rec.payload.size(), diff.payload().size());
  EXPECT_EQ(std::memcmp(rec.payload.data(), diff.payload().data(),
                        rec.payload.size()),
            0);
  EXPECT_EQ(rec.diff_wire_bytes(), diff.wire_bytes());

  // decode_into reproduces the diff; applying both to the same base agrees.
  Diff decoded;
  rec.decode_into(decoded);
  std::vector<std::byte> via_diff(kPage, std::byte{0x5a});
  std::vector<std::byte> via_view(kPage, std::byte{0x5a});
  diff.apply(via_diff);
  rec.apply(via_view);
  EXPECT_EQ(via_diff, via_view);
  std::vector<std::byte> via_decoded(kPage, std::byte{0x5a});
  decoded.apply(via_decoded);
  EXPECT_EQ(via_diff, via_decoded);
}

TEST(FlushBatchTest, RoundTripsManyRandomRecords) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FlushBatchWriter writer;
    writer.begin(nid(3));
    std::vector<Diff> staged;
    const int records = 1 + static_cast<int>(seed % 5);
    for (int r = 0; r < records; ++r) {
      staged.push_back(random_diff(seed * 97 + r, 1 + r * 3));
      writer.add(pid(10 + r), nid(r % 4), EpochId{seed},
                 staged.back());
    }
    writer.seal();
    EXPECT_EQ(writer.record_count(), static_cast<std::uint32_t>(records));

    FlushBatchReader reader(writer.bytes());
    ASSERT_TRUE(reader.header_ok());
    EXPECT_EQ(reader.sender(), nid(3));
    EXPECT_EQ(reader.record_count(), static_cast<std::uint32_t>(records));
    FlushRecordView rec;
    for (int r = 0; r < records; ++r) {
      ASSERT_EQ(reader.next(rec), BatchReadStatus::Record) << "record " << r;
      expect_matches(rec, pid(10 + r), nid(r % 4), EpochId{seed}, staged[r]);
    }
    EXPECT_EQ(reader.next(rec), BatchReadStatus::End);
    EXPECT_EQ(reader.next(rec), BatchReadStatus::End);  // idempotent
  }
}

TEST(FlushBatchTest, WriterResetKeepsNothingAcrossBatches) {
  FlushBatchWriter writer;
  const Diff d1 = random_diff(7, 4);
  writer.begin(nid(0));
  writer.add(pid(1), nid(0), EpochId{1}, d1);
  writer.seal();
  const std::size_t first_size = writer.bytes().size();
  writer.reset();
  EXPECT_TRUE(writer.empty());
  EXPECT_TRUE(writer.bytes().empty());

  const Diff d2 = random_diff(8, 1);
  writer.begin(nid(2));
  writer.add(pid(9), nid(2), EpochId{5}, d2);
  writer.seal();
  EXPECT_NE(writer.bytes().size(), first_size);
  FlushBatchReader reader(writer.bytes());
  ASSERT_TRUE(reader.header_ok());
  EXPECT_EQ(reader.sender(), nid(2));
  FlushRecordView rec;
  ASSERT_EQ(reader.next(rec), BatchReadStatus::Record);
  expect_matches(rec, pid(9), nid(2), EpochId{5}, d2);
  EXPECT_EQ(reader.next(rec), BatchReadStatus::End);
}

TEST(FlushBatchTest, RejectsTruncationAtEveryLength) {
  FlushBatchWriter writer;
  writer.begin(nid(1));
  const Diff a = random_diff(11, 3);
  const Diff b = random_diff(12, 2);
  writer.add(pid(0), nid(1), EpochId{2}, a);
  writer.add(pid(1), nid(1), EpochId{2}, b);
  writer.seal();
  const auto whole = writer.bytes();
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    FlushBatchReader reader(whole.first(cut));
    if (cut < dsm::kFlushBatchHeaderBytes) {
      EXPECT_FALSE(reader.header_ok()) << "cut " << cut;
      continue;
    }
    // Header bytes present but the body is short: the header's declared
    // body_bytes no longer fits, so the batch is rejected up front.
    EXPECT_FALSE(reader.header_ok()) << "cut " << cut;
    FlushRecordView rec;
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Corrupt) << "cut " << cut;
  }
}

TEST(FlushBatchTest, RejectsCorruptedHeadersAndBodies) {
  FlushBatchWriter writer;
  writer.begin(nid(0));
  const Diff d = random_diff(21, 3);
  writer.add(pid(4), nid(0), EpochId{1}, d);
  writer.seal();
  const auto good = writer.bytes();
  FlushRecordView rec;

  {  // bad magic
    std::vector<std::byte> bytes(good.begin(), good.end());
    bytes[0] = std::byte{0x00};
    EXPECT_FALSE(FlushBatchReader(bytes).header_ok());
  }
  {  // record_count larger than the body holds
    std::vector<std::byte> bytes(good.begin(), good.end());
    const std::uint32_t two = 2;
    std::memcpy(bytes.data() + 8, &two, 4);
    FlushBatchReader reader(bytes);
    ASSERT_TRUE(reader.header_ok());
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Record);
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Corrupt);
  }
  {  // record_count smaller than the body holds: trailing junk detected
    std::vector<std::byte> bytes(good.begin(), good.end());
    const std::uint32_t zero = 0;
    std::memcpy(bytes.data() + 8, &zero, 4);
    FlushBatchReader reader(bytes);
    ASSERT_TRUE(reader.header_ok());
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Corrupt);
  }
  {  // run lengths no longer sum to payload_len
    std::vector<std::byte> bytes(good.begin(), good.end());
    const std::size_t run_len_at =
        dsm::kFlushBatchHeaderBytes + dsm::kFlushRecordHeaderBytes + 4;
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + run_len_at, 4);
    len += 1;
    std::memcpy(bytes.data() + run_len_at, &len, 4);
    FlushBatchReader reader(bytes);
    ASSERT_TRUE(reader.header_ok());
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Corrupt);
  }
  {  // declared payload_len overflowing the record body
    std::vector<std::byte> bytes(good.begin(), good.end());
    const std::size_t payload_len_at =
        dsm::kFlushBatchHeaderBytes + dsm::kFlushRecordHeaderBytes - 4;
    const std::uint32_t huge = 1u << 30;
    std::memcpy(bytes.data() + payload_len_at, &huge, 4);
    FlushBatchReader reader(bytes);
    ASSERT_TRUE(reader.header_ok());
    EXPECT_EQ(reader.next(rec), BatchReadStatus::Corrupt);
  }
}

TEST(FlushBatchTest, EmptyBatchesAreElided) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 4;
  dsm::Runtime rt(cfg, 8);

  // Nothing staged: sealing transmits nothing at all.
  rt.seal_flush_batches();
  EXPECT_EQ(rt.net().stats().total_one_way_messages(), 0u);
  EXPECT_EQ(rt.counters().flush_batches.load(), 0u);

  // One staged record: exactly one FlushBatch, only between that pair, and
  // the delivery callback sees the staged diff back.
  const Diff d = random_diff(31, 2);
  int delivered = 0;
  rt.stage_flush(nid(1), nid(2), pid(3), nid(1), d, /*reliable=*/false,
                 [&](const FlushRecordView& rec) {
                   ++delivered;
                   expect_matches(rec, pid(3), nid(1), rt.epoch(), d);
                 });
  EXPECT_EQ(rt.net().stats().total_one_way_messages(), 0u)
      << "staging must not transmit";
  rt.seal_flush_batches();
  EXPECT_EQ(delivered, 1);
  const auto& stats = rt.net().stats();
  EXPECT_EQ(stats.of(sim::MsgKind::FlushBatch).count, 1u);
  EXPECT_EQ(stats.of(sim::MsgKind::FlushBatch).records, 1u);
  EXPECT_EQ(stats.of(sim::MsgKind::Flush).count, 0u);
  EXPECT_EQ(rt.counters().flush_batches.load(), 1u);
  EXPECT_EQ(rt.counters().flush_batch_records.load(), 1u);
  EXPECT_EQ(rt.counters().flush_batch_records_min.load(), 1u);
  EXPECT_EQ(rt.counters().flush_batch_records_max.load(), 1u);
  EXPECT_EQ(rt.counters().flush_batch_header_bytes_saved.load(), 0u)
      << "a 1-record batch saves no headers";

  // Sealing again without new staging is a no-op (buffers were reset).
  rt.seal_flush_batches();
  EXPECT_EQ(stats.of(sim::MsgKind::FlushBatch).count, 1u);
}

TEST(FlushBatchTest, BatchCostAccountingMatchesWireLayout) {
  dsm::ClusterConfig cfg;
  cfg.num_nodes = 2;
  dsm::Runtime rt(cfg, 8);
  const Diff a = random_diff(41, 2);
  const Diff b = random_diff(42, 5);
  rt.stage_flush(nid(0), nid(1), pid(0), nid(0), a, false, {});
  rt.stage_flush(nid(0), nid(1), pid(1), nid(0), b, false, {});
  rt.seal_flush_batches();

  auto padded = [](std::uint64_t n) { return (n + 3) & ~std::uint64_t{3}; };
  const std::uint64_t body =
      2 * dsm::kFlushRecordHeaderBytes +
      a.run_count() * sizeof(mem::DiffRun) + padded(a.payload_bytes()) +
      b.run_count() * sizeof(mem::DiffRun) + padded(b.payload_bytes());
  const auto& counter = rt.net().stats().of(sim::MsgKind::FlushBatch);
  EXPECT_EQ(counter.count, 1u);
  EXPECT_EQ(counter.records, 2u);
  EXPECT_EQ(counter.bytes, dsm::kFlushBatchHeaderBytes + body +
                               cfg.costs.net.header_bytes)
      << "one wire header per batch, all record framing counted as payload";
  EXPECT_EQ(rt.counters().flush_batch_header_bytes_saved.load(),
            cfg.costs.net.header_bytes)
      << "two records in one message save exactly one header";
  EXPECT_EQ(rt.counters().flush_batch_records_min.load(), 2u);
  EXPECT_EQ(rt.counters().flush_batch_records_max.load(), 2u);
}

}  // namespace
}  // namespace updsm
