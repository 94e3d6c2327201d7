#include "updsm/dsm/flush_batch.hpp"

#include <algorithm>

#include "updsm/common/error.hpp"

namespace updsm::dsm {
namespace {

constexpr std::size_t pad4(std::size_t n) { return (n + 3u) & ~std::size_t{3}; }

void put_u32(std::vector<std::byte>& buf, std::uint32_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + 4);
  std::memcpy(buf.data() + at, &v, 4);
}

void put_u64(std::vector<std::byte>& buf, std::uint64_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + 8);
  std::memcpy(buf.data() + at, &v, 8);
}

std::uint32_t get_u32(std::span<const std::byte> bytes, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, 4);
  return v;
}

std::uint64_t get_u64(std::span<const std::byte> bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, 8);
  return v;
}

}  // namespace

void FlushRecordView::apply(std::span<std::byte> dst) const {
  std::size_t src = 0;
  for (const mem::DiffRun& run : runs) {
    UPDSM_CHECK(run.offset + run.length <= dst.size());
    std::memcpy(dst.data() + run.offset, payload.data() + src, run.length);
    src += run.length;
  }
}

void FlushBatchWriter::begin(NodeId sender) {
  UPDSM_CHECK(buf_.empty());
  put_u32(buf_, kFlushBatchMagic);
  put_u32(buf_, sender.value());
  put_u32(buf_, 0);  // record_count, patched by seal()
  put_u32(buf_, 0);  // body_bytes, patched by seal()
}

void FlushBatchWriter::add(PageId page, NodeId creator, EpochId epoch,
                           const mem::Diff& diff) {
  UPDSM_CHECK(!buf_.empty());  // begin() first
  // Grow once per record, not once per field: staging runs on the gang
  // workers, where every reallocation lands in a per-thread malloc arena.
  const std::size_t need =
      buf_.size() + kFlushRecordHeaderBytes +
      diff.run_count() * sizeof(mem::DiffRun) + pad4(diff.payload().size());
  if (need > buf_.capacity()) {
    buf_.reserve(std::max(need, 2 * buf_.capacity()));
  }
  put_u32(buf_, page.value());
  put_u32(buf_, creator.value());
  put_u64(buf_, epoch.value());
  put_u32(buf_, static_cast<std::uint32_t>(diff.run_count()));
  const auto payload = diff.payload();
  put_u32(buf_, static_cast<std::uint32_t>(payload.size()));
  const auto runs = diff.runs();
  const auto* run_bytes = reinterpret_cast<const std::byte*>(runs.data());
  buf_.insert(buf_.end(), run_bytes,
              run_bytes + runs.size() * sizeof(mem::DiffRun));
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  buf_.resize(pad4(buf_.size()));  // zero-pads to the next 4 B boundary
  ++records_;
}

void FlushBatchWriter::seal() {
  UPDSM_CHECK(buf_.size() >= kFlushBatchHeaderBytes);
  const std::uint32_t body =
      static_cast<std::uint32_t>(buf_.size() - kFlushBatchHeaderBytes);
  std::memcpy(buf_.data() + 8, &records_, 4);
  std::memcpy(buf_.data() + 12, &body, 4);
}

FlushBatchReader::FlushBatchReader(std::span<const std::byte> bytes)
    : bytes_(bytes) {
  if (bytes.size() < kFlushBatchHeaderBytes) return;
  if (get_u32(bytes, 0) != kFlushBatchMagic) return;
  sender_ = NodeId{get_u32(bytes, 4)};
  record_count_ = get_u32(bytes, 8);
  const std::uint32_t body = get_u32(bytes, 12);
  if (kFlushBatchHeaderBytes + static_cast<std::size_t>(body) > bytes.size())
    return;
  // Trim trailing junk so record parsing sees exactly the declared body.
  bytes_ = bytes.first(kFlushBatchHeaderBytes + body);
  pos_ = kFlushBatchHeaderBytes;
  header_ok_ = true;
}

BatchReadStatus FlushBatchReader::next(FlushRecordView& out) {
  if (!header_ok_) return BatchReadStatus::Corrupt;
  if (seen_ == record_count_) {
    return pos_ == bytes_.size() ? BatchReadStatus::End
                                 : BatchReadStatus::Corrupt;
  }
  if (bytes_.size() - pos_ < kFlushRecordHeaderBytes)
    return BatchReadStatus::Corrupt;
  out.page = PageId{get_u32(bytes_, pos_)};
  out.creator = NodeId{get_u32(bytes_, pos_ + 4)};
  out.epoch = EpochId{get_u64(bytes_, pos_ + 8)};
  const std::uint32_t run_count = get_u32(bytes_, pos_ + 16);
  const std::uint32_t payload_len = get_u32(bytes_, pos_ + 20);
  pos_ += kFlushRecordHeaderBytes;
  const std::size_t run_bytes =
      static_cast<std::size_t>(run_count) * sizeof(mem::DiffRun);
  const std::size_t body = run_bytes + pad4(payload_len);
  if (bytes_.size() - pos_ < body) return BatchReadStatus::Corrupt;
  // In-place view: record offsets are all multiples of 4 and the buffer
  // base is allocator-aligned, so the cast is well-aligned for DiffRun.
  out.runs = {reinterpret_cast<const mem::DiffRun*>(bytes_.data() + pos_),
              run_count};
  out.payload = bytes_.subspan(pos_ + run_bytes, payload_len);
  std::uint64_t total = 0;
  for (const mem::DiffRun& r : out.runs) total += r.length;
  if (total != payload_len) return BatchReadStatus::Corrupt;
  pos_ += body;
  ++seen_;
  return BatchReadStatus::Record;
}

}  // namespace updsm::dsm
