// Aggregated flush wire format (barrier-time message aggregation).
//
// The paper's bar-u design hinges on "all diffs destined for a single node
// are aggregated into a single message" at the barrier. This module is that
// message: protocols stage per-page diffs into one per-destination batch
// during the barrier, the runtime seals it and transmits it as a single
// MsgKind::FlushBatch, and the receiver iterates the records *in place* --
// the run table and payload are read straight out of the sealed buffer
// without an intermediate deserialized copy.
//
// Wire layout (all integers little-endian host order; the simulator never
// crosses a real byte order boundary):
//
//   BatchHeader   16 B   magic 'UFB1' | sender | record_count | body_bytes
//   Record[0..r)         each:
//     RecordHeader 24 B  page | creator | epoch (u64) | run_count | payload_len
//     run table          run_count x DiffRun {offset u32, length u32}
//     payload            payload_len bytes, zero-padded to a 4 B boundary
//
// Every offset is a multiple of 4, so the receiver can reinterpret the run
// table in place (DiffRun is two u32s); the 64-bit epoch is memcpy'd.
// body_bytes counts everything after the BatchHeader, which is also what
// the cost model charges as payload: one per_message + one trap pair + one
// 32 B network header per batch, but the full summed body (record headers
// count as payload -- the data is honest, only per-message overhead is
// amortized).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/common/types.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm::dsm {

inline constexpr std::uint32_t kFlushBatchMagic = 0x55464231;  // 'UFB1'
inline constexpr std::size_t kFlushBatchHeaderBytes = 16;
inline constexpr std::size_t kFlushRecordHeaderBytes = 24;

/// One page record viewed in place inside a sealed batch.
struct FlushRecordView {
  PageId page;
  NodeId creator;
  EpochId epoch;
  std::span<const mem::DiffRun> runs;
  std::span<const std::byte> payload;

  /// Bytes the diff alone would occupy on the wire (run table + payload);
  /// matches mem::Diff::wire_bytes() of the staged diff.
  [[nodiscard]] std::uint64_t diff_wire_bytes() const {
    return runs.size() * sizeof(mem::DiffRun) + payload.size();
  }

  /// Applies the record's runs to `dst` exactly like mem::Diff::apply.
  void apply(std::span<std::byte> dst) const;

  /// Materializes the record as a Diff (capacity of `out` is reused).
  void decode_into(mem::Diff& out) const {
    out.assign(runs, payload);
  }
};

/// Builds one per-destination batch. Records serialize at stage time (the
/// protocol recycles its diff immediately after staging), so the writer owns
/// the only copy of the bytes between barrier arrival and seal. reset()
/// keeps the buffer capacity: in steady state a run's whole aggregation
/// traffic is serialized through n*n retained buffers with no allocation.
class FlushBatchWriter {
 public:
  void begin(NodeId sender);
  void add(PageId page, NodeId creator, EpochId epoch, const mem::Diff& diff);

  /// Finalizes the header. Call exactly once, after the last add().
  void seal();

  /// The sealed wire bytes (valid until reset()).
  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }

  [[nodiscard]] std::uint32_t record_count() const { return records_; }
  [[nodiscard]] bool empty() const { return records_ == 0; }

  /// Drops the contents but keeps the allocated capacity.
  void reset() {
    buf_.clear();
    records_ = 0;
  }

  /// Installs a (pooled) backing buffer for the next begin()/add() cycle.
  /// The writer must be reset; contents of `buffer` are discarded, only
  /// its capacity matters. Pairs with release_buffer() so batch slots can
  /// borrow from a per-worker arena instead of each retaining capacity.
  void adopt_buffer(std::vector<std::byte>&& buffer) {
    UPDSM_CHECK_MSG(buf_.empty() && records_ == 0,
                    "adopt_buffer on a non-reset writer");
    buf_ = std::move(buffer);
    buf_.clear();
  }

  /// Surrenders the backing buffer (for recycling), leaving the writer
  /// reset.
  [[nodiscard]] std::vector<std::byte> release_buffer() {
    records_ = 0;
    std::vector<std::byte> out = std::move(buf_);
    buf_ = {};
    out.clear();
    return out;
  }

 private:
  std::vector<std::byte> buf_;
  std::uint32_t records_ = 0;
};

enum class BatchReadStatus {
  Record,   // a record was produced
  End,      // all record_count records consumed cleanly
  Corrupt,  // truncated or inconsistent bytes; stop
};

/// Iterates the records of a sealed batch in place.
class FlushBatchReader {
 public:
  explicit FlushBatchReader(std::span<const std::byte> bytes);

  /// False if the batch header itself is missing, has a bad magic, or
  /// declares more body bytes than are present.
  [[nodiscard]] bool header_ok() const { return header_ok_; }
  [[nodiscard]] NodeId sender() const { return sender_; }
  [[nodiscard]] std::uint32_t record_count() const { return record_count_; }

  /// Advances to the next record. Returns Record and fills `out` (spans
  /// point into the batch bytes), End after the last record, or Corrupt.
  BatchReadStatus next(FlushRecordView& out);

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  std::uint32_t record_count_ = 0;
  std::uint32_t seen_ = 0;
  NodeId sender_;
  bool header_ok_ = false;
};

}  // namespace updsm::dsm
