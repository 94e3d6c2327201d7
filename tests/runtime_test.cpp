// Tests for Runtime's cost-charging helpers: every protocol cost flows
// through these, so their attribution (who pays, which category) is pinned
// here against hand-computed values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "updsm/dsm/flush_batch.hpp"
#include "updsm/dsm/runtime.hpp"
#include "updsm/dsm/write_notice.hpp"

namespace updsm::dsm {
namespace {

using sim::MsgKind;
using sim::SimTime;
using sim::TimeCat;

ClusterConfig tiny_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.page_size = 1024;
  return cfg;
}

TEST(RuntimeTest, MprotectChargesOsAndCounts) {
  Runtime rt(tiny_config(), 8);
  const NodeId n{1};
  rt.mprotect(n, PageId{3}, mem::Protect::ReadWrite);
  EXPECT_EQ(rt.table(n).prot(PageId{3}), mem::Protect::ReadWrite);
  EXPECT_EQ(rt.os(n).counters().mprotects, 1u);
  EXPECT_EQ(rt.clock(n).in(TimeCat::Os), rt.costs().os.mprotect_base)
      << "8-page segment: unstressed, nominal cost";
  EXPECT_EQ(rt.clock(n).in(TimeCat::App), 0);

  rt.mprotect(n, PageId{4}, mem::Protect::None, /*sigio=*/true);
  EXPECT_GT(rt.clock(n).in(TimeCat::Sigio), 0);
}

TEST(RuntimeTest, RoundtripAttributionIsExact) {
  Runtime rt(tiny_config(), 8);
  const NodeId requester{0};
  const NodeId responder{2};
  const auto& net = rt.costs().net;
  const SimTime work = sim::usec(50);
  rt.roundtrip(requester, responder, MsgKind::DataRequest, 16, 1024, work);

  // Requester: two traps (Os) + the full latency (Wait).
  EXPECT_EQ(rt.clock(requester).in(TimeCat::Os),
            net.send_trap + net.recv_trap);
  const SimTime service = net.recv_trap + rt.costs().dsm.handler_fixed +
                          work + net.send_trap;
  EXPECT_EQ(rt.clock(requester).in(TimeCat::Wait),
            net.wire_time(16) + service + net.wire_time(1024));
  // Responder: everything in interrupt context.
  EXPECT_EQ(rt.clock(responder).in(TimeCat::Sigio), service);
  EXPECT_EQ(rt.clock(responder).in(TimeCat::Os), 0);
  // Stats: one request, one reply.
  EXPECT_EQ(rt.net().stats().of(MsgKind::DataRequest).count, 1u);
  EXPECT_EQ(rt.net().stats().of(MsgKind::DataReply).count, 1u);
}

TEST(RuntimeTest, FlushChargesSenderAndReceiver) {
  Runtime rt(tiny_config(), 8);
  const NodeId from{0};
  const NodeId to{3};
  ASSERT_TRUE(rt.flush(from, to, 512));
  EXPECT_EQ(rt.clock(from).in(TimeCat::Os), rt.costs().net.send_trap);
  EXPECT_EQ(rt.clock(to).in(TimeCat::Sigio), rt.costs().net.recv_trap);
  EXPECT_EQ(rt.clock(to).in(TimeCat::Wait), 0)
      << "flushes are one-way: nobody waits";
  EXPECT_EQ(rt.net().stats().of(MsgKind::Flush).count, 1u);
}

TEST(RuntimeTest, DroppedFlushChargesSenderOnly) {
  ClusterConfig cfg = tiny_config();
  cfg.faults = sim::FaultSpec::parse("kind=flush,drop=1");  // drop every flush
  Runtime rt(cfg, 8);
  ASSERT_FALSE(rt.flush(NodeId{0}, NodeId{1}, 512));
  EXPECT_EQ(rt.clock(NodeId{0}).in(TimeCat::Os), rt.costs().net.send_trap);
  EXPECT_EQ(rt.clock(NodeId{1}).in(TimeCat::Sigio), 0)
      << "a dropped message never reaches the receiver";
  EXPECT_EQ(rt.net().stats().of(MsgKind::Flush).count, 1u);
  EXPECT_EQ(rt.net().stats().of(MsgKind::Flush).dropped, 1u);
  EXPECT_EQ(rt.counters().reliable_retries.load(), 0u)
      << "fire-and-forget: a lost flush is never retransmitted";
}

TEST(RuntimeTest, ChargeDsmScalesPerByte) {
  Runtime rt(tiny_config(), 8);
  rt.charge_dsm(NodeId{0}, sim::usec(4), 6.0, 1000);
  EXPECT_EQ(rt.clock(NodeId{0}).in(TimeCat::Dsm),
            sim::usec(4) + static_cast<SimTime>(6.0 * 1000));
}

TEST(RuntimeTest, PayloadAccumulatorsAreTakeOnce) {
  Runtime rt(tiny_config(), 8);
  rt.add_arrival_payload(NodeId{1}, 100);
  rt.add_arrival_payload(NodeId{1}, 28);
  EXPECT_EQ(rt.take_arrival_payload(NodeId{1}), 128u);
  EXPECT_EQ(rt.take_arrival_payload(NodeId{1}), 0u);
  rt.add_release_payload(NodeId{2}, 64);
  EXPECT_EQ(rt.take_release_payload(NodeId{2}), 64u);
}

TEST(RuntimeTest, EpochAdvances) {
  Runtime rt(tiny_config(), 8);
  EXPECT_EQ(rt.epoch(), EpochId{0});
  rt.advance_epoch();
  rt.advance_epoch();
  EXPECT_EQ(rt.epoch(), EpochId{2});
}

TEST(RuntimeTest, SelfRoundtripIsABug) {
  Runtime rt(tiny_config(), 8);
  EXPECT_THROW(rt.roundtrip(NodeId{1}, NodeId{1}, MsgKind::DataRequest, 0,
                            0, 0),
               InternalError);
  EXPECT_THROW((void)rt.flush(NodeId{2}, NodeId{2}, 8), InternalError);
}

TEST(RuntimeTest, RejectsAbsurdClusterSizes) {
  ClusterConfig cfg = tiny_config();
  cfg.num_nodes = 0;
  EXPECT_THROW(Runtime(cfg, 8), UsageError);
  cfg.num_nodes = static_cast<int>(dsm::kMaxNodes) + 1;  // over the bitmap
  EXPECT_THROW(Runtime(cfg, 8), UsageError);
  cfg.num_nodes = 8;
  cfg.barrier_fanout = 1;  // a 1-ary tree is a degenerate chain: rejected
  EXPECT_THROW(Runtime(cfg, 8), UsageError);
  cfg.barrier_fanout = 0;
  cfg.relay_fanout = 1;
  EXPECT_THROW(Runtime(cfg, 8), UsageError);
}

TEST(RuntimeTest, ScrambledStagingSealsInSenderDestinationOrder) {
  // Six nodes on two workers: senders 0 and 1 share worker 0's destination
  // hints (and are staged interleaved), sender 4 belongs to worker 1.
  ClusterConfig cfg = tiny_config();
  cfg.num_nodes = 6;
  cfg.workers = 2;
  cfg.trace = true;
  Runtime rt(cfg, 8);
  ASSERT_EQ(rt.workers(), 2);

  struct Rec {
    std::uint32_t from, to, page;
  };
  // A distinct small diff per record.
  const auto diff_of = [&](const Rec& r) {
    std::vector<std::byte> twin(cfg.page_size, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[8 * r.page] = static_cast<std::byte>(r.from + 1);
    cur[8 * r.page + 1 + r.to] = static_cast<std::byte>(r.to + 1);
    return mem::Diff::create(twin, cur);
  };
  const auto tag = [](const Rec& r) {
    return std::to_string(r.from) + ">" + std::to_string(r.to) + " p" +
           std::to_string(r.page);
  };
  const auto barrier = [&](const std::vector<Rec>& stage_order) {
    const std::size_t first_line = rt.trace()->size();
    std::vector<std::string> delivered;
    for (const Rec& r : stage_order) {
      const mem::Diff diff = diff_of(r);
      rt.stage_flush(
          NodeId{r.from}, NodeId{r.to}, PageId{r.page}, NodeId{r.from}, diff,
          /*reliable=*/false,
          [&, r, diff](const FlushRecordView& rec) {
            EXPECT_EQ(rec.page, PageId{r.page});
            EXPECT_EQ(rec.creator, NodeId{r.from});
            EXPECT_EQ(rec.epoch, rt.epoch());
            EXPECT_EQ(rec.diff_wire_bytes(), diff.wire_bytes());
            EXPECT_EQ(std::memcmp(rec.payload.data(), diff.payload().data(),
                                  diff.payload().size()),
                      0);
            delivered.push_back(tag(r));
          });
    }
    rt.seal_flush_batches();

    // Expected: batches in (sender, destination) order, records in stage
    // order inside each batch, each sealed exactly as a fresh writer would.
    std::vector<Rec> sorted = stage_order;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Rec& a, const Rec& b) {
                       return a.from != b.from ? a.from < b.from : a.to < b.to;
                     });
    std::vector<std::string> want_delivered;
    std::vector<std::string> want_lines;
    for (std::size_t i = 0; i < sorted.size();) {
      FlushBatchWriter writer;
      writer.begin(NodeId{sorted[i].from});
      std::size_t j = i;
      for (; j < sorted.size() && sorted[j].from == sorted[i].from &&
             sorted[j].to == sorted[i].to;
           ++j) {
        writer.add(PageId{sorted[j].page}, NodeId{sorted[j].from}, rt.epoch(),
                   diff_of(sorted[j]));
        want_delivered.push_back(tag(sorted[j]));
      }
      writer.seal();
      want_lines.push_back("flushbatch n" + std::to_string(sorted[i].from) +
                           ">n" + std::to_string(sorted[i].to) + " " +
                           std::to_string(j - i) + "r " +
                           std::to_string(writer.bytes().size()) + "B");
      i = j;
    }
    EXPECT_EQ(delivered, want_delivered);
    const auto& lines = rt.trace()->lines();
    EXPECT_EQ(std::vector<std::string>(
                  lines.begin() + static_cast<std::ptrdiff_t>(first_line),
                  lines.end()),
              want_lines);
    rt.advance_epoch();
  };

  barrier({{1, 3, 0}, {0, 5, 1}, {4, 0, 2}, {0, 2, 3}, {1, 0, 4},
           {0, 5, 5}, {4, 1, 6}, {1, 3, 7}, {0, 2, 0}, {4, 0, 1}});
  // A later barrier reuses 0>5 and 1>3, opens 0>1 and 1>2, and stages
  // them in yet another interleaving.
  barrier({{0, 1, 2}, {1, 3, 3}, {0, 5, 4}, {1, 2, 5}, {0, 5, 6},
           {1, 3, 0}, {0, 1, 7}});
  EXPECT_EQ(rt.counters().flush_batches.load(), 10u);
}

TEST(RuntimeTest, FanOutNeedsAGang) {
  Runtime rt(tiny_config(), 8);
  EXPECT_THROW(rt.for_each_node([](NodeId) {}), UsageError);
}

TEST(WriteNoticeTest, OrderIsEpochThenCreator) {
  const WriteNotice a{PageId{5}, NodeId{2}, EpochId{1}};
  const WriteNotice b{PageId{5}, NodeId{0}, EpochId{2}};
  const WriteNotice c{PageId{5}, NodeId{1}, EpochId{2}};
  WriteNoticeOrder less;
  EXPECT_TRUE(less(a, b));  // older epoch first, regardless of creator
  EXPECT_TRUE(less(b, c));  // same epoch: creator order
  EXPECT_FALSE(less(c, b));
  NoticeList list{c, a, b};
  std::sort(list.begin(), list.end(), less);
  EXPECT_EQ(list[0], a);
  EXPECT_EQ(list[1], b);
  EXPECT_EQ(list[2], c);
}

}  // namespace
}  // namespace updsm::dsm
