// Tests for Runtime's cost-charging helpers: every protocol cost flows
// through these, so their attribution (who pays, which category) is pinned
// here against hand-computed values.
#include <gtest/gtest.h>

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
