// Unit tests for the sim/ layer: virtual clocks, the calibrated cost model
// (paper §3.2 micro-benchmarks), the OS stress model and the network.
#include <gtest/gtest.h>

#include "updsm/sim/clock.hpp"
#include "updsm/sim/cost_model.hpp"
#include "updsm/sim/network.hpp"
#include "updsm/sim/os_model.hpp"

namespace updsm::sim {
namespace {

// --- VirtualClock -----------------------------------------------------------

TEST(ClockTest, AdvanceAccumulatesByCategory) {
  VirtualClock clock;
  clock.advance(TimeCat::App, usec(10));
  clock.advance(TimeCat::Os, usec(5));
  clock.advance(TimeCat::App, usec(2));
  EXPECT_EQ(clock.now(), usec(17));
  EXPECT_EQ(clock.in(TimeCat::App), usec(12));
  EXPECT_EQ(clock.in(TimeCat::Os), usec(5));
  EXPECT_EQ(clock.in(TimeCat::Wait), 0);
}

TEST(ClockTest, AdvanceToOnlyMovesForward) {
  VirtualClock clock;
  clock.advance(TimeCat::App, usec(100));
  clock.advance_to(TimeCat::Wait, usec(50));  // in the past: no-op
  EXPECT_EQ(clock.now(), usec(100));
  EXPECT_EQ(clock.in(TimeCat::Wait), 0);
  clock.advance_to(TimeCat::Wait, usec(130));
  EXPECT_EQ(clock.now(), usec(130));
  EXPECT_EQ(clock.in(TimeCat::Wait), usec(30));
}

TEST(ClockTest, NegativeAdvanceIsABug) {
  VirtualClock clock;
  EXPECT_THROW(clock.advance(TimeCat::App, -1), InternalError);
}

TEST(ClockTest, ResetBreakdownKeepsAbsoluteTime) {
  VirtualClock clock;
  clock.advance(TimeCat::App, usec(42));
  clock.reset_breakdown();
  EXPECT_EQ(clock.now(), usec(42));
  EXPECT_EQ(clock.in(TimeCat::App), 0);
}

// --- CostModel calibration (paper section 3.2) -------------------------------

TEST(CostModelTest, RpcRoundTripNear160us) {
  const CostModel model = CostModel::sp2_defaults();
  const double us = to_usec(model.rpc_roundtrip());
  EXPECT_NEAR(us, 160.0, 10.0) << "paper: simple RPCs require 160 usecs";
}

TEST(CostModelTest, RemoteFaultCompositeNear939us) {
  // Recompose the bar-style remote page fault from its parts, exactly as
  // the protocol charges it: segv + request/reply round trip carrying a
  // whole 8 KB page + install copy + fault-path VM extra + mprotect.
  const CostModel m = CostModel::sp2_defaults();
  const std::uint32_t page = 8192;
  const SimTime serve = static_cast<SimTime>(m.dsm.copy_per_byte_ns * page);
  const SimTime roundtrip = m.net.send_trap + m.net.wire_time(16) +
                            m.net.recv_trap + m.dsm.handler_fixed + serve +
                            m.net.send_trap + m.net.wire_time(page + 32) +
                            m.net.recv_trap;
  const SimTime install = static_cast<SimTime>(m.dsm.copy_per_byte_ns * page);
  const SimTime total = m.os.segv + roundtrip + install +
                        m.os.fault_service_extra + m.os.mprotect_base;
  EXPECT_NEAR(to_usec(total), 939.0, 80.0)
      << "paper: remote page faults require 939 usecs";
}

TEST(CostModelTest, BandwidthNear40MBps) {
  const CostModel m = CostModel::sp2_defaults();
  // 0.025 us per byte == 40 MB/s sustained payload rate.
  const SimTime one_mb = m.net.wire_time(1 << 20) - m.net.wire_time(0);
  const double mb_per_s = 1.0 / to_sec(one_mb);
  EXPECT_NEAR(mb_per_s, 40.0, 2.0);
}

// --- OsModel ------------------------------------------------------------------

TEST(OsModelTest, SmallAddressSpacesAreNotStressed) {
  const OsCosts costs;
  OsModel os(costs, /*shared_pages=*/16);
  EXPECT_FALSE(os.stressed());
  for (std::uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(os.mprotect_cost(PageId{p}), costs.mprotect_base);
  }
}

TEST(OsModelTest, StressIsLocationDependentAndDeterministic) {
  const OsCosts costs;
  OsModel a(costs, /*shared_pages=*/512);
  OsModel b(costs, /*shared_pages=*/512);
  ASSERT_TRUE(a.stressed());
  int slow = 0;
  for (std::uint32_t p = 0; p < 512; ++p) {
    EXPECT_EQ(a.slow_page(PageId{p}), b.slow_page(PageId{p}))
        << "slow set must be deterministic";
    if (a.slow_page(PageId{p})) {
      ++slow;
      EXPECT_EQ(a.mprotect_cost(PageId{p}),
                static_cast<SimTime>(costs.mprotect_base *
                                     costs.stress_multiplier));
    }
  }
  // ~slow_page_fraction of pages should be slow (paper: "occasionally an
  // order of magnitude").
  EXPECT_NEAR(static_cast<double>(slow) / 512.0, costs.slow_page_fraction,
              0.08);
}

TEST(OsModelTest, CountsEvents) {
  OsModel os(OsCosts{}, 16);
  (void)os.segv_cost();
  (void)os.segv_cost();
  (void)os.mprotect_cost(PageId{0});
  os.count_send();
  EXPECT_EQ(os.counters().segvs, 2u);
  EXPECT_EQ(os.counters().mprotects, 1u);
  EXPECT_EQ(os.counters().sends, 1u);
}

// --- Network -------------------------------------------------------------------

TEST(NetworkTest, RecordsByKindAndComputesWireTime) {
  Network net(NetworkCosts{});
  const SimTime t1 = net.record(MsgKind::DataRequest, NodeId{0}, NodeId{1}, 16);
  const SimTime t2 =
      net.record(MsgKind::DataReply, NodeId{1}, NodeId{0}, 8192);
  EXPECT_GT(t2, t1);  // payload costs wire time
  EXPECT_EQ(net.stats().of(MsgKind::DataRequest).count, 1u);
  EXPECT_EQ(net.stats().of(MsgKind::DataReply).count, 1u);
  EXPECT_GT(net.stats().of(MsgKind::DataReply).bytes, 8192u);
}

TEST(NetworkTest, SelfSendsAreFreeAndUnrecorded) {
  Network net(NetworkCosts{});
  EXPECT_EQ(net.record(MsgKind::Flush, NodeId{2}, NodeId{2}, 4096), 0);
  EXPECT_EQ(net.stats().total_one_way_messages(), 0u);
}

TEST(NetworkTest, TableMessagesExcludeReplies) {
  Network net(NetworkCosts{});
  (void)net.record(MsgKind::DataRequest, NodeId{0}, NodeId{1}, 16);
  (void)net.record(MsgKind::DataReply, NodeId{1}, NodeId{0}, 100);
  (void)net.record(MsgKind::Flush, NodeId{0}, NodeId{2}, 64);
  (void)net.record(MsgKind::SyncArrive, NodeId{1}, NodeId{0}, 8);
  (void)net.record(MsgKind::SyncRelease, NodeId{0}, NodeId{1}, 8);
  EXPECT_EQ(net.stats().table_messages(), 4u);
  EXPECT_EQ(net.stats().total_one_way_messages(), 5u);
}

TEST(NetworkTest, ResetClearsStats) {
  Network net(NetworkCosts{});
  (void)net.record(MsgKind::Flush, NodeId{0}, NodeId{1}, 10);
  net.reset_stats();
  EXPECT_EQ(net.stats().total_one_way_messages(), 0u);
  EXPECT_EQ(net.stats().total_bytes(), 0u);
}

}  // namespace
}  // namespace updsm::sim
