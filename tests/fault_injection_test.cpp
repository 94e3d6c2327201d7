// FaultPlan unit tests: the injected schedule must be a pure function of
// (seed, spec, traffic), rules must target exactly what their filters say,
// and the text form must parse into exactly the rules it spells -- these
// three properties are what make a fault plan a *reproducible* adversary
// rather than noise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "updsm/common/error.hpp"
#include "updsm/sim/fault_plan.hpp"

namespace updsm {
namespace {

using sim::FaultDecision;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::MsgKind;

constexpr int kNodes = 4;

NodeId nid(int v) { return NodeId{static_cast<std::uint32_t>(v)}; }

/// Drains `count` decisions for every (kind, from, to) triple and flattens
/// them into one comparable schedule.
std::vector<FaultDecision> schedule(FaultPlan& plan, int count) {
  std::vector<FaultDecision> out;
  for (int k = 0; k < static_cast<int>(sim::kMsgKindCount); ++k) {
    for (int f = 0; f < kNodes; ++f) {
      for (int t = 0; t < kNodes; ++t) {
        if (f == t) continue;
        for (int i = 0; i < count; ++i) {
          out.push_back(plan.next(static_cast<MsgKind>(k), nid(f),
                                  nid(t)));
        }
      }
    }
  }
  return out;
}

bool same(const FaultDecision& a, const FaultDecision& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.extra_delay == b.extra_delay;
}

TEST(FaultPlanTest, SameSeedSameSchedule) {
  const FaultSpec spec = FaultSpec::parse("drop=0.2,dup=0.1,delay=0.15");
  FaultPlan a(spec, 42, kNodes);
  FaultPlan b(spec, 42, kNodes);
  const auto sa = schedule(a, 64);
  const auto sb = schedule(b, 64);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(same(sa[i], sb[i])) << "decision " << i << " diverged";
  }
}

TEST(FaultPlanTest, DifferentSeedDifferentSchedule) {
  const FaultSpec spec = FaultSpec::parse("drop=0.2");
  FaultPlan a(spec, 1, kNodes);
  FaultPlan b(spec, 2, kNodes);
  const auto sa = schedule(a, 64);
  const auto sb = schedule(b, 64);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) any_diff |= !same(sa[i], sb[i]);
  EXPECT_TRUE(any_diff);
}

// The k-th decision of a triple depends only on (seed, spec, triple, k):
// interleaving traffic from other triples must not perturb it.
TEST(FaultPlanTest, TriplesAreIndependentStreams) {
  const FaultSpec spec = FaultSpec::parse("drop=0.3,dup=0.2");
  FaultPlan isolated(spec, 7, kNodes);
  std::vector<FaultDecision> alone;
  for (int i = 0; i < 32; ++i) {
    alone.push_back(isolated.next(MsgKind::DataRequest, nid(0), nid(1)));
  }
  FaultPlan noisy(spec, 7, kNodes);
  std::vector<FaultDecision> interleaved;
  for (int i = 0; i < 32; ++i) {
    (void)noisy.next(MsgKind::Flush, nid(2), nid(3));
    (void)noisy.next(MsgKind::DataRequest, nid(1), nid(0));
    interleaved.push_back(noisy.next(MsgKind::DataRequest, nid(0),
                                     nid(1)));
    (void)noisy.next(MsgKind::Control, nid(0), nid(1));
  }
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_TRUE(same(alone[i], interleaved[i])) << "draw " << i;
  }
}

TEST(FaultPlanTest, KindFilterTargetsOnlyThatKind) {
  FaultPlan plan(FaultSpec::parse("kind=flush,drop=1"), 3, kNodes);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(plan.next(MsgKind::Flush, nid(0), nid(1)).drop);
    EXPECT_FALSE(plan.next(MsgKind::DataRequest, nid(0), nid(1)).drop);
    EXPECT_FALSE(plan.next(MsgKind::SyncArrive, nid(1), nid(0)).drop);
  }
}

TEST(FaultPlanTest, PairFilterTargetsOnlyThatPair) {
  FaultPlan plan(FaultSpec::parse("from=0,to=1,drop=1"), 3, kNodes);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(plan.next(MsgKind::DataRequest, nid(0), nid(1)).drop);
    EXPECT_FALSE(plan.next(MsgKind::DataRequest, nid(1), nid(0)).drop);
    EXPECT_FALSE(plan.next(MsgKind::DataRequest, nid(0), nid(2)).drop);
  }
}

TEST(FaultPlanTest, FirstMatchingRuleWins) {
  // Rule 1 exempts flushes; rule 2 drops everything else.
  FaultPlan plan(FaultSpec::parse("kind=flush,drop=0;drop=1"), 3, kNodes);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(plan.next(MsgKind::Flush, nid(0), nid(1)).drop);
    EXPECT_TRUE(plan.next(MsgKind::DataReply, nid(0), nid(1)).drop);
  }
}

TEST(FaultPlanTest, DropRateIsApproximatelyHonoured) {
  FaultPlan plan(FaultSpec::parse("drop=0.25"), 99, kNodes);
  int drops = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    drops += plan.next(MsgKind::DataRequest, nid(0), nid(1)).drop;
  }
  EXPECT_GT(drops, n / 4 - n / 20);
  EXPECT_LT(drops, n / 4 + n / 20);
}

TEST(FaultPlanTest, DelayUsesConfiguredTime) {
  FaultPlan plan(FaultSpec::parse("delay=1,delay_us=350"), 5, kNodes);
  const FaultDecision d = plan.next(MsgKind::DataReply, nid(2), nid(0));
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.extra_delay, sim::usec(350));
}

TEST(FaultPlanTest, StallIsStatelessAndTargeted) {
  FaultPlan plan(FaultSpec::parse("node=2,stall=1,stall_us=700"), 11, kNodes);
  // Stateless: repeated queries of the same (node, barrier) agree.
  const sim::SimTime s = plan.stall(nid(2), 5);
  EXPECT_EQ(s, sim::usec(700));
  EXPECT_EQ(plan.stall(nid(2), 5), s);
  // Node filter: other nodes never stall.
  for (std::uint64_t b = 0; b < 32; ++b) {
    EXPECT_EQ(plan.stall(nid(0), b), 0);
    EXPECT_EQ(plan.stall(nid(3), b), 0);
  }
}

TEST(FaultPlanTest, StallProbabilityVariesByBarrier) {
  FaultPlan plan(FaultSpec::parse("stall=0.5,stall_us=100"), 13, kNodes);
  int stalled = 0;
  for (std::uint64_t b = 0; b < 200; ++b) {
    stalled += plan.stall(nid(1), b) > 0;
  }
  EXPECT_GT(stalled, 50);
  EXPECT_LT(stalled, 150);
}

TEST(FaultSpecTest, ParseReadsEveryField) {
  const FaultSpec flush = FaultSpec::parse("kind=flush,drop=0.25,dup=0.5");
  ASSERT_EQ(flush.rules.size(), 1u);
  EXPECT_EQ(flush.rules[0].kind, static_cast<int>(MsgKind::Flush));
  EXPECT_EQ(flush.rules[0].from, -1);
  EXPECT_EQ(flush.rules[0].drop, 0.25);
  EXPECT_EQ(flush.rules[0].dup, 0.5);
  EXPECT_EQ(flush.rules[0].delay, 0.0);

  const FaultSpec pair = FaultSpec::parse(
      "kind=data-request,from=0,to=3,delay=0.125,delay_us=250");
  ASSERT_EQ(pair.rules.size(), 1u);
  EXPECT_EQ(pair.rules[0].kind, static_cast<int>(MsgKind::DataRequest));
  EXPECT_EQ(pair.rules[0].from, 0);
  EXPECT_EQ(pair.rules[0].to, 3);
  EXPECT_EQ(pair.rules[0].delay, 0.125);
  EXPECT_EQ(pair.rules[0].delay_time, sim::usec(250));

  const FaultSpec stall = FaultSpec::parse("node=1,stall=0.0625,stall_us=900");
  ASSERT_EQ(stall.rules.size(), 1u);
  EXPECT_EQ(stall.rules[0].kind, -1);
  EXPECT_EQ(stall.rules[0].to, 1);
  EXPECT_EQ(stall.rules[0].stall, 0.0625);
  EXPECT_EQ(stall.rules[0].stall_time, sim::usec(900));
  EXPECT_EQ(stall.rules[0].drop, 0.0);

  const FaultSpec three = FaultSpec::parse(
      "kind=sync-arrive,drop=0.1;kind=sync-release,dup=0.2;drop=0.05");
  ASSERT_EQ(three.rules.size(), 3u);
  EXPECT_EQ(three.rules[0].kind, static_cast<int>(MsgKind::SyncArrive));
  EXPECT_EQ(three.rules[0].drop, 0.1);
  EXPECT_EQ(three.rules[1].kind, static_cast<int>(MsgKind::SyncRelease));
  EXPECT_EQ(three.rules[1].dup, 0.2);
  EXPECT_EQ(three.rules[1].drop, 0.0);
  EXPECT_EQ(three.rules[2].kind, -1);
  EXPECT_EQ(three.rules[2].drop, 0.05);
}

TEST(FaultSpecTest, ParseAcceptsWildcardsAndWhitespace) {
  const FaultSpec spec =
      FaultSpec::parse(" kind=* , from=* , drop=0.5 ;\n to=2 , dup=1 ");
  ASSERT_EQ(spec.rules.size(), 2u);
  EXPECT_EQ(spec.rules[0].kind, -1);
  EXPECT_EQ(spec.rules[0].from, -1);
  EXPECT_EQ(spec.rules[0].drop, 0.5);
  EXPECT_EQ(spec.rules[1].to, 2);
  EXPECT_EQ(spec.rules[1].dup, 1.0);
}

TEST(FaultSpecTest, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)FaultSpec::parse("bogus=1"), UsageError);
  EXPECT_THROW((void)FaultSpec::parse("drop=1.5"), UsageError);
  EXPECT_THROW((void)FaultSpec::parse("drop=-0.1"), UsageError);
  EXPECT_THROW((void)FaultSpec::parse("kind=warp,drop=0.1"), UsageError);
  EXPECT_THROW((void)FaultSpec::parse("drop=abc"), UsageError);
  EXPECT_THROW((void)FaultSpec::parse("from=x,drop=0.1"), UsageError);
}

}  // namespace
}  // namespace updsm
