// Tests for the deterministic gang scheduler: strict node ordering, barrier
// callback sequencing, error propagation and misuse detection -- plus the
// parallel mode's contracts (concurrent phase admission, callback isolation,
// pool reuse, and the same misuse/error behaviour as the baton) and the
// barrier-callback fan-out (for_each_node) in every mode.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "updsm/sim/exec_context.hpp"
#include "updsm/sim/gang.hpp"

namespace updsm::sim {
namespace {

TEST(GangTest, RunsNodesInStrictOrderEveryRound) {
  Gang gang(4);
  std::vector<int> order;
  gang.run(
      [&](int node) {
        for (int round = 0; round < 3; ++round) {
          order.push_back(node);  // safe: one runnable thread at a time
          gang.barrier_wait(node);
        }
      },
      [](std::uint64_t) {});
  ASSERT_EQ(order.size(), 12u);
  for (int round = 0; round < 3; ++round) {
    for (int node = 0; node < 4; ++node) {
      EXPECT_EQ(order[static_cast<std::size_t>(round * 4 + node)], node);
    }
  }
  EXPECT_EQ(gang.barriers_completed(), 3u);
}

TEST(GangTest, BarrierCallbackRunsBetweenRounds) {
  Gang gang(2);
  std::vector<std::string> log;
  gang.run(
      [&](int node) {
        log.push_back("n" + std::to_string(node));
        gang.barrier_wait(node);
        log.push_back("n" + std::to_string(node) + "'");
      },
      [&](std::uint64_t index) {
        log.push_back("b" + std::to_string(index));
      });
  const std::vector<std::string> expected{"n0", "n1", "b0", "n0'", "n1'"};
  EXPECT_EQ(log, expected);
}

TEST(GangTest, DeterministicAcrossRuns) {
  auto trace = [] {
    Gang gang(3);
    std::vector<int> order;
    gang.run(
        [&](int node) {
          for (int i = 0; i < 5; ++i) {
            order.push_back(node * 10 + i);
            gang.barrier_wait(node);
          }
        },
        [](std::uint64_t) {});
    return order;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(GangTest, NodeExceptionPropagates) {
  Gang gang(4);
  EXPECT_THROW(
      gang.run(
          [&](int node) {
            gang.barrier_wait(node);
            if (node == 2) throw std::runtime_error("node 2 died");
            gang.barrier_wait(node);
          },
          [](std::uint64_t) {}),
      std::runtime_error);
}

TEST(GangTest, BarrierCallbackExceptionPropagates) {
  Gang gang(2);
  EXPECT_THROW(gang.run(
                   [&](int node) {
                     gang.barrier_wait(node);
                     gang.barrier_wait(node);
                   },
                   [](std::uint64_t index) {
                     if (index == 1) throw UsageError("callback failure");
                   }),
               UsageError);
}

TEST(GangTest, MismatchedBarrierCountsDetected) {
  Gang gang(3);
  EXPECT_THROW(gang.run(
                   [&](int node) {
                     gang.barrier_wait(node);
                     if (node != 0) gang.barrier_wait(node);  // node 0 exits
                   },
                   [](std::uint64_t) {}),
               UsageError);
}

TEST(GangTest, SingleNodeNeedsNoBarriers) {
  Gang gang(1);
  int runs = 0;
  gang.run([&](int) { ++runs; }, [](std::uint64_t) {});
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(gang.barriers_completed(), 0u);
}

TEST(GangTest, SingleNodeBarriersWork) {
  Gang gang(1);
  gang.run(
      [&](int node) {
        for (int i = 0; i < 10; ++i) gang.barrier_wait(node);
      },
      [](std::uint64_t) {});
  EXPECT_EQ(gang.barriers_completed(), 10u);
}

TEST(GangTest, RejectsZeroNodes) { EXPECT_THROW(Gang(0), UsageError); }

TEST(GangTest, ManyNodesManyRounds) {
  Gang gang(16);
  std::vector<int> counts(16, 0);
  gang.run(
      [&](int node) {
        for (int i = 0; i < 50; ++i) {
          ++counts[static_cast<std::size_t>(node)];
          gang.barrier_wait(node);
        }
      },
      [](std::uint64_t) {});
  for (const int c : counts) EXPECT_EQ(c, 50);
  EXPECT_EQ(gang.barriers_completed(), 50u);
}

// --- parallel mode ----------------------------------------------------------

TEST(GangParallelTest, AllNodesRunConcurrentlyWithinAPhase) {
  // A rendezvous that only completes if every node is admitted to the phase
  // at once: each node arrives and then waits for the others *without*
  // reaching the gang barrier. Under the baton (one runnable node at a
  // time) this would deadlock; in parallel mode it must finish. Mid-phase
  // cross-node spinning requires one worker per node (see gang.hpp caveat).
  Gang gang(4, GangMode::Parallel, /*workers=*/4);
  ASSERT_EQ(gang.mode(), GangMode::Parallel);
  std::atomic<int> arrived{0};
  gang.run(
      [&](int node) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) std::this_thread::yield();
        gang.barrier_wait(node);
      },
      [](std::uint64_t) {});
  EXPECT_EQ(arrived.load(), 4);
  EXPECT_EQ(gang.barriers_completed(), 1u);
}

TEST(GangParallelTest, BarrierCallbackRunsAloneBetweenPhases) {
  // Nodes log concurrently (under a test-local mutex); the callback logs
  // from the controller. Within a phase the node order is arbitrary, but
  // every phase-1 entry must precede b0 and every phase-2 entry follow it.
  Gang gang(3, GangMode::Parallel);
  std::mutex mu;
  std::vector<std::string> log;
  auto emit = [&](std::string s) {
    std::lock_guard<std::mutex> lock(mu);
    log.push_back(std::move(s));
  };
  gang.run(
      [&](int node) {
        emit("n" + std::to_string(node));
        gang.barrier_wait(node);
        emit("n" + std::to_string(node) + "'");
      },
      [&](std::uint64_t index) { emit("b" + std::to_string(index)); });
  ASSERT_EQ(log.size(), 7u);
  EXPECT_EQ(log[3], "b0");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].size(), 2u) << log[i];  // "nK": phase 1
    EXPECT_EQ(log[i + 4].size(), 3u) << log[i + 4];  // "nK'": phase 2
  }
}

TEST(GangParallelTest, ReusesPoolAcrossRuns) {
  Gang gang(4, GangMode::Parallel);
  for (int round = 1; round <= 3; ++round) {
    std::atomic<int> visits{0};
    gang.run(
        [&](int node) {
          visits.fetch_add(1);
          gang.barrier_wait(node);
          visits.fetch_add(1);
        },
        [](std::uint64_t) {});
    EXPECT_EQ(visits.load(), 8);
    EXPECT_EQ(gang.barriers_completed(), static_cast<std::uint64_t>(round));
  }
}

TEST(GangParallelTest, NodeExceptionPropagates) {
  Gang gang(4, GangMode::Parallel);
  EXPECT_THROW(
      gang.run(
          [&](int node) {
            gang.barrier_wait(node);
            if (node == 2) throw std::runtime_error("node 2 died");
            gang.barrier_wait(node);
          },
          [](std::uint64_t) {}),
      std::runtime_error);
}

TEST(GangParallelTest, MismatchedBarrierCountsDetected) {
  Gang gang(3, GangMode::Parallel);
  EXPECT_THROW(gang.run(
                   [&](int node) {
                     gang.barrier_wait(node);
                     if (node != 0) gang.barrier_wait(node);  // node 0 exits
                   },
                   [](std::uint64_t) {}),
               UsageError);
}

TEST(GangParallelTest, UsableAfterError) {
  // A failed run must not poison the pool: the next run() succeeds.
  Gang gang(2, GangMode::Parallel);
  EXPECT_THROW(gang.run([&](int) { throw std::runtime_error("boom"); },
                        [](std::uint64_t) {}),
               std::runtime_error);
  std::atomic<int> visits{0};
  gang.run(
      [&](int node) {
        visits.fetch_add(1);
        gang.barrier_wait(node);
      },
      [](std::uint64_t) {});
  EXPECT_EQ(visits.load(), 2);
}

TEST(GangParallelTest, ManyNodesManyRounds) {
  Gang gang(16, GangMode::Parallel);
  std::vector<std::atomic<int>> counts(16);
  gang.run(
      [&](int node) {
        for (int i = 0; i < 50; ++i) {
          counts[static_cast<std::size_t>(node)].fetch_add(1);
          gang.barrier_wait(node);
        }
      },
      [](std::uint64_t) {});
  for (const auto& c : counts) EXPECT_EQ(c.load(), 50);
  EXPECT_EQ(gang.barriers_completed(), 50u);
}

TEST(GangParallelTest, ModeNames) {
  EXPECT_STREQ(to_string(GangMode::Baton), "baton");
  EXPECT_STREQ(to_string(GangMode::Parallel), "parallel");
}

// --- bounded worker pool ----------------------------------------------------

TEST(GangWorkersTest, ResolveWorkersClampsAndAutoDetects) {
  EXPECT_EQ(Gang::resolve_workers(3, 8), 3);
  EXPECT_EQ(Gang::resolve_workers(8, 8), 8);
  EXPECT_EQ(Gang::resolve_workers(100, 8), 8);  // clamp to nodes
  const int auto_workers = Gang::resolve_workers(0, 1024);
  EXPECT_GE(auto_workers, 1);
  EXPECT_LE(auto_workers, 1024);
  EXPECT_EQ(Gang::resolve_workers(0, 1), 1);
  EXPECT_THROW((void)Gang::resolve_workers(-1, 8), UsageError);
  EXPECT_THROW(Gang(4, GangMode::Parallel, -2), UsageError);
}

TEST(GangWorkersTest, OwnerWorkerIsAContiguousPartition) {
  for (const int nodes : {1, 3, 7, 8, 16, 256, 1024}) {
    for (const int workers : {1, 2, 3, 4, 8}) {
      if (workers > nodes) continue;
      int prev = 0;
      std::vector<int> sizes(static_cast<std::size_t>(workers), 0);
      for (int n = 0; n < nodes; ++n) {
        const int w = Gang::owner_worker(n, nodes, workers);
        ASSERT_GE(w, prev) << "assignment must be monotone";
        ASSERT_LT(w, workers);
        prev = w;
        ++sizes[static_cast<std::size_t>(w)];
      }
      const int base = nodes / workers;
      for (const int s : sizes) {
        EXPECT_GE(s, base);  // balanced: every worker owns base or base+1
        EXPECT_LE(s, base + 1);
      }
    }
  }
}

#ifdef __linux__
// Counts this process's OS threads via /proc; the whole point of the pool.
int os_thread_count() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(GangWorkersTest, LargeGangSpawnsOnlyWorkersThreads) {
  const int before = os_thread_count();
  Gang gang(256, GangMode::Parallel, /*workers=*/4);
  EXPECT_EQ(gang.workers(), 4);
  EXPECT_LE(os_thread_count(), before + 4);
  std::vector<std::atomic<int>> counts(256);
  gang.run(
      [&](int node) {
        for (int i = 0; i < 3; ++i) {
          counts[static_cast<std::size_t>(node)].fetch_add(1);
          gang.barrier_wait(node);
        }
      },
      [](std::uint64_t) {});
  for (const auto& c : counts) EXPECT_EQ(c.load(), 3);
  EXPECT_EQ(gang.barriers_completed(), 3u);
}
#endif

TEST(GangWorkersTest, BatonOrderIdenticalForEveryWorkerCount) {
  auto trace = [](int workers) {
    Gang gang(5, GangMode::Baton, workers);
    std::vector<int> order;
    gang.run(
        [&](int node) {
          for (int round = 0; round < 4; ++round) {
            order.push_back(node);
            gang.barrier_wait(node);
          }
        },
        [](std::uint64_t) {});
    return order;
  };
  const std::vector<int> baseline = trace(1);
  ASSERT_EQ(baseline.size(), 20u);
  for (int round = 0; round < 4; ++round) {
    for (int node = 0; node < 5; ++node) {
      EXPECT_EQ(baseline[static_cast<std::size_t>(round * 5 + node)], node);
    }
  }
  EXPECT_EQ(trace(2), baseline);
  EXPECT_EQ(trace(3), baseline);
  EXPECT_EQ(trace(5), baseline);
}

TEST(GangWorkersTest, ParallelPhasesCompleteForEveryWorkerCount) {
  struct Case {
    int nodes;
    int workers;
    int rounds;
  };
  // The last input runs many empty phases on a shared pool, twice: there a
  // worker that saw the release early used to race the controller's wake
  // scan over the node statuses (a ThreadSanitizer report).
  for (const Case c : {Case{7, 1, 10}, Case{7, 2, 10}, Case{7, 3, 10},
                       Case{7, 7, 10}, Case{16, 4, 2000}}) {
    Gang gang(c.nodes, GangMode::Parallel, c.workers);
    EXPECT_EQ(gang.workers(), c.workers);
    for (int run = 1; run <= 2; ++run) {
      std::vector<std::atomic<int>> counts(static_cast<std::size_t>(c.nodes));
      gang.run(
          [&](int node) {
            for (int i = 0; i < c.rounds; ++i) {
              counts[static_cast<std::size_t>(node)].fetch_add(1);
              gang.barrier_wait(node);
            }
          },
          [](std::uint64_t) {});
      for (const auto& n : counts) EXPECT_EQ(n.load(), c.rounds);
      EXPECT_EQ(gang.barriers_completed(),
                static_cast<std::uint64_t>(run * c.rounds));
    }
  }
}

TEST(GangWorkersTest, ErrorsPropagateWithSharedWorkers) {
  // Node 2 throws while nodes 0/1/3 (some on the same worker) are parked
  // at the barrier; the pool must unwind every suspended fiber and stay
  // usable.
  for (const auto mode : {GangMode::Baton, GangMode::Parallel}) {
    Gang gang(4, mode, /*workers=*/2);
    EXPECT_THROW(
        gang.run(
            [&](int node) {
              gang.barrier_wait(node);
              if (node == 2) throw std::runtime_error("node 2 died");
              gang.barrier_wait(node);
            },
            [](std::uint64_t) {}),
        std::runtime_error);
    std::atomic<int> visits{0};
    gang.run(
        [&](int node) {
          visits.fetch_add(1);
          gang.barrier_wait(node);
        },
        [](std::uint64_t) {});
    EXPECT_EQ(visits.load(), 4);
  }
}

// ---- for_each_node: the barrier-callback fan-out ------------------------

struct FanOutCase {
  GangMode mode;
  int workers;
};

/// Every mode with one worker, a shared pool (uneven spans: 3+2+2 nodes)
/// and one worker per node.
std::vector<FanOutCase> fan_out_cases(int nodes) {
  std::vector<FanOutCase> cases;
  for (const auto mode : {GangMode::Parallel, GangMode::Baton, GangMode::Async}) {
    for (const int workers : {1, 3, nodes}) cases.push_back({mode, workers});
  }
  return cases;
}

TEST(GangForEachNodeTest, RunsEveryNodeOnceOnItsOwnerInNodeOrder) {
  constexpr int kNodes = 7;
  constexpr int kBarriers = 3;
  for (const FanOutCase c : fan_out_cases(kNodes)) {
    SCOPED_TRACE(std::string(to_string(c.mode)) + " workers=" +
                 std::to_string(c.workers));
    Gang gang(kNodes, c.mode, c.workers);
    // Each share writes only its own node's cells and its thread's log, so
    // the parallel gang needs no locks here. The caller stands in for
    // worker 0 (log 0).
    std::vector<int> calls(kNodes, 0);
    std::vector<int> exec(kNodes, -2);
    std::vector<int> worker_of(kNodes, -2);
    std::vector<std::vector<int>> per_worker(
        static_cast<std::size_t>(gang.workers()));
    const auto log_of = [](int exec_worker) {
      return static_cast<std::size_t>(exec_worker < 0 ? 0 : exec_worker);
    };
    std::vector<int> serial_order;  // one share at a time in serial modes
    std::atomic<int> stamp_errors{0};
    int caller_exec_after = -2;
    gang.run(
        [&](int node) {
          for (int b = 0; b < kBarriers; ++b) {
            if (current_exec_node() != node) stamp_errors.fetch_add(1);
            gang.barrier_wait(node);
          }
          if (current_exec_node() != node) stamp_errors.fetch_add(1);
        },
        [&](std::uint64_t) {
          gang.for_each_node([&](int n) {
            const auto i = static_cast<std::size_t>(n);
            ++calls[i];
            exec[i] = current_exec_node();
            worker_of[i] = current_exec_worker();
            per_worker[log_of(current_exec_worker())].push_back(n);
            if (c.mode != GangMode::Parallel) serial_order.push_back(n);
          });
          caller_exec_after = current_exec_node();
        });
    EXPECT_EQ(stamp_errors.load(), 0)
        << "node fibers keep their stamp across fan-outs";
    EXPECT_EQ(caller_exec_after, kControllerContext);
    for (int n = 0; n < kNodes; ++n) {
      const auto i = static_cast<std::size_t>(n);
      EXPECT_EQ(calls[i], kBarriers) << "node " << n;
      EXPECT_EQ(exec[i], n);
      // Worker 0 stays parked: its nodes run on the caller.
      const int owner = Gang::owner_worker(n, kNodes, gang.workers());
      EXPECT_EQ(worker_of[i], owner == 0 ? kControllerContext : owner);
    }
    for (int w = 0; w < gang.workers(); ++w) {
      std::vector<int> expected;
      for (int b = 0; b < kBarriers; ++b) {
        for (int n = 0; n < kNodes; ++n) {
          if (Gang::owner_worker(n, kNodes, gang.workers()) == w) {
            expected.push_back(n);
          }
        }
      }
      EXPECT_EQ(per_worker[static_cast<std::size_t>(w)], expected)
          << "worker " << w << " runs its nodes in ascending order";
    }
    if (c.mode != GangMode::Parallel) {
      std::vector<int> expected;
      for (int b = 0; b < kBarriers; ++b) {
        for (int n = 0; n < kNodes; ++n) expected.push_back(n);
      }
      EXPECT_EQ(serial_order, expected);
    }
  }
}

TEST(GangForEachNodeTest, RethrowsLowestThrowingNodeAfterEveryShare) {
  constexpr int kNodes = 7;
  for (const FanOutCase c : fan_out_cases(kNodes)) {
    SCOPED_TRACE(std::string(to_string(c.mode)) + " workers=" +
                 std::to_string(c.workers));
    Gang gang(kNodes, c.mode, c.workers);
    std::vector<int> ran(kNodes, 0);
    std::string caught;
    gang.run([&](int node) { gang.barrier_wait(node); },
             [&](std::uint64_t) {
               try {
                 gang.for_each_node([&](int n) {
                   ran[static_cast<std::size_t>(n)] = 1;
                   if (n == 3 || n == 5) {
                     throw std::runtime_error("node " + std::to_string(n));
                   }
                 });
               } catch (const std::runtime_error& e) {
                 caught = e.what();
               }
             });
    EXPECT_EQ(caught, "node 3");
    EXPECT_EQ(ran, std::vector<int>(kNodes, 1))
        << "a throwing share does not cancel the others";

    // Uncaught, the exception leaves run() like any callback error, and
    // the pool stays usable.
    EXPECT_THROW(gang.run([&](int node) { gang.barrier_wait(node); },
                          [&](std::uint64_t) {
                            gang.for_each_node([](int n) {
                              if (n == 5) throw std::logic_error("late");
                            });
                          }),
                 std::logic_error);
    std::atomic<int> shares{0};
    gang.run([&](int node) { gang.barrier_wait(node); },
             [&](std::uint64_t) {
               gang.for_each_node([&](int) { shares.fetch_add(1); });
             });
    EXPECT_EQ(shares.load(), kNodes);
  }
}

TEST(GangForEachNodeTest, RefusedOutsideTheBarrierCallback) {
  constexpr int kNodes = 5;
  for (const FanOutCase c : fan_out_cases(kNodes)) {
    SCOPED_TRACE(std::string(to_string(c.mode)) + " workers=" +
                 std::to_string(c.workers));
    Gang gang(kNodes, c.mode, c.workers);
    const auto noop = [](int) {};
    EXPECT_THROW(gang.for_each_node(noop), UsageError) << "before any run";
    std::atomic<int> refused_mid_phase{0};
    std::atomic<int> refused_nested{0};
    int shares = 0;
    gang.run(
        [&](int node) {
          try {
            gang.for_each_node(noop);
          } catch (const UsageError&) {
            refused_mid_phase.fetch_add(1);
          }
          gang.barrier_wait(node);
        },
        [&](std::uint64_t) {
          gang.for_each_node([&](int) {
            try {
              gang.for_each_node(noop);
            } catch (const UsageError&) {
              refused_nested.fetch_add(1);
            }
          });
          gang.for_each_node([&](int) {});
          ++shares;
        });
    EXPECT_EQ(refused_mid_phase.load(), kNodes);
    EXPECT_EQ(refused_nested.load(), kNodes);
    EXPECT_EQ(shares, 1);
    EXPECT_THROW(gang.for_each_node(noop), UsageError) << "after the run";
  }
}

}  // namespace
}  // namespace updsm::sim
