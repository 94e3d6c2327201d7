// Stackful execution contexts for multiplexing simulated nodes over a
// bounded worker pool.
//
// A simulated node's function blocks *mid-stack* inside Gang::barrier_wait
// with arbitrarily deep application frames below it, so N nodes cannot be
// multiplexed over M < N OS threads by nested function calls -- the worker
// could never suspend one node to run the next. Each node therefore runs on
// its own Fiber: a ucontext-based coroutine whose resume()/yield() switch
// whole stacks in user space. A worker thread resumes each of its nodes in
// turn; barrier_wait yields back to the worker's scheduler loop.
//
// Stacks are mmap'd with a PROT_NONE guard page at the low end, so physical
// pages are allocated lazily (1024 armed fibers cost address space, not
// RSS) and overflow faults instead of silently corrupting a neighbour.
//
// Under ThreadSanitizer every stack switch is announced through the TSan
// fiber API so the runtime tracks each fiber as its own synchronization
// context; without it, TSan would see one OS thread's history jump between
// unrelated stacks and report phantom races. Under AddressSanitizer every
// switch is bracketed by __sanitizer_start/finish_switch_fiber so ASan
// knows which stack is live (its fake stacks and the no-return unpoisoning
// a throwing node fiber triggers would otherwise misread the bounds). CI
// runs the whole suite under both sanitizers.
#pragma once

#include <cstddef>
#include <functional>

namespace updsm::sim {

/// One suspendable execution context with its own stack. Not thread-safe:
/// resume() must not race with itself, and yield() may only be called from
/// inside the running fiber. A fiber may be resumed from different OS
/// threads across its lifetime (each resume captures the host context
/// afresh), though the gang keeps a fixed owner per run for determinism.
class Fiber {
 public:
  static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

  explicit Fiber(std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Prepares `fn` to run from the top of this fiber's stack on the next
  /// resume(). The previous function must have finished. `fn` must not
  /// throw (the gang wraps node functions in a catch-all).
  void arm(std::function<void()> fn);

  /// Switches into the fiber until it yields or finishes. Returns true
  /// when `fn` returned (the fiber must then be re-arm()ed before any
  /// further resume).
  [[nodiscard]] bool resume();

  /// Suspends the running fiber, returning control to its resumer. Must be
  /// called from inside the fiber.
  void yield();

  /// Armed and not yet finished (suspended or never started).
  [[nodiscard]] bool live() const { return live_; }

 private:
  struct Impl;  // ucontext pair + sanitizer fiber state (keeps
                // <ucontext.h> and the sanitizer headers out of this header)

  static void trampoline(unsigned self_hi, unsigned self_lo);
  void run_trampoline();
  void switch_out();

  Impl* impl_;
  std::byte* map_base_ = nullptr;  // mmap base; guard page at the low end
  std::size_t map_bytes_ = 0;
  std::size_t stack_bytes_;
  std::function<void()> fn_;
  bool live_ = false;
};

}  // namespace updsm::sim
