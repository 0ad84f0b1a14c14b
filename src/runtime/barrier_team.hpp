// BarrierTeam: the phase-barrier worker team the sharded cycle engine
// steps its shards with.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace dfsim::runtime {

/// Persistent worker team parked on a sense-reversing phase barrier, for
/// callers that run the SAME parallel region thousands of times (the
/// sharded engine runs two per simulated cycle). There is no queue and
/// no mutex on the hot path: run() bumps an epoch counter (the "go"
/// edge), every worker executes the fixed callback once with its worker
/// index, and the last arrival releases the caller. Workers
/// spin on the epoch for `spin_budget` iterations before parking on a
/// futex (C++20 std::atomic::wait), so an oversubscribed machine — more
/// workers than cores — degrades to condvar-like latency instead of
/// burning the victim core's quantum.
///
/// Memory ordering: everything the caller wrote before run() is visible
/// to the workers (release bump / acquire poll of the epoch), and
/// everything the workers wrote is visible to the caller when run()
/// returns (release decrement / acquire poll of the pending count).
class BarrierTeam {
 public:
  /// Spawns `workers - 1` threads (the caller is worker 0). `fn(w)` runs
  /// once per worker per run(). `spin_budget` < 0 picks a default: a few
  /// thousand spins when the machine has a core per worker, immediate
  /// parking when oversubscribed; DF_BARRIER_SPIN overrides either.
  BarrierTeam(int workers, std::function<void(int)> fn, int spin_budget = -1);
  ~BarrierTeam();

  BarrierTeam(const BarrierTeam&) = delete;
  BarrierTeam& operator=(const BarrierTeam&) = delete;

  /// Executes fn(0..size-1) across the team; returns when all are done.
  /// Not reentrant — one phase at a time.
  void run();

  int size() const { return workers_; }
  int spin_budget() const { return spin_budget_; }

 private:
  void worker_loop(int index);

  std::function<void(int)> fn_;
  std::vector<std::thread> threads_;
  /// The barrier's sense: workers wait for the epoch to move past the
  /// value they last served. 64-bit, so it never wraps in practice.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  int workers_;
  int spin_budget_;
};

}  // namespace dfsim::runtime
