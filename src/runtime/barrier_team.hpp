// BarrierTeam: the one worker team in dfsim. parallel_for runs a grid's
// claim loop on a team, and the cycle engine steps its shards with one.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dfsim::runtime {

/// Persistent worker team parked on a sense-reversing phase barrier.
/// run(fn) bumps an epoch counter (the "go" edge), every worker calls
/// fn(w) once with its index w, and the last arrival releases the caller.
/// The caller is worker 0, so a one-worker team starts no thread and runs
/// fn(0) inline. There is no queue and no mutex on the hot path, so a
/// caller may run thousands of regions (the sharded engine runs two per
/// simulated cycle). Workers spin on the epoch a few thousand times
/// before parking on a futex (C++20 std::atomic::wait) when the machine
/// has a core per worker, and park at once when it does not, so an
/// oversubscribed machine degrades to condvar-like latency instead of
/// burning the quantum of the worker being waited for.
///
/// Memory ordering: everything the caller wrote before run() is visible
/// to the workers (release bump / acquire poll of the epoch), and
/// everything the workers wrote is visible to the caller when run()
/// returns (release decrement / acquire poll of the pending count).
class BarrierTeam {
 public:
  /// Starts `workers - 1` threads (the caller is worker 0). If starting
  /// one fails, the ones already started are stopped and joined before
  /// the error propagates.
  explicit BarrierTeam(int workers);
  ~BarrierTeam();

  BarrierTeam(const BarrierTeam&) = delete;
  BarrierTeam& operator=(const BarrierTeam&) = delete;

  /// Calls fn(w) for every w in [0, size()) and returns when all are
  /// done; `fn` need only outlive the call. If any call throws, the first
  /// exception is rethrown here after every worker has finished. Not
  /// reentrant: one region at a time.
  template <class Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run(+[](void* ctx, int w) { (*static_cast<F*>(ctx))(w); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  int size() const { return workers_; }
  /// Polls a waiting worker makes before it parks: 0 when the team has
  /// more workers than the machine has hardware threads.
  int spin_budget() const { return spin_budget_; }

  /// The machine's hardware threads, 1 when unknown: the default jobs
  /// budget, and the largest team whose waiting workers spin before they
  /// park.
  static int hardware_workers();

 private:
  void run(void (*fn)(void*, int), void* ctx);
  void worker_loop(int index);
  void call(int index) noexcept;
  void stop_and_join() noexcept;

  /// The region of the current run(): written by the caller before the
  /// epoch bump publishes it.
  void (*fn_)(void*, int) = nullptr;
  void* ctx_ = nullptr;
  /// The barrier's sense: workers wait for the epoch to move past the
  /// value they last served. 64-bit, so it never wraps in practice.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first exception of the current run()
  int workers_;
  int spin_budget_;
  /// Last, after everything the workers read: started once the rest is
  /// initialised, and joined by the destructor before any of it goes.
  std::vector<std::thread> threads_;
};

}  // namespace dfsim::runtime
