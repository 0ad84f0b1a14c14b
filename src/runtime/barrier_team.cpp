#include "runtime/barrier_team.hpp"

#include <algorithm>
#include <utility>

#include "common/env.hpp"

namespace dfsim::runtime {

BarrierTeam::BarrierTeam(int workers, std::function<void(int)> fn,
                         int spin_budget)
    : fn_(std::move(fn)), workers_(std::max(1, workers)) {
  if (spin_budget < 0) {
    // Spinning only pays when every worker owns a core; oversubscribed,
    // a spinning waiter steals the quantum of the worker it waits for.
    const auto cores = std::thread::hardware_concurrency();
    spin_budget = (cores != 0 && static_cast<unsigned>(workers_) <= cores)
                      ? 4096
                      : 0;
  }
  spin_budget_ = env_number("DF_BARRIER_SPIN", spin_budget);
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

BarrierTeam::~BarrierTeam() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BarrierTeam::run() {
  if (workers_ == 1) {
    fn_(0);
    return;
  }
  pending_.store(workers_ - 1, std::memory_order_relaxed);
  // The release bump publishes the caller's pre-run() writes (and the
  // pending count) to every worker whose acquire poll observes it.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  fn_(0);
  int spins = 0;
  for (;;) {
    const int p = pending_.load(std::memory_order_acquire);
    if (p == 0) return;
    // atomic::wait re-checks the value under the futex, so a notify that
    // lands between this load and the wait is never lost.
    if (++spins > spin_budget_) pending_.wait(p, std::memory_order_acquire);
  }
}

void BarrierTeam::worker_loop(int index) {
  std::uint64_t served = 0;
  for (;;) {
    int spins = 0;
    std::uint64_t e;
    for (;;) {
      e = epoch_.load(std::memory_order_acquire);
      if (e != served) break;
      if (++spins > spin_budget_) epoch_.wait(e, std::memory_order_acquire);
    }
    served = e;
    if (stop_.load(std::memory_order_acquire)) return;
    fn_(index);
    // Release so the caller's acquire poll of pending_ sees this
    // worker's writes; the last arrival wakes a parked caller.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_all();
    }
  }
}

}  // namespace dfsim::runtime
