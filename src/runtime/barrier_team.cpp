#include "runtime/barrier_team.hpp"

#include <algorithm>
#include <utility>

namespace dfsim::runtime {

namespace {
// Spinning only pays when every worker owns a core; oversubscribed, a
// spinning waiter steals the quantum of the worker it waits for.
int spin_budget_for(int workers) {
  if (workers <= 1) return 0;  // runs inline: nobody ever waits
  return workers <= BarrierTeam::hardware_workers() ? 4096 : 0;
}
}  // namespace

int BarrierTeam::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

BarrierTeam::BarrierTeam(int workers)
    : workers_(std::max(1, workers)), spin_budget_(spin_budget_for(workers_)) {
  try {
    threads_.reserve(static_cast<std::size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A joinable std::thread destroyed with the vector would terminate.
    stop_and_join();
    throw;
  }
}

BarrierTeam::~BarrierTeam() { stop_and_join(); }

void BarrierTeam::stop_and_join() noexcept {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BarrierTeam::run(void (*fn)(void*, int), void* ctx) {
  if (workers_ == 1) {
    fn(ctx, 0);
    return;
  }
  fn_ = fn;
  ctx_ = ctx;
  pending_.store(workers_ - 1, std::memory_order_relaxed);
  // The release bump publishes the caller's pre-run() writes (the region
  // and the pending count included) to every worker whose acquire poll
  // observes it.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  call(0);
  int spins = 0;
  for (;;) {
    const int p = pending_.load(std::memory_order_acquire);
    if (p == 0) break;
    // atomic::wait re-checks the value under the futex, so a notify that
    // lands between this load and the wait is never lost.
    if (++spins > spin_budget_) pending_.wait(p, std::memory_order_acquire);
  }
  // Every worker's store of error_ happened before its release decrement.
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void BarrierTeam::call(int index) noexcept {
  try {
    fn_(ctx_, index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::current_exception();
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
    call(index);
    // Release so the caller's acquire poll of pending_ sees this
    // worker's writes; the last arrival wakes a parked caller.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_all();
    }
  }
}

}  // namespace dfsim::runtime
