#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>

#include "common/env.hpp"
#include "runtime/barrier_team.hpp"

namespace dfsim::runtime {

namespace {
std::atomic<int> g_default_jobs{0};  // 0 = auto

/// This thread's share of the jobs budget while it runs parallel_for
/// bodies; 0 outside any parallel_for.
thread_local int t_worker_budget = 0;

/// Sets this thread's budget for its lifetime, restoring the previous
/// value on exit (parallel_for calls may nest).
class BudgetScope {
 public:
  explicit BudgetScope(int budget) : saved_(t_worker_budget) {
    t_worker_budget = budget;
  }
  ~BudgetScope() { t_worker_budget = saved_; }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  int saved_;
};
}  // namespace

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs > 0 ? jobs : 0, std::memory_order_relaxed);
}

int default_jobs() {
  const int set = g_default_jobs.load(std::memory_order_relaxed);
  if (set > 0) return set;
  const int env = env_jobs();
  if (env > 0) return env;
  return BarrierTeam::hardware_workers();
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (t_worker_budget > 0) return t_worker_budget;
  return default_jobs();
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const int budget = resolve_jobs(jobs);
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(budget), n));
  const int share = std::max(1, budget / workers);

  // Workers claim one index at a time: sweep points differ in run time
  // by up to an order of magnitude (a saturated point simulates far more
  // traffic than a light one), and claiming several neighbours at once
  // chains the slow high-load points on one worker. A claim is one
  // atomic add, negligible next to any point. A throwing body exhausts
  // the counter, so no worker claims another index; the team rethrows
  // the first exception once every worker is done.
  std::atomic<std::size_t> next{0};
  BarrierTeam team(workers);
  team.run([&](int) {
    BudgetScope scope(share);
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

}  // namespace dfsim::runtime
