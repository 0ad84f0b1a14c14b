// parallel_for: execute body(0..n-1) across W worker threads, claiming
// work one index at a time through an atomic counter. Results written by
// index are bit-identical to a serial loop regardless of worker count —
// the backbone of run_experiments and every figure bench's grid.
//
// One jobs budget: a body running inside a parallel_for worker that asks
// for the default worker count (resolve_jobs(<= 0) — the sharded engine
// does, for its shard team) gets its share of the budget, jobs / W, not
// the whole process default. A 4-worker sweep of sharded points thus runs
// 4 x 1 threads on 4 cores instead of 4 x 4.
#pragma once

#include <cstddef>
#include <functional>

namespace dfsim::runtime {

/// Worker count actually used for `requested`: requested > 0 wins; else,
/// inside a parallel_for worker, that worker's share of the budget; else
/// the process default (set_default_jobs / DF_JOBS env), else
/// std::thread::hardware_concurrency().
int resolve_jobs(int requested);

/// Process-wide default used when a call site passes jobs <= 0.
/// Benches set this from their --jobs=N flag. jobs <= 0 resets to auto.
void set_default_jobs(int jobs);
int default_jobs();

/// Runs body(i) for every i in [0, n). jobs <= 0 resolves via
/// resolve_jobs. The budget is split over W = min(jobs, n) workers, each
/// body seeing resolve_jobs(0) == max(1, jobs / W); W == 1 runs inline
/// on the calling thread. The first exception thrown by a body is
/// rethrown on the caller after all workers finish.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace dfsim::runtime
