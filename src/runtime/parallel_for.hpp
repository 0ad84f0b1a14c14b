// parallel_for: execute body(0..n-1) across a thread pool, claiming work
// one index at a time through an atomic counter. Results written by index
// are bit-identical to a serial loop regardless of worker count — the
// backbone of `parallel_sweep` and every figure bench's (routing, load)
// grid.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace dfsim::runtime {

/// Worker count actually used for `requested`: requested > 0 wins, else
/// the process default (set_default_jobs / DF_JOBS env), else
/// std::thread::hardware_concurrency().
int resolve_jobs(int requested);

/// Process-wide default used when a call site passes jobs <= 0.
/// Benches set this from their --jobs=N flag. jobs <= 0 resets to auto.
void set_default_jobs(int jobs);
int default_jobs();

/// Runs body(i) for every i in [0, n). jobs <= 0 resolves via
/// resolve_jobs; jobs == 1 (or n < 2) runs inline on the calling thread.
/// The first exception thrown by a body is rethrown on the caller after
/// all workers finish.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body);

/// Ordered map: out[i] = fn(i), computed concurrently. The result order
/// never depends on the worker count or interleaving.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, int jobs, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace dfsim::runtime
