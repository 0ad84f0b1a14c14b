// Shared scaffolding for the figure benches: banner, scale notes, the
// routing line-ups each figure compares, the --jobs flag, and the
// BENCH_sweep.json wall-clock reporter that tracks the perf trajectory of
// every figure bench across PRs.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/simulator.hpp"
#include "api/sweep.hpp"
#include "common/bench_json.hpp"
#include "common/env.hpp"
#include "common/text.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/engine.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim::bench {

/// Parses the common bench flags. `--jobs=N` (or `--jobs N`) sets the
/// process-wide worker count used by every parallel sweep; DF_JOBS is the
/// env equivalent, and unset or 0 means hardware concurrency. Any other
/// value is a usage error.
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const bool joined = std::strncmp(argv[i], "--jobs=", 7) == 0;
    if (!joined && (std::strcmp(argv[i], "--jobs") != 0 || i + 1 == argc)) {
      continue;
    }
    const char* value = joined ? argv[i] + 7 : argv[++i];
    const std::optional<int> jobs = parse_number<int>(value);
    if (!jobs || *jobs < 0) {
      std::cerr << "usage: " << argv[0] << " [--jobs=N]: --jobs expects a "
                << "non-negative integer, got \"" << value << "\"\n";
      std::exit(2);
    }
    runtime::set_default_jobs(*jobs);
  }
}

/// RAII wall-clock + memory reporter. Construct first thing in main();
/// on destruction it appends one record to the JSON array in
/// BENCH_sweep.json (path overridable via DF_BENCH_JSON, empty disables):
///   {"bench": "fig04_latency_vct", "wall_s": 12.34, "jobs": 8,
///    "peak_rss_mb": 210.5, "bytes_per_terminal": 13372}
/// Runs under DF_ENGINE=sharded report as "<name>+sharded" — a separate
/// perf-gate identity, so the two engines' trajectories never mask each
/// other in the fastest-of-N-records reduction.
class BenchReport {
 public:
  BenchReport(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    if (argv != nullptr) parse_args(argc, argv);
    const char* engine = std::getenv("DF_ENGINE");
    if (engine != nullptr && std::string(engine) == "sharded") {
      name_ += "+sharded";
    }
  }

  /// Terminal count of the (largest) shape the bench ran; enables the
  /// bytes_per_terminal field of the record.
  void set_terminals(std::int64_t terminals) { terminals_ = terminals; }

  ~BenchReport() {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rss_mb =
        static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
    // Phase-profiler telemetry (DF_PROFILE=1): every profiled engine this
    // process ran folded its per-phase counters into the process-wide
    // accumulator at destruction; all-zero means profiling was off.
    std::string extra;
    const Engine::PhaseProfile prof = accumulated_phase_profile();
    if (prof.total_ns > 0) {
      std::ostringstream p;
      p << "\"serial_fraction\": " << prof.serial_fraction()
        << ", \"profiled_steps\": " << prof.steps
        << ", \"arrive_ns\": " << prof.arrive_ns
        << ", \"deliver_ns\": " << prof.deliver_ns
        << ", \"alloc_ns\": " << prof.alloc_ns
        << ", \"flush_ns\": " << prof.flush_ns;
      extra = p.str();
    }
    append_bench_record(name_, wall_s, runtime::default_jobs(), "", rss_mb,
                        terminals_, extra);
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t terminals_ = 0;
};

inline void banner(const std::string& what, const SimConfig& cfg) {
  const DragonflyTopology topo = cfg.make_topology();
  std::cout << "# " << what << "\n";
  std::cout << "# " << topo.describe() << "\n";
  std::cout << "# flow="
            << (cfg.flow == FlowControl::kVirtualCutThrough ? "VCT"
                                                            : "wormhole")
            << " packet=" << cfg.packet_phits << " phits"
            << " warmup=" << cfg.warmup_cycles
            << " measure=" << cfg.measure_cycles << " seed=" << cfg.seed
            << " jobs=" << runtime::default_jobs() << "\n";
  // Byte-identical to the pre-(p,a,h,g) banner for balanced shapes (the
  // figure CSVs are pinned); the unbalanced knobs are listed only when in
  // use, and are documented in the README "Topology" section.
  std::cout << "# scale knobs: DF_FULL=1 (paper h=8), DF_H, DF_WARMUP, "
               "DF_MEASURE, DF_SEED, DF_BURST; --jobs=N / DF_JOBS\n";
  if (!topo.balanced()) {
    std::cout << "# unbalanced shape knobs in effect: DF_P, DF_A, DF_G, "
                 "DF_TOPO\n";
  }
}

/// Paper Fig. 4/5 line-up under uniform traffic (Valiant is replaced by
/// Minimal as the reference, exactly as the paper plots it).
inline std::vector<std::string> uniform_lineup() {
  return {"par-6/2", "olm", "rlm", "minimal", "pb"};
}

/// Paper Fig. 4/5 line-up under adversarial traffic.
inline std::vector<std::string> adversarial_lineup() {
  return {"par-6/2", "olm", "rlm", "valiant", "pb"};
}

/// Wormhole line-ups exclude OLM (VCT-only, paper Sec. IV-B).
inline std::vector<std::string> uniform_lineup_wh() {
  return {"par-6/2", "rlm", "minimal", "pb"};
}
inline std::vector<std::string> adversarial_lineup_wh() {
  return {"par-6/2", "rlm", "valiant", "pb"};
}

inline void configure_wormhole(SimConfig& cfg) {
  cfg.flow = FlowControl::kWormhole;
  cfg.packet_phits = 80;  // 8 flits of 10 phits (paper Sec. IV-B)
  cfg.flit_phits = 10;
}

}  // namespace dfsim::bench
