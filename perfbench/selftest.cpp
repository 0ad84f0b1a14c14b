// The benchmark's own test: a run rebuilt with the tracing decorators
// swapped in must simulate exactly what SimulationRun simulates —
// delivered packets, accepted load and mean latency equal bit for bit.
//
//   perfbench_selftest <scratch-dir>
//
// Cases: olm/UN (with periodic checkpoints taken mid-run), pb/ADVG+1
// (Piggybacking's per_cycle broadcast), rlm under wormhole flow control
// on the mixed pattern, and olm/UN on the sharded engine (traced at one
// shard worker against an untraced run at two). Exits nonzero naming the
// case and the first differing field.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "runtime/parallel_for.hpp"
#include "trace.hpp"

namespace {

struct Case {
  const char* name;
  dfsim::SimConfig cfg;
  perfbench::TraceOptions opt;
};

dfsim::SimConfig small(const char* routing, const char* pattern,
                       double load) {
  dfsim::SimConfig cfg;
  cfg.h = 2;
  cfg.routing = routing;
  cfg.pattern = pattern;
  cfg.load = load;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 900;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <scratch-dir>\n", argv[0]);
    return 2;
  }
  std::vector<Case> cases;
  {
    Case c{"olm/UN", small("olm", "uniform", 0.5), {}};
    c.opt.checkpoint_every = 250;
    c.opt.checkpoint_path = std::string(argv[1]) + "/selftest.ckpt";
    cases.push_back(c);
  }
  cases.push_back({"pb/ADVG+1", small("pb", "advg", 0.4), {}});
  {
    Case c{"rlm/wormhole", small("rlm", "mixed", 0.3), {}};
    c.cfg.flow = dfsim::FlowControl::kWormhole;
    c.cfg.packet_phits = 80;
    c.cfg.flit_phits = 10;
    cases.push_back(c);
  }
  {
    Case c{"olm/UN sharded", small("olm", "uniform", 0.5), {}};
    c.cfg.engine = "sharded";
    c.opt.profile = true;
    cases.push_back(c);
  }
  dfsim::runtime::set_default_jobs(2);  // untraced sharded runs: 2 workers

  int failed = 0;
  for (const Case& c : cases) {
    try {
      perfbench::LayerTotals totals;
      std::vector<perfbench::Span> spans;
      const perfbench::PointResult traced =
          perfbench::run_traced_point(c.cfg, c.opt, totals, spans);
      const perfbench::PointResult plain = perfbench::run_plain_point(c.cfg);
      std::string field = perfbench::first_difference(traced, plain);
      if (field.empty() && plain.delivered == 0) field = "delivered (zero)";
      if (field.empty() && totals.routing.hops == 0) field = "routing.hops";
      // Zero fresh calls would mean decide_fresh reached the base-class
      // default instead of the wrapped mechanism's own.
      if (field.empty() && totals.routing.fresh_calls == 0) {
        field = "routing.fresh_calls";
      }
      if (field.empty() && c.cfg.routing == "pb" &&
          totals.routing.per_cycle_ns == 0) {
        field = "routing.per_cycle_ns";
      }
      if (field.empty() && c.opt.checkpoint_every > 0 &&
          totals.checkpoints == 0) {
        field = "sim.checkpoints";
      }
      if (field.empty() && c.opt.profile && totals.profile.steps == 0) {
        field = "sim.profile.steps";
      }
      if (field.empty()) {
        std::printf("ok   %s (delivered %llu)\n", c.name,
                    static_cast<unsigned long long>(plain.delivered));
      } else {
        std::printf("FAIL %s: %s\n", c.name, field.c_str());
        ++failed;
      }
    } catch (const std::exception& e) {
      std::printf("FAIL %s: exception %s\n", c.name, e.what());
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}
