// Figure 9: mixed adversarial traffic under wormhole flow control.
// (a) max throughput at offered load 1.0 vs. % global traffic;
// (b) burst consumption time (the paper scales the burst to 89 packets of
//     80 phits so the payload matches the VCT experiment's 1000 x 8).
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("fig09_mixed_wh", argc, argv);
  SimConfig cfg = bench_defaults();
  bench::configure_wormhole(cfg);
  bench::banner("Figure 9: mixed ADVG+h / ADVL+1, wormhole", cfg);
  cfg.pattern = "mixed";
  cfg.load = 1.0;
  // Keep total payload equal to the VCT burst: N x 8 phits == M x 80.
  cfg.burst_packets = std::max<std::uint64_t>(1, cfg.burst_packets / 10);

  const std::vector<std::string> lineup = {"par-6/2", "rlm", "pb"};
  const std::vector<double> fractions = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

  std::vector<ExperimentPoint> grid;
  for (const std::string& routing : lineup) {
    for (const double p : fractions) {
      ExperimentPoint pt;
      pt.series = routing;
      pt.x = p * 100.0;
      pt.cfg = cfg;
      pt.cfg.routing = routing;
      pt.cfg.global_fraction = p;
      grid.push_back(std::move(pt));
    }
  }

  const auto points = run_experiments(grid);

  std::cout << "\n## panel 9a_throughput\n";
  {
    CsvWriter csv(std::cout,
                  {"series", "global_traffic_pct", "accepted_load"});
    for (const ExperimentResult& p : points) {
      csv.point(p.series, p.x, p.steady.accepted_load);
    }
  }

  std::cout << "\n## panel 9b_burst_consumption\n";
  {
    // The same grid as burst runs: run_experiments derives the same
    // per-point seeds, so both panels run each point with the same stream.
    for (ExperimentPoint& pt : grid) pt.burst = true;
    CsvWriter csv(std::cout,
                  {"series", "global_traffic_pct", "consumption_kcycles"});
    for (const ExperimentResult& p : run_experiments(grid)) {
      csv.point(p.series, p.x,
                static_cast<double>(p.burst.consumption_cycles) / 1000.0);
    }
  }
  return 0;
}
