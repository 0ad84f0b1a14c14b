// Figure 6: mixed adversarial traffic (p% ADVG+h, rest ADVL+1) under VCT.
// (a) max throughput at offered load 1.0 vs. % global traffic;
// (b) burst consumption time vs. % global traffic.
//
// Paper headline (h=8): at 0% global PB ~0.5 (Valiant detours), RLM 0.61,
// PAR-6/2 and OLM 0.79; OLM drains bursts in ~36% of PB's time, RLM ~42.5%.
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("fig06_mixed_vct", argc, argv);
  SimConfig cfg = bench_defaults();
  bench::banner("Figure 6: mixed ADVG+h / ADVL+1, VCT", cfg);
  cfg.pattern = "mixed";
  cfg.load = 1.0;

  const std::vector<std::string> lineup = {"par-6/2", "olm", "rlm", "pb"};
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

  std::cout << "\n## panel 6a_throughput\n";
  {
    CsvWriter csv(std::cout,
                  {"series", "global_traffic_pct", "accepted_load"});
    for (const ExperimentResult& p : points) {
      csv.point(p.series, p.x, p.steady.accepted_load);
    }
  }

  std::cout << "\n## panel 6b_burst_consumption\n";
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
