// Multi-job interference under placement policies (not a paper figure —
// the paper stops at synthetic single-pattern traffic): four concurrent
// jobs run the same collective motif, once packed onto contiguous
// terminal blocks and once scattered by a seeded random placement, on a
// healthy and on a degraded network. Contiguous ring traffic is
// neighbor-local and every mechanism serves it; random placement turns
// each ring edge into a random inter-group flow, so a few global links
// pick up several flows at once — a hotspot Minimal is wired into while
// the in-transit adaptive mechanisms (OLM, PB) route around it. The CSV
// is per-job: each row is one job's accepted load and latency, so the
// interference (which job starves, which placement collides) is visible
// rather than averaged away.
//
// Knobs: DF_MOTIF sets the per-job motif (default ring-allreduce),
// DF_LOAD the offered load (default 0.45), DF_JOBS_N the job count
// (default 4), DF_FAULT_FRACTION the degraded panel's failure fraction
// (default 0.1, sampled with DF_FAULT_SEED).
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "traffic/workload.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("fig_interference", argc, argv);
  SimConfig cfg = bench_defaults();
  cfg.load = env_number("DF_LOAD", 0.45);
  const std::string motif = env_str("DF_MOTIF", "ring-allreduce");
  const int jobs_n = env_number("DF_JOBS_N", 4);
  const double fault_fraction = env_number("DF_FAULT_FRACTION", 0.1);
  // Balanced shapes wire exactly one global link per group pair, so the
  // never-disconnect fault sampler has nothing it may kill there; default
  // to the twice-trunked sibling unless the user pinned a shape (the same
  // choice fig_fault_degradation makes).
  if (cfg.topo.empty() && cfg.g == 0) {
    const TopoParams tp = cfg.topo_params();
    cfg.g = tp.a * tp.h / 2 + 1;
  }
  cfg.fault_spec.clear();

  bench::banner("Interference: " + std::to_string(jobs_n) + " " + motif +
                    " jobs, contiguous vs random placement @" +
                    std::to_string(cfg.load),
                cfg);
  std::cout << "# workload knobs: DF_MOTIF, DF_JOBS_N, DF_FAULT_FRACTION, "
               "DF_FAULT_SEED\n";

  const std::vector<std::string> lineup = {"minimal", "valiant", "olm",
                                           "pb"};
  const std::vector<std::string> placements = {"contig", "random"};
  struct Network {
    const char* id;
    double fraction;
  };
  const std::vector<Network> networks = {{"healthy", 0.0},
                                         {"faulted", fault_fraction}};

  std::cout << "\nplacement,network,routing,job,terminals,delivered,"
               "accepted_load,avg_latency,total_accepted\n";
  const DragonflyTopology topo = cfg.make_topology();
  for (const std::string& place : placements) {
    const std::string spec =
        "jobs:" + std::to_string(jobs_n) + ":place=" + place + ":" + motif;
    // One build up front for the job labels and sizes; the per-point
    // engines resolve the same spec (and the same partition — placement
    // is seeded by the spec, not by the run seed) themselves.
    const auto wl = make_workload(&topo, spec);
    const std::vector<std::int32_t> sizes = wl->job_sizes();

    std::vector<ExperimentPoint> grid;
    for (const Network& net : networks) {
      for (const std::string& routing : lineup) {
        ExperimentPoint pt;
        pt.series = place + "/" + net.id + "/" + routing;
        pt.cfg = cfg;
        pt.cfg.routing = routing;
        pt.cfg.workload = spec;
        pt.cfg.fault_fraction = net.fraction;
        grid.push_back(std::move(pt));
      }
    }
    const auto results = run_experiments(grid);
    std::size_t i = 0;
    for (const Network& net : networks) {
      for (const std::string& routing : lineup) {
        const SteadyResult& r = results[i++].steady;
        for (std::size_t j = 0; j < r.per_job.size(); ++j) {
          const TrafficWindow& w = r.per_job[j];
          std::printf("%s,%s,%s,%s,%d,%llu,%.6f,%.3f,%.6f\n",
                      place.c_str(), net.id, routing.c_str(),
                      wl->job_label(static_cast<int>(j)).c_str(),
                      static_cast<int>(sizes[j]),
                      static_cast<unsigned long long>(w.delivered),
                      w.accepted_load, w.avg_latency, r.accepted_load);
        }
      }
    }
  }
  return 0;
}
