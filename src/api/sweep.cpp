#include "api/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "api/claim.hpp"
#include "common/csv.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"

namespace dfsim {

namespace {

/// The run shape a point asks for: burst, steady (no phases) or phased.
SimulationRun make_run(const ExperimentPoint& pt, const SimConfig& cfg) {
  if (pt.burst) {
    if (!pt.phases.empty()) {
      throw std::invalid_argument("experiment point \"" + pt.series +
                                  "\": a burst run takes no phase schedule");
    }
    return SimulationRun::burst(cfg);
  }
  if (pt.phases.empty()) return SimulationRun::steady(cfg);
  return SimulationRun::phased(cfg, pt.phases);
}

}  // namespace

ExperimentResult run_experiment_point(const ExperimentPoint& pt,
                                      std::uint64_t seed, std::size_t index,
                                      const SweepOptions& opts) {
  SimConfig cfg = pt.cfg;
  cfg.seed = seed;
  SimulationRun run = make_run(pt, cfg);
  const std::string ckpt =
      (opts.checkpoint_every > 0 && opts.checkpoint_path)
          ? opts.checkpoint_path(index)
          : std::string();
  if (!ckpt.empty() && opts.resume && std::filesystem::exists(ckpt)) {
    std::ifstream is(ckpt, std::ios::binary);
    if (!is) {
      throw std::runtime_error("cannot open checkpoint " + ckpt);
    }
    run.restore(is);
  }
  if (ckpt.empty()) {
    run.run_to_completion();
  } else {
    // Write-to-temp + atomic rename: a checkpoint file either is a
    // complete snapshot or does not exist, never a torn write. The temp
    // name is unique per writer so two claimers racing on one stolen
    // point cannot interleave into the same temp file.
    while (run.advance(opts.checkpoint_every)) {
      const std::string tmp = unique_temp_path(ckpt);
      {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        run.save_checkpoint(os);
        if (!os) {
          throw std::runtime_error("failed to write checkpoint " + tmp);
        }
      }
      std::filesystem::rename(tmp, ckpt);
      if (opts.on_checkpoint) opts.on_checkpoint(index);
    }
    std::error_code ec;
    std::filesystem::remove(ckpt, ec);  // point finished; drop the snapshot
  }

  ExperimentResult r;
  r.series = pt.series;
  r.x = pt.x;
  r.seed = seed;
  r.is_phased = !pt.phases.empty();
  r.is_burst = pt.burst;
  if (r.is_burst) {
    r.burst = run.burst_result();
  } else if (r.is_phased) {
    r.phased = run.phased_result();
    r.steady = r.phased.total;
  } else {
    r.steady = run.steady_result();
  }
  return r;
}

std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentPoint>& points, const SweepOptions& opts) {
  std::vector<ExperimentResult> out(points.size());
  runtime::parallel_for(points.size(), opts.jobs, [&](std::size_t i) {
    out[i] = run_experiment_point(
        points[i], runtime::derive_seed(points[i].cfg.seed, i), i, opts);
  });
  return out;
}

std::vector<ExperimentPoint> sweep_grid(
    const SimConfig& base, const std::vector<std::string>& routings,
    const std::vector<double>& loads) {
  std::vector<ExperimentPoint> points;
  points.reserve(routings.size() * loads.size());
  for (const std::string& routing : routings) {
    for (const double load : loads) {
      ExperimentPoint pt;
      pt.series = routing;
      pt.x = load;
      pt.cfg = base;
      pt.cfg.routing = routing;
      pt.cfg.load = load;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

void print_sweep(std::ostream& out,
                 const std::vector<ExperimentResult>& results, Metric metric,
                 const std::string& x_label) {
  const char* y_label =
      metric == Metric::kLatency ? "avg_latency_cycles" : "accepted_load";
  // The measured offered load and the source-queue drop rate ride along
  // on every row: a saturated point (drop rate > 0, measured offer below
  // the configured x) is otherwise indistinguishable from an accepted-
  // load plateau with healthy sources.
  CsvWriter csv(out, {"series", x_label, y_label, "offered_load_measured",
                      "source_drop_rate"});
  for (const ExperimentResult& p : results) {
    const SteadyResult& r = p.steady;
    const double y =
        metric == Metric::kLatency ? r.avg_latency : r.accepted_load;
    csv.row({p.series, CsvWriter::fmt(p.x), CsvWriter::fmt(y),
             CsvWriter::fmt(r.offered_load),
             CsvWriter::fmt(r.source_drop_rate)});
  }
}

void print_phased(std::ostream& out,
                  const std::vector<ExperimentResult>& results) {
  CsvWriter csv(out, {"series", "cycle_end", "accepted_load",
                      "offered_load_measured", "avg_latency_cycles",
                      "pattern"});
  for (const ExperimentResult& p : results) {
    const PhasedResult& r = p.phased;
    for (const PhaseWindow& w : r.windows) {
      csv.row({p.series, CsvWriter::fmt(static_cast<double>(w.stats.end)),
               CsvWriter::fmt(w.stats.accepted_load),
               CsvWriter::fmt(w.stats.offered_load),
               CsvWriter::fmt(w.stats.avg_latency), w.pattern});
    }
    csv.row({p.series, CsvWriter::fmt(static_cast<double>(r.drain.end)),
             CsvWriter::fmt(r.drain.accepted_load),
             CsvWriter::fmt(r.drain.offered_load),
             CsvWriter::fmt(r.drain.avg_latency), "drain"});
  }
}

std::vector<double> default_loads(double max_load, int points) {
  std::vector<double> loads;
  loads.reserve(static_cast<size_t>(points));
  for (int i = 1; i <= points; ++i) {
    loads.push_back(max_load * static_cast<double>(i) /
                    static_cast<double>(points));
  }
  return loads;
}

}  // namespace dfsim
