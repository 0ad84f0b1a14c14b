#include "api/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <mutex>
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
  std::mutex progress_mu;
  std::size_t completed = 0;
  runtime::parallel_for(points.size(), opts.jobs, [&](std::size_t i) {
    const std::uint64_t seed = opts.derive_seeds
                                   ? runtime::derive_seed(points[i].cfg.seed, i)
                                   : points[i].cfg.seed;
    out[i] = run_experiment_point(points[i], seed, i, opts);
    if (opts.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.progress(++completed, points.size());
    }
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

namespace {

// Shared CSV row emitters behind the public printers.
void sweep_rows(std::ostream& out, Metric metric, const std::string& x_label,
                std::size_t n,
                const std::function<void(std::size_t, std::string&, double&,
                                         SteadyResult&)>& get) {
  const char* y_label =
      metric == Metric::kLatency ? "avg_latency_cycles" : "accepted_load";
  // The measured offered load and the source-queue drop rate ride along
  // on every row: a saturated point (drop rate > 0, measured offer below
  // the configured x) is otherwise indistinguishable from an accepted-
  // load plateau with healthy sources.
  CsvWriter csv(out, {"series", x_label, y_label, "offered_load_measured",
                      "source_drop_rate"});
  for (std::size_t i = 0; i < n; ++i) {
    std::string series;
    double x = 0.0;
    SteadyResult r;
    get(i, series, x, r);
    const double y =
        metric == Metric::kLatency ? r.avg_latency : r.accepted_load;
    csv.row({series, CsvWriter::fmt(x), CsvWriter::fmt(y),
             CsvWriter::fmt(r.offered_load),
             CsvWriter::fmt(r.source_drop_rate)});
  }
}

void phased_rows(std::ostream& out, std::size_t n,
                 const std::function<void(std::size_t, std::string&,
                                          PhasedResult&)>& get) {
  CsvWriter csv(out, {"series", "cycle_end", "accepted_load",
                      "offered_load_measured", "avg_latency_cycles",
                      "pattern"});
  for (std::size_t i = 0; i < n; ++i) {
    std::string series;
    PhasedResult r;
    get(i, series, r);
    for (const PhaseWindow& w : r.windows) {
      csv.row({series, CsvWriter::fmt(static_cast<double>(w.stats.end)),
               CsvWriter::fmt(w.stats.accepted_load),
               CsvWriter::fmt(w.stats.offered_load),
               CsvWriter::fmt(w.stats.avg_latency), w.pattern});
    }
    csv.row({series, CsvWriter::fmt(static_cast<double>(r.drain.end)),
             CsvWriter::fmt(r.drain.accepted_load),
             CsvWriter::fmt(r.drain.offered_load),
             CsvWriter::fmt(r.drain.avg_latency), "drain"});
  }
}

}  // namespace

void print_sweep(std::ostream& out,
                 const std::vector<ExperimentResult>& results, Metric metric,
                 const std::string& x_label) {
  sweep_rows(out, metric, x_label, results.size(),
             [&](std::size_t i, std::string& series, double& x,
                 SteadyResult& r) {
               series = results[i].series;
               x = results[i].x;
               r = results[i].steady;
             });
}

void print_phased(std::ostream& out,
                  const std::vector<ExperimentResult>& results) {
  phased_rows(out, results.size(),
              [&](std::size_t i, std::string& series, PhasedResult& r) {
                series = results[i].series;
                r = results[i].phased;
              });
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
