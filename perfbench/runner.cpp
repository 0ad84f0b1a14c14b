// One repetition of one benchmark workload, driven through dfsim's public
// API. run.py starts one process per repetition (so peak RSS and set-up
// time are never inherited from an earlier one) and aggregates.
//
//   perfbench_runner --workload sweep_h4|scale_h8|wormhole_h6 --seed N
//                    --mode plain|trace|reference --tmp DIR [--spans FILE]
//
// plain      the end-to-end repetition: set-up, run, host-time metrics.
// trace      an untraced pass (timed, like plain) and a traced rebuild of
//            every point with the routing/traffic decorators swapped in;
//            prints the per-layer metrics and checks that both passes
//            simulated exactly the same thing.
// reference  full-precision simulated results of every point, for
//            perfbench/reference.json.
//
// Prints one JSON object on stdout. Every DF_* variable is scrubbed at
// start-up (DF_BENCH_JSON is pointed into --tmp), so a developer's shell
// cannot change what is measured.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "api/manifest.hpp"
#include "api/sweep.hpp"
#include "common/bench_json.hpp"
#include "common/csv.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dfsim::Cycle;

// --- workloads ------------------------------------------------------------
// Sizes are chosen so one repetition takes a few host seconds on a 4-core
// machine: long enough that set-up and scheduling noise stay small, short
// enough that a run can take the median of several repetitions.

constexpr int kJobs = 4;  // the machine budget: one process, <= 4 threads
// setup_s is the median of this many builds per repetition: a single
// build takes milliseconds, so one sample would be mostly page-fault noise.
constexpr int kSetupReps = 21;

// fig05-style grid through the manifest runner (the df_run path).
constexpr Cycle kSweepWarmup = 1000;
constexpr Cycle kSweepMeasure = 2000;
constexpr Cycle kSweepCheckpointEvery = 750;  // three checkpoints per point
// uniform/olm@0.9 finishes last; 15-cycle slices give 200 advance() samples.
constexpr const char* kSweepStraggler = "pattern=uniform/olm@0.9";
constexpr Cycle kSweepSlice = 15;

dfsim::Manifest sweep_manifest(std::uint64_t seed) {
  std::ostringstream text;
  text << "name = sweep_h4\n"
       << "h = 4\n"
       << "warmup_cycles = " << kSweepWarmup << "\n"
       << "measure_cycles = " << kSweepMeasure << "\n"
       << "seed = " << seed << "\n"
       << "grid.pattern = uniform, advg\n"
       << "grid.routing = minimal, valiant, olm, pb\n"
       << "grid.load = 0.3, 0.6, 0.9\n";
  return dfsim::Manifest::parse(text.str());
}

dfsim::SimConfig scale_config(std::uint64_t seed) {
  dfsim::SimConfig cfg;
  cfg.h = 8;
  cfg.engine = "sharded";
  cfg.routing = "olm";
  cfg.pattern = "uniform";
  cfg.load = 0.3;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 2500;
  cfg.seed = seed;
  return cfg;
}

dfsim::SimConfig wormhole_config(std::uint64_t seed) {
  dfsim::SimConfig cfg;
  cfg.h = 6;
  cfg.flow = dfsim::FlowControl::kWormhole;
  cfg.packet_phits = 80;
  cfg.flit_phits = 10;
  cfg.pattern = "mixed";  // ADVG+h / ADVL+1, half each
  cfg.routing = "rlm";
  cfg.load = 0.35;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 4000;
  cfg.seed = seed;
  return cfg;
}

// --- small helpers ----------------------------------------------------------

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double cpu_seconds() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest-rank.
  const auto n = static_cast<double>(v.size());
  std::size_t k = static_cast<std::size_t>(q * n + 0.999999);
  if (k < 1) k = 1;
  if (k > v.size()) k = v.size();
  return v[k - 1];
}

/// A point as it is reported: full precision, or the %.6g strings of the
/// manifest's results.csv.
struct Reported {
  std::string label;
  std::uint64_t seed = 0;
  bool full = true;
  std::uint64_t delivered = 0;
  std::string accepted_load;
  std::string avg_latency;
  bool deadlock = false;
};

Reported reported(const PointResult& r) {
  return {r.label,          r.seed,          true, r.delivered,
          g17(r.accepted_load), g17(r.avg_latency), r.deadlock};
}

struct Failure {
  std::string point;
  std::string field;
  std::string detail;
};

class Json {
 public:
  void key(const std::string& k) {
    sep();
    os_ << '"' << dfsim::json_escape(k) << "\":";
    fresh_ = true;
  }
  void str(const std::string& v) {
    sep();
    os_ << '"' << dfsim::json_escape(v) << '"';
  }
  void num(double v) {
    sep();
    os_ << g17(v);
  }
  void u64(std::uint64_t v) {
    sep();
    os_ << v;
  }
  void boolean(bool v) {
    sep();
    os_ << (v ? "true" : "false");
  }
  void open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
  }
  void close(char c) {
    os_ << c;
    fresh_ = false;
  }
  std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

void emit_points(Json& j, const std::vector<Reported>& pts) {
  j.key("points");
  j.open('[');
  for (const Reported& p : pts) {
    j.open('{');
    j.key("label");
    j.str(p.label);
    j.key("seed");
    j.str(std::to_string(p.seed));
    j.key("precision");
    j.str(p.full ? "full" : "6g");
    if (p.full) {
      j.key("delivered");
      j.u64(p.delivered);
      j.key("deadlock");
      j.boolean(p.deadlock);
    }
    j.key("accepted_load");
    j.str(p.accepted_load);
    j.key("avg_latency");
    j.str(p.avg_latency);
    j.close('}');
  }
  j.close(']');
}

void emit_failures(Json& j, const std::vector<Failure>& fails) {
  j.key("failures");
  j.open('[');
  for (const Failure& f : fails) {
    j.open('{');
    j.key("point");
    j.str(f.point);
    j.key("field");
    j.str(f.field);
    j.key("detail");
    j.str(f.detail);
    j.close('}');
  }
  j.close(']');
}

void emit_numbers(Json& j, const char* name,
                  const std::vector<std::pair<std::string, double>>& kv) {
  j.key(name);
  j.open('{');
  for (const auto& [k, v] : kv) {
    j.key(k);
    j.num(v);
  }
  j.close('}');
}

void check_same(const PointResult& a, const PointResult& b,
                const std::string& what, std::vector<Failure>& fails) {
  const std::string field = first_difference(a, b);
  if (!field.empty()) fails.push_back({a.label, field, what});
}

// --- the sweep workload -----------------------------------------------------

std::string point_label(const dfsim::ExperimentPoint& pt) {
  return pt.series + "@" + dfsim::CsvWriter::fmt(pt.x);
}

struct SweepPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Reported> points;  // %.6g, parsed from results.csv
};

/// The untraced sweep: run_manifest with 4 workers and periodic
/// checkpoints into a fresh run directory, exactly as df_run does it.
SweepPass run_sweep_manifest(const dfsim::Manifest& m, const std::string& tmp,
                             std::vector<Failure>& fails) {
  SweepPass out;
  dfsim::ManifestRunOptions opts;
  opts.run_dir = tmp + "/sweep_h4.run";
  std::filesystem::remove_all(opts.run_dir);
  opts.jobs = kJobs;
  opts.checkpoint_every = kSweepCheckpointEvery;
  const double c0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const dfsim::ManifestRunSummary s = dfsim::run_manifest(m, opts);
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - c0;

  const std::vector<dfsim::ExperimentPoint> pts = m.expand();
  std::ifstream in(s.csv_path);
  std::string line;
  std::getline(in, line);  // header
  std::size_t i = 0;
  while (std::getline(in, line)) {
    // series,x,seed,avg_latency_cycles,accepted_load,offered,drop_rate
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) f.push_back(cell);
    if (f.size() != 7 || i >= pts.size()) {
      fails.push_back({"results.csv", "row", line});
      break;
    }
    Reported r;
    r.label = f[0] + "@" + f[1];
    r.seed = std::stoull(f[2]);
    r.full = false;
    r.avg_latency = f[3];
    r.accepted_load = f[4];
    if (r.label != point_label(pts[i])) {
      fails.push_back({r.label, "label", "results.csv order"});
    }
    out.points.push_back(r);
    ++i;
  }
  if (out.points.size() != pts.size()) {
    fails.push_back({"results.csv", "rows",
                     std::to_string(out.points.size()) + " of " +
                         std::to_string(pts.size())});
  }
  return out;
}

/// Set-up probe: SimulationRun::steady built for every point, serially
/// (construction only; each run is dropped untimed).
double sweep_setup_s(const dfsim::Manifest& m) {
  const std::vector<dfsim::ExperimentPoint> pts = m.expand();
  double total = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    dfsim::SimConfig cfg = pts[i].cfg;
    cfg.seed = dfsim::runtime::derive_seed(pts[i].cfg.seed, i);
    const std::uint64_t t0 = now_ns();
    dfsim::SimulationRun run = dfsim::SimulationRun::steady(cfg);
    total += seconds_since(t0);
  }
  return total;
}

double sweep_cycles(const dfsim::Manifest& m) {
  return static_cast<double>(m.expand().size()) *
         static_cast<double>(kSweepWarmup + kSweepMeasure);
}

// --- single-point workloads ---------------------------------------------------

struct SinglePass {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_ms;  // per advance() slice (slice > 0 only)
  PointResult result;
};

/// The untraced single point: SimulationRun::steady, then advance() in
/// `slice`-cycle slices (0 = run_to_completion).
SinglePass run_single(const dfsim::SimConfig& cfg, int jobs, Cycle slice) {
  dfsim::runtime::set_default_jobs(jobs);  // the sharded engine's workers
  SinglePass out;
  const double c0 = cpu_seconds();
  std::uint64_t t0 = now_ns();
  dfsim::SimulationRun run = dfsim::SimulationRun::steady(cfg);
  out.setup_s = seconds_since(t0);
  t0 = now_ns();
  if (slice == 0) {
    run.run_to_completion();
  } else {
    for (;;) {
      const std::uint64_t s0 = now_ns();
      const bool more = run.advance(slice);
      out.slice_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      if (!more) break;
    }
  }
  out.run_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - c0;
  out.result = steady_outcome(run, cfg.seed);
  out.result.label = "point";
  return out;
}

/// Median construction time of `reps` SimulationRun::steady builds.
double single_setup_s(const dfsim::SimConfig& cfg, int jobs, int reps) {
  dfsim::runtime::set_default_jobs(jobs);
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    dfsim::SimulationRun run = dfsim::SimulationRun::steady(cfg);
    t.push_back(seconds_since(t0));
  }
  return percentile(t, 0.5);
}

dfsim::SimConfig single_config(const std::string& workload,
                               std::uint64_t seed) {
  return workload == "scale_h8" ? scale_config(seed) : wormhole_config(seed);
}

int single_jobs(const std::string& workload) {
  return workload == "scale_h8" ? kJobs : 1;
}

// --- per-layer metrics --------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

Metrics layer_metrics(const LayerTotals& t, const std::vector<double>& slices,
                      const std::vector<double>& point_s, double traced_wall_s,
                      int sweep_workers, double cpu_util,
                      double trace_overhead) {
  const RoutingCounters& r = t.routing;
  const std::uint64_t nested = r.decide_ns + r.per_cycle_ns +
                               t.traffic.dest_ns + t.on_delivered_ns;
  const std::uint64_t self = t.step_ns > nested ? t.step_ns - nested : 0;
  double busy = 0.0;
  for (const double s : point_s) busy += s;
  return {
      {"topology.build_s", t.topology_build_s},
      {"api.validate_s", t.validate_s},
      {"api.advance_ms_p50", percentile(slices, 0.50)},
      {"api.advance_ms_p90", percentile(slices, 0.90)},
      {"api.advance_samples", static_cast<double>(slices.size())},
      {"sim.build_s", t.sim_build_s},
      {"sim.steps", static_cast<double>(t.steps)},
      {"sim.step_ns", per(t.step_ns, t.steps)},
      {"sim.self_ns", per(self, t.steps)},
      {"sim.footprint_mb", t.footprint_mb},
      {"sim.in_flight_avg", per(t.in_flight_sum, t.steps)},
      {"sim.phits_sent_local", static_cast<double>(t.phits_sent[0])},
      {"sim.phits_sent_global", static_cast<double>(t.phits_sent[1])},
      {"sim.phits_sent_terminal", static_cast<double>(t.phits_sent[2])},
      {"sim.checkpoint_save_s", t.checkpoint_save_s},
      {"sim.checkpoint_bytes", static_cast<double>(t.checkpoint_bytes)},
      {"routing.decide_calls", static_cast<double>(r.decide_calls)},
      {"routing.decide_ns", per(r.decide_ns, r.decide_calls)},
      {"routing.fresh_calls", static_cast<double>(r.fresh_calls)},
      {"routing.pure_share", per(r.pure, r.fresh_calls)},
      {"routing.wait_share", per(r.waits, r.decide_calls)},
      {"routing.hops", static_cast<double>(r.hops)},
      {"routing.valiant_commits", static_cast<double>(r.valiant_commits)},
      {"routing.local_misroutes", static_cast<double>(r.local_misroutes)},
      {"routing.per_cycle_ns", per(r.per_cycle_ns, t.steps)},
      {"traffic.dest_calls", static_cast<double>(t.traffic.dest_calls)},
      {"traffic.dest_ns", per(t.traffic.dest_ns, t.traffic.dest_calls)},
      {"traffic.generated", static_cast<double>(t.generated)},
      {"traffic.source_drop_share", per(t.source_drops, t.generated)},
      {"metrics.deliveries", static_cast<double>(t.deliveries)},
      {"metrics.on_delivered_ns", per(t.on_delivered_ns, t.deliveries)},
      {"runtime.point_s_p50", percentile(point_s, 0.50)},
      {"runtime.point_s_max", percentile(point_s, 1.0)},
      {"runtime.sweep_efficiency",
       traced_wall_s > 0.0
           ? busy / (static_cast<double>(sweep_workers) * traced_wall_s)
           : 0.0},
      {"runtime.cpu_util", cpu_util},
      {"trace.overhead", trace_overhead},
  };
}

/// The sharded engine's phase profiler, per profiled step. Only the
/// sharded engine has one, so these exist on scale_h8 alone and are
/// printed beside the per-layer metrics rather than among them.
Metrics profiler_metrics(const LayerTotals& t) {
  const dfsim::Engine::PhaseProfile& p = t.profile;
  const std::uint64_t nested = t.routing.decide_ns + t.traffic.dest_ns;
  const std::uint64_t other = p.alloc_ns > nested ? p.alloc_ns - nested : 0;
  return {
      {"sim.arrive_ns", per(p.arrive_ns, p.steps)},
      {"sim.deliver_ns", per(p.deliver_ns, p.steps)},
      {"sim.alloc_ns", per(p.alloc_ns, p.steps)},
      {"sim.flush_ns", per(p.flush_ns, p.steps)},
      {"sim.serial_fraction", p.serial_fraction()},
      {"sim.alloc_other_ns", per(other, p.steps)},
  };
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::trunc);
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"name\":\"" << s.name << "\",\"point\":" << s.point
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// --- modes --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "plain";
  std::string tmp;
  std::string spans;
};

std::string plain(const Args& a, std::vector<Reported>& pts,
                  std::vector<Failure>& fails) {
  Metrics m;
  if (a.workload == "sweep_h4") {
    const dfsim::Manifest man = sweep_manifest(a.seed);
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) setups.push_back(sweep_setup_s(man));
    const double setup_s = percentile(setups, 0.5);
    const SweepPass p = run_sweep_manifest(man, a.tmp, fails);
    pts = p.points;
    m = {{"wall_s", p.wall_s},
         {"setup_s", setup_s},
         {"cycles_per_s", sweep_cycles(man) / p.wall_s}};
  } else {
    const dfsim::SimConfig cfg = single_config(a.workload, a.seed);
    const int jobs = single_jobs(a.workload);
    const double setup_s = single_setup_s(cfg, jobs, kSetupReps);
    const SinglePass p = run_single(cfg, jobs, 0);
    pts.push_back(reported(p.result));
    if (p.result.deadlock) fails.push_back({"point", "deadlock", "untraced"});
    m = {{"wall_s", p.setup_s + p.run_s},
         {"setup_s", setup_s},
         {"cycles_per_s", static_cast<double>(p.result.cycles) / p.run_s}};
  }
  m.push_back({"peak_rss_mb", static_cast<double>(dfsim::peak_rss_bytes()) /
                                  (1024.0 * 1024.0)});
  Json j;
  emit_numbers(j, "metrics", m);
  return j.text();
}

std::string trace(const Args& a, std::vector<Reported>& pts,
                  std::vector<Failure>& fails) {
  std::vector<Span> spans;
  LayerTotals totals;
  Metrics layers;
  if (a.workload == "sweep_h4") {
    const dfsim::Manifest man = sweep_manifest(a.seed);
    const SweepPass untraced = run_sweep_manifest(man, a.tmp, fails);

    const std::vector<dfsim::ExperimentPoint> points = man.expand();
    std::vector<PointResult> results(points.size());
    std::vector<LayerTotals> per_point(points.size());
    std::vector<std::vector<Span>> per_spans(points.size());
    std::vector<double> busy(points.size(), 0.0);
    std::vector<Failure> point_fails;
    std::mutex mu;
    const std::uint64_t t0 = now_ns();
    dfsim::runtime::parallel_for(points.size(), kJobs, [&](std::size_t i) {
      dfsim::SimConfig cfg = points[i].cfg;
      cfg.seed = dfsim::runtime::derive_seed(points[i].cfg.seed, i);
      TraceOptions opt;
      opt.checkpoint_every = kSweepCheckpointEvery;
      opt.checkpoint_path = a.tmp + "/trace_point_" + std::to_string(i) + ".ckpt";
      opt.point_index = i;
      const std::uint64_t p0 = now_ns();
      try {
        results[i] = run_traced_point(cfg, opt, per_point[i], per_spans[i]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        point_fails.push_back({point_label(points[i]), "exception", e.what()});
      }
      busy[i] = seconds_since(p0);
      results[i].label = point_label(points[i]);
    });
    const double traced_wall = seconds_since(t0);
    fails.insert(fails.end(), point_fails.begin(), point_fails.end());
    for (std::size_t i = 0; i < points.size(); ++i) {
      totals.add(per_point[i]);
      spans.insert(spans.end(), per_spans[i].begin(), per_spans[i].end());
      pts.push_back(reported(results[i]));
      if (results[i].deadlock) {
        fails.push_back({results[i].label, "deadlock", "traced"});
      }
      // The untraced pass reports %.6g; the traced one must print the same.
      if (i < untraced.points.size()) {
        const Reported& u = untraced.points[i];
        if (u.accepted_load !=
            dfsim::CsvWriter::fmt(results[i].accepted_load)) {
          fails.push_back({u.label, "accepted_load", "traced vs untraced"});
        }
        if (u.avg_latency != dfsim::CsvWriter::fmt(results[i].avg_latency)) {
          fails.push_back({u.label, "avg_latency", "traced vs untraced"});
        }
        if (u.seed != results[i].seed) {
          fails.push_back({u.label, "seed", "traced vs untraced"});
        }
      }
    }
    // The manifest drives advance() internally, so the api layer is timed
    // on the grid's straggler point, replayed untraced in fixed slices.
    const auto straggler =
        std::find_if(points.begin(), points.end(), [](const auto& pt) {
          return point_label(pt) == kSweepStraggler;
        });
    const std::size_t si =
        static_cast<std::size_t>(straggler - points.begin());
    dfsim::SimConfig scfg = straggler->cfg;
    scfg.seed = dfsim::runtime::derive_seed(straggler->cfg.seed, si);
    SinglePass probe = run_single(scfg, 1, kSweepSlice);
    probe.result.label = results[si].label;
    check_same(probe.result, results[si], "advance() probe vs traced", fails);
    layers = layer_metrics(totals, probe.slice_ms, busy, traced_wall, kJobs,
                           untraced.cpu_s / (untraced.wall_s * kJobs),
                           traced_wall / untraced.wall_s - 1.0);
  } else {
    const dfsim::SimConfig cfg = single_config(a.workload, a.seed);
    const int jobs = single_jobs(a.workload);
    const Cycle total = cfg.warmup_cycles + cfg.measure_cycles;
    const Cycle slice = std::max<Cycle>(1, total / 200);
    const SinglePass untraced = run_single(cfg, jobs, slice);
    if (untraced.result.deadlock) {
      fails.push_back({"point", "deadlock", "untraced"});
    }
    // The overhead baseline runs at the traced worker count (1).
    const SinglePass baseline =
        jobs == 1 ? untraced : run_single(cfg, 1, slice);
    if (jobs != 1) {
      check_same(baseline.result, untraced.result,
                 "untraced 1 vs " + std::to_string(jobs) + " shard workers",
                 fails);
    }
    TraceOptions opt;
    opt.profile = cfg.engine == "sharded";
    opt.slice = slice;
    // These runs do not checkpoint; one mid-run save prices what a
    // checkpoint of this shape would cost.
    opt.checkpoint_every = total / 2;
    opt.checkpoint_path = a.tmp + "/trace_point.ckpt";
    const std::uint64_t t0 = now_ns();
    PointResult traced = run_traced_point(cfg, opt, totals, spans);
    const double traced_wall = seconds_since(t0);
    traced.label = "point";
    check_same(traced, untraced.result, "traced vs untraced", fails);
    pts.push_back(reported(traced));
    const double untraced_wall = untraced.setup_s + untraced.run_s;
    const double baseline_wall = baseline.setup_s + baseline.run_s;
    layers = layer_metrics(totals, untraced.slice_ms, {untraced_wall},
                           untraced_wall, 1,
                           untraced.cpu_s / (untraced_wall * jobs),
                           traced_wall / baseline_wall - 1.0);
  }
  write_spans(a.spans, spans);
  Json j;
  emit_numbers(j, "layers", layers);
  if (totals.profile.steps > 0) {
    emit_numbers(j, "profiler", profiler_metrics(totals));
  }
  return j.text();
}

std::string reference(const Args& a, std::vector<Reported>& pts,
                      std::vector<Failure>& fails) {
  if (a.workload == "sweep_h4") {
    const dfsim::Manifest man = sweep_manifest(a.seed);
    const std::vector<dfsim::ExperimentPoint> points = man.expand();
    dfsim::SweepOptions opts;
    opts.jobs = kJobs;
    const std::vector<dfsim::ExperimentResult> rs =
        dfsim::run_experiments(points, opts);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      PointResult r;
      r.label = point_label(points[i]);
      r.seed = rs[i].seed;
      r.delivered = rs[i].steady.delivered;
      r.accepted_load = rs[i].steady.accepted_load;
      r.avg_latency = rs[i].steady.avg_latency;
      r.deadlock = rs[i].steady.deadlock;
      if (r.deadlock) fails.push_back({r.label, "deadlock", "reference"});
      pts.push_back(reported(r));
    }
  } else {
    const SinglePass p = run_single(single_config(a.workload, a.seed),
                                    single_jobs(a.workload), 0);
    if (p.result.deadlock) fails.push_back({"point", "deadlock", "reference"});
    pts.push_back(reported(p.result));
  }
  return "";
}

/// Drop every DF_* knob src/ reads (engine, jobs, profiler, shard
/// assignment, barrier spin, checkpoint cadence, run dir, bench_defaults)
/// and send the manifest's BENCH record into the scratch directory.
void scrub_environment(const std::string& tmp) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("DF_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("DF_BENCH_JSON", (tmp + "/BENCH_sweep.json").c_str(), 1);
}

int usage() {
  std::cerr << "usage: perfbench_runner --workload sweep_h4|scale_h8|"
               "wormhole_h6 --seed N --mode plain|trace|reference --tmp DIR "
               "[--spans FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--mode") a.mode = v;
    else if (k == "--tmp") a.tmp = v;
    else if (k == "--spans") a.spans = v;
    else return usage();
  }
  if ((a.workload != "sweep_h4" && a.workload != "scale_h8" &&
       a.workload != "wormhole_h6") ||
      (a.mode != "plain" && a.mode != "trace" && a.mode != "reference") ||
      a.tmp.empty()) {
    return usage();
  }
  scrub_environment(a.tmp);

  std::vector<Reported> pts;
  std::vector<Failure> fails;
  std::string body;
  try {
    if (a.mode == "plain") body = plain(a, pts, fails);
    else if (a.mode == "trace") body = trace(a, pts, fails);
    else body = reference(a, pts, fails);
  } catch (const std::exception& e) {
    fails.push_back({a.workload, "exception", e.what()});
  }

  Json j;
  j.open('{');
  j.key("workload");
  j.str(a.workload);
  j.key("mode");
  j.str(a.mode);
  emit_points(j, pts);
  emit_failures(j, fails);
  std::string out = j.text();
  if (!body.empty()) out += "," + body;
  out += "}";
  std::cout << out << std::endl;
  return 0;
}
