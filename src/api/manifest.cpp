#include "api/manifest.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/claim.hpp"
#include "common/bench_json.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/text.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"

namespace dfsim {

namespace {

// The non-blank items of a comma-separated grid axis.
std::vector<std::string> axis_values(const std::string& s) {
  std::vector<std::string> out;
  for (const std::string& item : split(s, ',')) {
    std::string value = trim(item);
    if (!value.empty()) out.push_back(std::move(value));
  }
  return out;
}

// Parse one `phase = cycles=N windows=M [pattern=P] [load=X]` value.
Phase parse_phase_value(const std::string& value) {
  Phase phase;
  bool have_cycles = false;
  std::istringstream is(value);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("phase token '" + token +
                                  "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    const auto number = [&](auto& field) {
      const auto v =
          parse_number<std::remove_reference_t<decltype(field)>>(val);
      if (!v) throw std::invalid_argument("bad phase value '" + token + "'");
      field = *v;
    };
    if (key == "cycles") {
      number(phase.cycles);
      have_cycles = true;
    } else if (key == "windows") {
      number(phase.windows);
    } else if (key == "pattern") {
      phase.pattern = val;
    } else if (key == "load") {
      number(phase.load);
    } else {
      throw std::invalid_argument("unknown phase key '" + key + "'");
    }
  }
  if (!have_cycles) {
    throw std::invalid_argument("phase line is missing cycles=N");
  }
  return phase;
}

std::string point_file(const std::string& run_dir, std::size_t index,
                       const char* ext) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "point_%04zu", index);
  return run_dir + "/" + buf + ext;
}

// Name the first line where the stored manifest and the current one part
// ways — the resume-time drift diagnostic.
std::string drift_line(const std::string& stored, const std::string& current) {
  const std::optional<LineDifference> d =
      first_line_difference(stored, current);
  if (!d) return "no difference";
  return "line " + std::to_string(d->line) + " is \"" + d->a +
         "\" in the run directory but \"" + d->b + "\" in this manifest";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// CSV rows of one completed point, header-less (the merge step writes
// the header once). Steady points are one row; phased points get one row
// per window plus the drain row, print_phased-style.
std::string point_rows(const ExperimentResult& r) {
  std::ostringstream os;
  const std::string prefix =
      r.series + "," + CsvWriter::fmt(r.x) + "," + std::to_string(r.seed);
  if (!r.is_phased) {
    os << prefix << "," << CsvWriter::fmt(r.steady.avg_latency) << ","
       << CsvWriter::fmt(r.steady.accepted_load) << ","
       << CsvWriter::fmt(r.steady.offered_load) << ","
       << CsvWriter::fmt(r.steady.source_drop_rate) << "\n";
    return os.str();
  }
  for (const PhaseWindow& w : r.phased.windows) {
    os << prefix << ","
       << CsvWriter::fmt(static_cast<double>(w.stats.end)) << ","
       << CsvWriter::fmt(w.stats.accepted_load) << ","
       << CsvWriter::fmt(w.stats.offered_load) << ","
       << CsvWriter::fmt(w.stats.avg_latency) << "," << w.pattern << "\n";
  }
  os << prefix << ","
     << CsvWriter::fmt(static_cast<double>(r.phased.drain.end)) << ","
     << CsvWriter::fmt(r.phased.drain.accepted_load) << ","
     << CsvWriter::fmt(r.phased.drain.offered_load) << ","
     << CsvWriter::fmt(r.phased.drain.avg_latency) << ",drain\n";
  return os.str();
}

}  // namespace

Manifest Manifest::parse(const std::string& text) {
  Manifest m;
  for_each_setting(text, "manifest", [&m](const std::string& key,
                                          const std::string& value) {
    if (key == "name") {
      if (value.empty() || value.find_first_of("/\\ \t") != std::string::npos) {
        throw std::invalid_argument(
            "name must be non-empty without slashes or spaces");
      }
      m.name = value;
    } else if (key == "phase") {
      m.phases.push_back(parse_phase_value(value));
    } else if (key.rfind("grid.", 0) == 0) {
      const std::string axis_key = key.substr(5);
      const std::vector<std::string> values = axis_values(value);
      if (values.empty()) {
        throw std::invalid_argument("axis '" + axis_key + "' has no values");
      }
      for (const std::string& v : values) {
        SimConfig probe;  // validates the key and value shape eagerly
        probe.set(axis_key, v);
      }
      m.axes.emplace_back(axis_key, values);
    } else {
      m.base.set(key, value);
    }
  });
  return m;
}

Manifest Manifest::load_file(const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("manifest ") + path + ": " +
                                e.what());
  }
  try {
    return parse(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::vector<ExperimentPoint> Manifest::expand() const {
  std::size_t total = 1;
  for (const auto& [key, values] : axes) total *= values.size();

  std::vector<ExperimentPoint> points;
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    // Odometer decomposition: first axis slowest, last axis fastest —
    // the same routings-major/loads-minor order sweep_grid produces for
    // a (routing, load) grid.
    std::vector<std::size_t> pick(axes.size(), 0);
    std::size_t rem = i;
    for (std::size_t a = axes.size(); a-- > 0;) {
      pick[a] = rem % axes[a].second.size();
      rem /= axes[a].second.size();
    }
    ExperimentPoint pt;
    pt.cfg = base;
    pt.phases = phases;
    bool have_load = false;
    std::string series;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& key = axes[a].first;
      const std::string& value = axes[a].second[pick[a]];
      pt.cfg.set(key, value);
      if (key == "load") {
        have_load = true;
        continue;  // the load axis is the x coordinate, not the series
      }
      if (!series.empty()) series += "/";
      // Bare routing names keep manifest series labels identical to the
      // figure sweeps'; every other axis spells out key=value.
      series += (key == "routing") ? value : key + "=" + value;
    }
    pt.series = series.empty() ? name : series;
    pt.x = have_load ? pt.cfg.load : 0.0;
    points.push_back(std::move(pt));
  }
  return points;
}

std::string Manifest::describe() const {
  std::ostringstream os;
  os << "manifest_version=1\n";
  os << "name=" << name << "\n";
  for (const auto& [key, values] : axes) {
    os << "axis." << key << "=";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ",";
      os << values[i];
    }
    os << "\n";
  }
  for (const Phase& p : phases) {
    os << "phase=cycles=" << p.cycles << " windows=" << p.windows
       << " pattern=" << p.pattern << " load=" << fmt_f64(p.load) << "\n";
  }
  os << base.describe();
  return os.str();
}

Cycle resolve_checkpoint_every(Cycle opt_value) {
  if (opt_value > 0) return opt_value;
  return env_number<Cycle>("DF_CHECKPOINT_EVERY", 20000);
}

namespace {

// Merge in point order: header once, then every ledger file verbatim.
void merge_point_files(const Manifest& m, const std::string& run_dir,
                       std::size_t n_points, const std::string& csv_path) {
  std::ostringstream merged;
  merged << (m.phases.empty()
                 ? "series,x,seed,avg_latency_cycles,accepted_load,"
                   "offered_load_measured,source_drop_rate\n"
                 : "series,x,seed,cycle_end,accepted_load,"
                   "offered_load_measured,avg_latency_cycles,pattern\n");
  for (std::size_t i = 0; i < n_points; ++i) {
    merged << read_file(point_file(run_dir, i, ".csv"));
  }
  write_file_atomic(csv_path, merged.str());
}

}  // namespace

ManifestRunSummary run_manifest(const Manifest& m,
                                const ManifestRunOptions& opts) {
  const auto start = std::chrono::steady_clock::now();

  std::string run_dir = opts.run_dir;
  if (run_dir.empty()) run_dir = env_str("DF_RUN_DIR", "");
  if (run_dir.empty()) run_dir = m.name + ".run";
  std::filesystem::create_directories(run_dir);

  // The ledger is only meaningful against the exact same manifest: a
  // drifted grid or base config silently remapping point indices would
  // merge results from two different experiments. (Two claimers racing
  // to create MANIFEST.txt both atomically rename identical bytes.)
  const std::string desc = m.describe();
  const std::string manifest_path = run_dir + "/MANIFEST.txt";
  if (std::filesystem::exists(manifest_path)) {
    const std::string stored = read_file(manifest_path);
    if (stored != desc) {
      throw std::runtime_error(
          "manifest drift against run directory " + run_dir + ": " +
          drift_line(stored, desc) +
          "; use a fresh run directory or restore the original manifest");
    }
  } else {
    write_file_atomic(manifest_path, desc);
  }

  const std::vector<ExperimentPoint> points = m.expand();
  const double ttl =
      opts.claim_ttl_s > 0.0 ? opts.claim_ttl_s : env_claim_ttl();
  // Unique-suffix temps orphaned by killed writers; the age gate keeps
  // live peers' in-flight temps safe.
  cleanup_stale_temps(run_dir, ttl);

  ManifestRunSummary summary;
  summary.total_points = points.size();
  summary.run_dir = run_dir;
  summary.csv_path = run_dir + "/results.csv";

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (std::filesystem::exists(point_file(run_dir, i, ".csv"))) {
      ++summary.skipped_points;
      // A crash between landing the point file and dropping the
      // checkpoint (or the lease) can orphan either; clean them up here.
      std::error_code ec;
      std::filesystem::remove(point_file(run_dir, i, ".ckpt"), ec);
    } else {
      pending.push_back(i);
    }
  }

  SweepOptions sopts;
  sopts.jobs = opts.jobs;
  sopts.checkpoint_every = resolve_checkpoint_every(opts.checkpoint_every);
  sopts.checkpoint_path = [&run_dir](std::size_t index) {
    return point_file(run_dir, index, ".ckpt");
  };
  sopts.resume = true;

  std::mutex log_mu;
  if (!opts.claim) {
    // Single-process mode: the pending set is fixed, shard it statically
    // across the thread pool (the historical path, byte-for-byte).
    std::size_t done = 0;
    runtime::parallel_for(pending.size(), opts.jobs, [&](std::size_t k) {
      const std::size_t i = pending[k];
      const ExperimentResult r = run_experiment_point(
          points[i], runtime::derive_seed(points[i].cfg.seed, i), i, sopts);
      write_file_atomic(point_file(run_dir, i, ".csv"), point_rows(r));
      if (opts.log != nullptr) {
        std::lock_guard<std::mutex> lock(log_mu);
        ++done;
        *opts.log << "[" << done << "/" << pending.size() << "] point " << i
                  << " (" << r.series << ") done\n";
      }
    });
    summary.ran_points = pending.size();
  } else {
    // Claim mode: workers (threads here, processes/machines across the
    // fleet) dynamically partition the pending points by taking
    // claim_NNNN leases. A worker keeps scanning until the ledger is
    // complete, stealing expired leases of crashed peers along the way;
    // with no claimable work it backs off and re-polls (no_merge exits
    // instead, leaving the remainder to the peers that hold it).
    std::atomic<std::size_t> ran{0};
    std::atomic<std::size_t> stolen{0};
    std::atomic<std::size_t> logged{0};
    std::mutex error_mu;
    std::exception_ptr first_error;

    auto claim_worker = [&]() {
      PointClaimer claimer(run_dir, ttl);
      SweepOptions wopts = sopts;
      wopts.jobs = 1;
      // The lease heartbeat: every periodic checkpoint re-stamps the
      // claim file, so a live long-running point never expires.
      wopts.on_checkpoint = [&claimer](std::size_t index) {
        claimer.heartbeat(index);
      };
      std::uint64_t backoff_ms = 50;
      const std::uint64_t backoff_cap_ms = std::max<std::uint64_t>(
          1000, static_cast<std::uint64_t>(ttl * 1000.0) / 4);
      while (true) {
        bool did_work = false;
        bool any_incomplete = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const std::string csv = point_file(run_dir, i, ".csv");
          if (std::filesystem::exists(csv)) {
            // A completed point's lease is inert (a claimer that died
            // between landing the csv and unlinking its lease).
            std::error_code ec;
            std::filesystem::remove(claimer.lease_path(i), ec);
            continue;
          }
          any_incomplete = true;
          const PointClaimer::Claim c = claimer.try_claim(i);
          if (c == PointClaimer::Claim::kBusy) continue;
          if (std::filesystem::exists(csv)) {
            // The previous holder landed the csv in the window between
            // our completion scan and winning the lease.
            claimer.release(i);
            continue;
          }
          if (c == PointClaimer::Claim::kStolen) ++stolen;
          const ExperimentResult r = run_experiment_point(
              points[i], runtime::derive_seed(points[i].cfg.seed, i), i,
              wopts);
          write_file_atomic(csv, point_rows(r));
          claimer.release(i);
          ++ran;
          did_work = true;
          backoff_ms = 50;
          if (opts.log != nullptr) {
            std::lock_guard<std::mutex> lock(log_mu);
            *opts.log << "[claimed " << ++logged << "] point " << i << " ("
                      << r.series << ")"
                      << (c == PointClaimer::Claim::kStolen ? " (stolen)"
                                                            : "")
                      << " done\n";
          }
        }
        if (!any_incomplete) break;  // ledger complete — barrier reached
        if (!did_work) {
          if (opts.no_merge) break;  // leave the rest to the peers holding it
          std::this_thread::sleep_for(
              std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min(backoff_ms * 2, backoff_cap_ms);
        }
      }
    };
    auto guarded_worker = [&]() {
      try {
        claim_worker();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    };

    // One claimer per worker; parallel_for hands each its share of the
    // jobs budget.
    const int workers = runtime::resolve_jobs(opts.jobs);
    runtime::parallel_for(static_cast<std::size_t>(workers), workers,
                          [&](std::size_t) { guarded_worker(); });
    if (first_error) std::rethrow_exception(first_error);
    summary.ran_points = ran.load();
    summary.stolen_leases = stolen.load();
  }

  // Merge barrier: results.csv only ever reflects a complete ledger.
  // In claim mode any process that finds every point file present
  // performs the merge (idempotent: identical bytes, atomic rename);
  // one that exits early reports how much is still pending instead.
  std::size_t missing = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!std::filesystem::exists(point_file(run_dir, i, ".csv"))) ++missing;
  }
  summary.pending_points = missing;
  if (missing == 0 && !(opts.claim && opts.no_merge)) {
    merge_point_files(m, run_dir, points.size(), summary.csv_path);
    summary.merged = true;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    append_bench_record("manifest:" + m.name, wall_s,
                        runtime::resolve_jobs(opts.jobs));
  } else if (missing > 0 && opts.log != nullptr) {
    std::lock_guard<std::mutex> lock(log_mu);
    *opts.log << missing << " points still pending; merge deferred\n";
  }
  return summary;
}

}  // namespace dfsim
