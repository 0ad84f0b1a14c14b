// df_run: execute (or resume) an experiment manifest.
//
//   df_run <manifest-file> [--jobs=N] [--run-dir=DIR]
//          [--checkpoint-every=CYCLES] [--dry-run]
//          [--claim] [--claim-ttl=SECONDS] [--no-merge]
//   df_run --list-traffic | --list-routing | --list-workloads
//
// The manifest grammar and the run-directory ledger layout are
// documented in src/api/manifest.hpp. Re-running the same command after
// a crash (or a SIGKILL) skips every completed point, restores the
// in-flight point from its periodic checkpoint, and produces a merged
// results.csv byte-identical to an uninterrupted run.
//
// --claim turns on work-stealing mode (src/api/claim.hpp): N df_run
// processes — across machines sharing the run directory — partition
// the pending points dynamically via claim_NNNN lease files, steal
// leases of crashed peers after --claim-ttl seconds (DF_CLAIM_TTL,
// default 60), and whichever process finds the ledger complete
// performs the merge. --no-merge exits as soon as no point is
// claimable, reporting how many points peers still hold. The --list-*
// flags print each registry (key, alias, one-line spec help) and exit.
// Environment: DF_RUN_DIR (default run directory), DF_CHECKPOINT_EVERY
// (checkpoint cadence in cycles, default 20000), DF_CLAIM_TTL (lease
// TTL in seconds), DF_JOBS (worker count).
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "api/manifest.hpp"
#include "common/text.hpp"
#include "routing/factory.hpp"
#include "runtime/seed.hpp"
#include "traffic/factory.hpp"
#include "traffic/workload.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <manifest-file> [--jobs=N] [--run-dir=DIR]\n"
               "          [--checkpoint-every=CYCLES] [--dry-run]\n"
               "          [--claim] [--claim-ttl=SECONDS] [--no-merge]\n"
               "       %s --list-traffic | --list-routing | --list-workloads\n",
               argv0, argv0);
  return 2;
}

/// Reads the non-negative number after "--flag=" (`prefix_len` chars)
/// into `out`; false, after a message naming the flag, on anything else.
template <class T>
bool flag_value(const char* arg, std::size_t prefix_len, T& out) {
  const std::optional<T> v = dfsim::parse_number<T>(arg + prefix_len);
  if (!v || !(*v >= T{})) {  // negated so NaN fails too
    std::fprintf(stderr, "df_run: %.*s expects a non-negative number, got "
                 "\"%s\"\n", static_cast<int>(prefix_len - 1), arg,
                 arg + prefix_len);
    return false;
  }
  out = *v;
  return true;
}

void print_row(const char* key, const char* alias, const char* help) {
  std::string name = key;
  if (alias[0] != '\0') {
    name += " (";
    name += alias;
    name += ")";
  }
  std::printf("  %-22s %s\n", name.c_str(), help);
}

int list_traffic() {
  std::printf("traffic patterns (DF_TRAFFIC / cfg.pattern specs):\n");
  for (const auto& e : dfsim::traffic_pattern_registry()) {
    print_row(e.key, e.alias, e.help);
  }
  return 0;
}

int list_routing() {
  std::printf("routing mechanisms (DF_ROUTING / cfg.routing names):\n");
  for (const auto& e : dfsim::routing_registry()) {
    print_row(e.key, e.alias, e.help);
  }
  return 0;
}

int list_workloads() {
  std::printf("workloads (DF_WORKLOAD / cfg.workload specs):\n");
  for (const auto& e : dfsim::workload_registry()) {
    print_row(e.key, e.alias, e.help);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfsim;

  std::string manifest_path;
  ManifestRunOptions opts;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!flag_value(arg, 7, opts.jobs)) return usage(argv[0]);
    } else if (std::strncmp(arg, "--run-dir=", 10) == 0) {
      opts.run_dir = arg + 10;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      if (!flag_value(arg, 19, opts.checkpoint_every)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--claim") == 0) {
      opts.claim = true;
    } else if (std::strncmp(arg, "--claim-ttl=", 12) == 0) {
      if (!flag_value(arg, 12, opts.claim_ttl_s)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--no-merge") == 0) {
      opts.no_merge = true;
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(arg, "--list-traffic") == 0) {
      return list_traffic();
    } else if (std::strcmp(arg, "--list-routing") == 0) {
      return list_routing();
    } else if (std::strcmp(arg, "--list-workloads") == 0) {
      return list_workloads();
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (manifest_path.empty()) return usage(argv[0]);

  try {
    const Manifest m = Manifest::load_file(manifest_path);
    const auto points = m.expand();
    if (dry_run) {
      std::cout << "# manifest '" << m.name << "': " << points.size()
                << " points, "
                << (m.phases.empty() ? "steady" : "phased") << "\n";
      std::cout << "index,series,x,seed\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        std::cout << i << "," << points[i].series << "," << points[i].x
                  << "," << runtime::derive_seed(points[i].cfg.seed, i)
                  << "\n";
      }
      return 0;
    }
    opts.log = &std::cerr;
    const ManifestRunSummary s = run_manifest(m, opts);
    std::cout << "manifest '" << m.name << "': " << s.total_points
              << " points, " << s.skipped_points
              << " already complete, " << s.ran_points << " executed";
    if (opts.claim) {
      std::cout << ", " << s.stolen_leases << " stolen";
    }
    std::cout << "\n";
    if (s.merged) {
      std::cout << "results: " << s.csv_path << "\n";
    } else {
      std::cout << s.pending_points
                << " points still pending; merge deferred\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "df_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
