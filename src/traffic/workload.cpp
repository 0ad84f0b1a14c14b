#include "traffic/workload.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/serialize.hpp"
#include "common/text.hpp"

namespace dfsim {

struct Workload::Job {
  enum class Motif { kAllToAll, kRing, kHalo2d, kShift };
  Motif motif = Motif::kAllToAll;
  std::string label;             ///< canonical motif text, e.g. "halo2d:4x8"
  std::vector<NodeId> members;   ///< placement order (defines ring/grid)
  int rows = 0, cols = 0;        ///< halo2d grid (0 = auto-factor)
  int shift = 1;                 ///< shift offset (normalized per job)
  int size_min = 1, size_max = 1;  ///< packets per message
  bool reply = false;
  double load = -1.0;            ///< -1 = inherit the config load
};

namespace {

using Job = Workload::Job;

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("workload spec \"" + spec + "\": " + why);
}

int parse_int(const std::string& text, const std::string& spec,
              const std::string& what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    bad_spec(spec, what + " \"" + text + "\" is not a non-negative integer");
  }
  const std::optional<int> value = parse_number<int>(text);
  if (!value) bad_spec(spec, what + " \"" + text + "\" is out of range");
  return *value;
}

double parse_load(const std::string& text, const std::string& spec) {
  const std::optional<double> parsed = parse_number<double>(text);
  if (!parsed) bad_spec(spec, "job load \"" + text + "\" is not a number");
  const double value = *parsed;
  if (!(value >= 0.0) || value > 1.0) {
    bad_spec(spec, "job load must be in [0, 1], got " + text);
  }
  return value;
}

/// Parse one motif spec: name[:RxC][:size=K|MIN-MAX][:reply=0|1].
/// Members/placement are filled in later by the caller.
Job parse_motif(const std::string& text, const std::string& spec,
                bool default_reply) {
  Job job;
  job.reply = default_reply;
  if (text.empty()) {
    bad_spec(spec, "motif is missing (known motifs: alltoall, "
                   "ring-allreduce, halo2d, shift)");
  }
  const std::vector<std::string> tokens = split(text, ':');

  const std::string& head = tokens[0];
  if (head == "alltoall" || head == "a2a" || head == "un" ||
      head == "uniform") {
    job.motif = Job::Motif::kAllToAll;
    job.label = "alltoall";
  } else if (head == "ring-allreduce" || head == "ring") {
    job.motif = Job::Motif::kRing;
    job.label = "ring-allreduce";
  } else if (head == "halo2d" || head == "halo") {
    job.motif = Job::Motif::kHalo2d;
    job.label = "halo2d";
  } else if (head.rfind("shift", 0) == 0) {
    job.motif = Job::Motif::kShift;
    job.label = head;
    const std::string offs = head.substr(5);
    if (!offs.empty()) {
      const std::optional<SignedPrefix> offset = parse_signed_prefix(offs);
      if (!offset) {
        bad_spec(spec, "expected shift+<N> or shift-<N>, got \"" + head +
                           "\"");
      }
      if (!offset->rest.empty()) {
        bad_spec(spec, "trailing characters \"" + std::string(offset->rest) +
                           "\" after the shift offset");
      }
      job.shift = offset->value;
    }
  } else {
    bad_spec(spec, "unknown motif \"" + head +
                       "\" (known motifs: alltoall, ring-allreduce, "
                       "halo2d, shift)");
  }

  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("size=", 0) == 0) {
      const std::string body = tok.substr(5);
      const std::size_t dash = body.find('-');
      if (dash == std::string::npos) {
        job.size_min = job.size_max =
            parse_int(body, spec, "message size");
      } else {
        job.size_min = parse_int(body.substr(0, dash), spec,
                                 "message size minimum");
        job.size_max = parse_int(body.substr(dash + 1), spec,
                                 "message size maximum");
      }
      if (job.size_min < 1 || job.size_max < job.size_min) {
        bad_spec(spec, "message size range must satisfy 1 <= min <= max, "
                       "got \"" + tok + "\"");
      }
      job.label += ":" + tok;
    } else if (tok.rfind("reply=", 0) == 0) {
      const std::string body = tok.substr(6);
      if (body == "0") {
        job.reply = false;
      } else if (body == "1") {
        job.reply = true;
      } else {
        bad_spec(spec, "expected reply=0 or reply=1, got \"" + tok + "\"");
      }
    } else if (job.motif == Job::Motif::kHalo2d && job.rows == 0 &&
               tok.find('x') != std::string::npos) {
      const std::size_t x = tok.find('x');
      job.rows = parse_int(tok.substr(0, x), spec, "halo2d grid rows");
      job.cols = parse_int(tok.substr(x + 1), spec, "halo2d grid columns");
      if (job.rows < 1 || job.cols < 1) {
        bad_spec(spec, "halo2d grid \"" + tok +
                           "\" must have positive dimensions");
      }
      job.label += ":" + tok;
    } else {
      bad_spec(spec, "unexpected motif argument \"" + tok +
                         "\" (expected [:RxC] [:size=K|MIN-MAX] "
                         "[:reply=0|1])");
    }
  }
  return job;
}

/// Resolve topology-dependent per-job structure once the member list is
/// known: minimum size, shift normalization, halo grid factorization.
void finalize_job(Job& job, int index, const std::string& spec) {
  const int n = static_cast<int>(job.members.size());
  if (n < 2) {
    bad_spec(spec, "job " + std::to_string(index) + " has " +
                       std::to_string(n) +
                       " terminal(s); every job needs at least 2");
  }
  switch (job.motif) {
    case Job::Motif::kShift: {
      const int norm = ((job.shift % n) + n) % n;
      if (norm == 0) {
        bad_spec(spec, "job " + std::to_string(index) + " shift offset " +
                           std::to_string(job.shift) + " is 0 mod " +
                           std::to_string(n) +
                           ", which would make every terminal send to "
                           "itself");
      }
      job.shift = norm;
      break;
    }
    case Job::Motif::kHalo2d: {
      if (job.rows == 0) {
        // Auto-factor: the most square grid (largest divisor <= sqrt(n)).
        int best = 1;
        for (int r = 1; r * r <= n; ++r) {
          if (n % r == 0) best = r;
        }
        job.rows = best;
        job.cols = n / best;
      } else if (job.rows * job.cols != n) {
        bad_spec(spec, "job " + std::to_string(index) + " halo2d grid " +
                           std::to_string(job.rows) + "x" +
                           std::to_string(job.cols) + " = " +
                           std::to_string(job.rows * job.cols) +
                           " does not match the job's " +
                           std::to_string(n) + " terminals");
      }
      break;
    }
    default:
      break;
  }
}

/// Split `count` terminals into `jobs` contiguous block sizes (earlier
/// jobs absorb the remainder).
std::vector<int> block_sizes(int count, int jobs) {
  std::vector<int> sizes(static_cast<std::size_t>(jobs), count / jobs);
  for (int j = 0; j < count % jobs; ++j) ++sizes[static_cast<std::size_t>(j)];
  return sizes;
}

// --- trace loading -------------------------------------------------------

std::vector<Workload::TraceRow> load_binary_trace(std::istream& is,
                                                  const std::string& path) {
  const std::uint64_t count = ser::read_u64(is, "trace row count");
  if (count > (1ULL << 32)) {
    throw std::invalid_argument("trace file \"" + path +
                                "\" row count is implausible (" +
                                std::to_string(count) + ")");
  }
  std::vector<Workload::TraceRow> rows(static_cast<std::size_t>(count));
  try {
    for (auto& row : rows) {
      row.cycle = ser::read_u64(is, "trace row cycle");
      row.src = ser::read_i32(is, "trace row src");
      row.dst = ser::read_i32(is, "trace row dst");
      row.size_phits = ser::read_i32(is, "trace row size");
    }
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument("trace file \"" + path + "\": " + e.what());
  }
  return rows;
}

std::vector<Workload::TraceRow> load_csv_trace(std::istream& is,
                                               const std::string& path) {
  std::vector<Workload::TraceRow> rows;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    // cycle,src,dst,size: four decimal fields, blanks around each.
    const std::vector<std::string> f = split(line, ',');
    std::optional<Cycle> cycle;
    std::optional<NodeId> src, dst;
    std::optional<int> size;
    if (f.size() == 4) {
      cycle = parse_number<Cycle>(trim(f[0]));
      src = parse_number<NodeId>(trim(f[1]));
      dst = parse_number<NodeId>(trim(f[2]));
      size = parse_number<int>(trim(f[3]));
    }
    if (!cycle || !src || !dst || !size) {
      throw std::invalid_argument(
          "trace file \"" + path + "\" line " + std::to_string(lineno) +
          ": expected \"cycle,src,dst,size\", got \"" + line + "\"");
    }
    const Workload::TraceRow row{*cycle, *src, *dst, *size};
    rows.push_back(row);
  }
  return rows;
}

std::vector<Workload::TraceRow> load_trace(const std::string& path,
                                           const std::string& spec,
                                           int num_terminals) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    bad_spec(spec, "trace file \"" + path + "\" cannot be opened");
  }
  char magic[8] = {};
  is.read(magic, 8);
  std::vector<Workload::TraceRow> rows;
  if (is.gcount() == 8 && std::memcmp(magic, kTraceMagic, 8) == 0) {
    rows = load_binary_trace(is, path);
  } else {
    is.clear();
    is.seekg(0);
    rows = load_csv_trace(is, path);
  }
  Cycle prev = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const std::string where =
        "trace file \"" + path + "\" row " + std::to_string(i);
    if (row.src < 0 || row.src >= num_terminals || row.dst < 0 ||
        row.dst >= num_terminals) {
      throw std::invalid_argument(
          where + ": terminal ids must be in [0, " +
          std::to_string(num_terminals) + "), got src=" +
          std::to_string(row.src) + " dst=" + std::to_string(row.dst));
    }
    if (row.src == row.dst) {
      throw std::invalid_argument(where + ": src equals dst (" +
                                  std::to_string(row.src) + ")");
    }
    if (row.size_phits < 1) {
      throw std::invalid_argument(where + ": size must be >= 1 phit, got " +
                                  std::to_string(row.size_phits));
    }
    if (row.cycle < prev) {
      throw std::invalid_argument(where +
                                  ": cycles must be non-decreasing (" +
                                  std::to_string(row.cycle) + " after " +
                                  std::to_string(prev) + ")");
    }
    prev = row.cycle;
  }
  return rows;
}

// --- spec parsing --------------------------------------------------------

struct ParsedJobs {
  int num_jobs = 0;
  std::string place = "contig";
  std::uint64_t seed = 1;  ///< fixed default so placement is seed-stable
  std::vector<Job> jobs;   ///< parsed motifs, one per '|' entry
};

ParsedJobs parse_jobs(const std::string& args, const std::string& spec) {
  ParsedJobs out;
  std::size_t pos = 0;
  std::size_t colon = args.find(':');
  out.num_jobs = parse_int(args.substr(0, colon), spec, "job count");
  if (out.num_jobs < 1) bad_spec(spec, "job count must be >= 1");
  if (colon == std::string::npos) {
    bad_spec(spec, "job list is missing (expected jobs:<J>[:place=contig|"
                   "random|rr][:seed=<S>]:<job>|<job>|...)");
  }
  pos = colon + 1;
  // Consume place=/seed= fields; the first segment that is neither marks
  // the start of the '|'-separated job list (which may itself contain
  // ':', so it runs to the end of the spec).
  while (true) {
    colon = args.find(':', pos);
    const std::string field =
        args.substr(pos, colon == std::string::npos ? colon : colon - pos);
    if (field.rfind("place=", 0) == 0) {
      out.place = field.substr(6);
      if (out.place != "contig" && out.place != "random" &&
          out.place != "rr") {
        bad_spec(spec, "unknown placement policy \"" + out.place +
                           "\" (known: contig, random, rr)");
      }
    } else if (field.rfind("seed=", 0) == 0) {
      out.seed = static_cast<std::uint64_t>(
          parse_int(field.substr(5), spec, "placement seed"));
    } else {
      break;
    }
    if (colon == std::string::npos) {
      bad_spec(spec, "job list is missing after the placement fields");
    }
    pos = colon + 1;
  }
  const std::string list = args.substr(pos);
  if (list.empty()) bad_spec(spec, "job list is empty");
  for (const std::string& entry : split(list, '|')) {
    if (entry.empty()) {
      bad_spec(spec, "empty job entry in the job list");
    }
    const std::size_t at = entry.rfind('@');
    Job job = parse_motif(at == std::string::npos ? entry
                                                  : entry.substr(0, at),
                          spec, /*default_reply=*/false);
    if (at != std::string::npos) {
      job.load = parse_load(entry.substr(at + 1), spec);
    }
    out.jobs.push_back(std::move(job));
  }
  if (static_cast<int>(out.jobs.size()) > out.num_jobs) {
    bad_spec(spec, "more job entries (" + std::to_string(out.jobs.size()) +
                       ") than jobs (" + std::to_string(out.num_jobs) +
                       ")");
  }
  return out;
}

}  // namespace

const std::vector<WorkloadEntry>& workload_registry() {
  static const std::vector<WorkloadEntry> kRegistry = {
      {"coll", "",
       "coll:<alltoall|ring-allreduce|halo2d[:RxC]|shift[+N]>"
       "[:size=K|MIN-MAX][:reply=0|1]"},
      {"jobs", "",
       "jobs:<J>[:place=contig|random|rr][:seed=<S>]:<job>|<job>|... "
       "(job = motif[:size=..][:reply=..][@load])"},
      {"trace", "", "trace:<file> (CSV or binary cycle,src,dst,size rows)"},
  };
  return kRegistry;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadEntry& entry : workload_registry()) {
    if (!names.empty()) names += ", ";
    names += entry.key;
  }
  return names;
}

std::unique_ptr<Workload> make_workload(const DragonflyTopology* topo,
                                        const std::string& spec) {
  if (spec.empty()) {
    bad_spec(spec, "empty (known workloads: " + workload_names() + ")");
  }
  const std::size_t colon = spec.find(':');
  const std::string key = lower(spec.substr(0, colon));
  const std::string args =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);

  const bool known = std::any_of(
      workload_registry().begin(), workload_registry().end(),
      [&](const WorkloadEntry& e) { return key == e.key || key == e.alias; });
  if (!known) {
    bad_spec(spec, "unknown workload \"" + key + "\" (known: " +
                       workload_names() + ")");
  }

  std::unique_ptr<Workload> w(new Workload());
  w->spec_ = spec;

  if (key == "trace") {
    if (args.empty()) {
      bad_spec(spec, "trace file path is missing (expected trace:<file>)");
    }
    w->trace_ = true;
    if (topo == nullptr) return nullptr;
    const int n = topo->num_terminals();
    w->num_terminals_ = n;
    w->rows_ = load_trace(args, spec, n);
    // A trace is one pseudo-job spanning every terminal, so per-job
    // metrics and the delivered-totals comparison in the nightly smoke
    // have a job to attribute to.
    Job job;
    job.label = "trace";
    job.members.resize(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) job.members[static_cast<std::size_t>(t)] = t;
    w->jobs_.push_back(std::move(job));
    w->job_of_.assign(static_cast<std::size_t>(n), 0);
    w->rank_of_.resize(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) w->rank_of_[static_cast<std::size_t>(t)] = t;
    return w;
  }

  if (key == "coll") {
    Job job = parse_motif(lower(args), spec, /*default_reply=*/true);
    if (topo == nullptr) return nullptr;
    const int n = topo->num_terminals();
    w->num_terminals_ = n;
    job.members.resize(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) job.members[static_cast<std::size_t>(t)] = t;
    finalize_job(job, 0, spec);
    w->jobs_.push_back(std::move(job));
    w->job_of_.assign(static_cast<std::size_t>(n), 0);
    w->rank_of_.resize(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) w->rank_of_[static_cast<std::size_t>(t)] = t;
    return w;
  }

  // jobs:J
  ParsedJobs parsed = parse_jobs(lower(args), spec);
  if (topo == nullptr) return nullptr;
  const int n = topo->num_terminals();
  const int num_jobs = parsed.num_jobs;
  if (2 * num_jobs > n) {
    bad_spec(spec, std::to_string(num_jobs) + " jobs need at least " +
                       std::to_string(2 * num_jobs) +
                       " terminals, but the topology has " +
                       std::to_string(n));
  }
  w->num_terminals_ = n;

  // Assign each job its motif (entries cycle round-robin when fewer than
  // J were given), then place terminals.
  w->jobs_.resize(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    w->jobs_[static_cast<std::size_t>(j)] =
        parsed.jobs[static_cast<std::size_t>(j) % parsed.jobs.size()];
  }

  if (parsed.place == "rr") {
    for (int t = 0; t < n; ++t) {
      w->jobs_[static_cast<std::size_t>(t % num_jobs)].members.push_back(t);
    }
  } else {
    std::vector<NodeId> order(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) order[static_cast<std::size_t>(t)] = t;
    if (parsed.place == "random") {
      // Fisher-Yates with a spec-local seed (NOT the simulation seed):
      // sweep points that derive per-point seeds keep one placement.
      Rng rng(mix64(0xdf0b1acede5eedULL, parsed.seed));
      for (int i = n - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform(static_cast<std::uint64_t>(i) + 1));
        std::swap(order[static_cast<std::size_t>(i)], order[j]);
      }
    }
    const std::vector<int> sizes = block_sizes(n, num_jobs);
    std::size_t next = 0;
    for (int j = 0; j < num_jobs; ++j) {
      auto& members = w->jobs_[static_cast<std::size_t>(j)].members;
      members.assign(order.begin() + static_cast<std::ptrdiff_t>(next),
                     order.begin() + static_cast<std::ptrdiff_t>(
                                         next + static_cast<std::size_t>(
                                                    sizes[static_cast<
                                                        std::size_t>(j)])));
      next += static_cast<std::size_t>(sizes[static_cast<std::size_t>(j)]);
    }
  }

  w->job_of_.assign(static_cast<std::size_t>(n), -1);
  w->rank_of_.assign(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < num_jobs; ++j) {
    Job& job = w->jobs_[static_cast<std::size_t>(j)];
    finalize_job(job, j, spec);
    for (std::size_t r = 0; r < job.members.size(); ++r) {
      w->job_of_[static_cast<std::size_t>(job.members[r])] = j;
      w->rank_of_[static_cast<std::size_t>(job.members[r])] =
          static_cast<std::int32_t>(r);
    }
  }
  return w;
}

void validate_workload_spec(const std::string& spec) {
  make_workload(nullptr, spec);
}

Workload::~Workload() = default;

NodeId Workload::dest(NodeId src, Rng& rng) {
  if (trace_) {
    // Trace runs disable Bernoulli injection, so fresh draws only happen
    // if a caller drives the pattern directly; honor the interface with
    // a uniform draw.
    const auto pick = static_cast<NodeId>(
        rng.uniform(static_cast<std::uint64_t>(num_terminals_ - 1)));
    return pick >= src ? pick + 1 : pick;
  }
  const Job& job = jobs_[static_cast<std::size_t>(job_of_[
      static_cast<std::size_t>(src)])];
  const int n = static_cast<int>(job.members.size());
  const int rank = rank_of_[static_cast<std::size_t>(src)];
  switch (job.motif) {
    case Job::Motif::kAllToAll: {
      const auto pick = static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(n - 1)));
      return job.members[static_cast<std::size_t>(
          pick >= rank ? pick + 1 : pick)];
    }
    case Job::Motif::kRing:
      return job.members[static_cast<std::size_t>((rank + 1) % n)];
    case Job::Motif::kShift:
      return job.members[static_cast<std::size_t>((rank + job.shift) % n)];
    case Job::Motif::kHalo2d: {
      const int row = rank / job.cols;
      const int col = rank % job.cols;
      const int candidates[4] = {
          ((row + job.rows - 1) % job.rows) * job.cols + col,  // up
          ((row + 1) % job.rows) * job.cols + col,             // down
          row * job.cols + (col + job.cols - 1) % job.cols,    // left
          row * job.cols + (col + 1) % job.cols,               // right
      };
      int unique[4];
      int count = 0;
      for (const int c : candidates) {
        if (c == rank) continue;
        bool seen = false;
        for (int k = 0; k < count; ++k) seen = seen || unique[k] == c;
        if (!seen) unique[count++] = c;
      }
      const auto pick = static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(count)));
      return job.members[static_cast<std::size_t>(unique[pick])];
    }
  }
  return job.members[0];  // unreachable
}

int Workload::num_jobs() const { return static_cast<int>(jobs_.size()); }

const std::vector<std::int32_t>& Workload::job_of_terminal() const {
  return job_of_;
}

std::vector<std::int32_t> Workload::job_sizes() const {
  std::vector<std::int32_t> sizes;
  sizes.reserve(jobs_.size());
  for (const Job& job : jobs_) {
    sizes.push_back(static_cast<std::int32_t>(job.members.size()));
  }
  return sizes;
}

std::string Workload::job_label(int job) const {
  return "job" + std::to_string(job) + ":" +
         jobs_[static_cast<std::size_t>(job)].label;
}

std::vector<double> Workload::terminal_loads(double base_load) const {
  if (trace_) return {};
  const bool any_explicit = std::any_of(
      jobs_.begin(), jobs_.end(), [](const Job& j) { return j.load >= 0.0; });
  if (!any_explicit) return {};
  std::vector<double> loads(static_cast<std::size_t>(num_terminals_), 0.0);
  for (const Job& job : jobs_) {
    const double load = job.load >= 0.0 ? job.load : base_load;
    for (const NodeId t : job.members) {
      loads[static_cast<std::size_t>(t)] = load;
    }
  }
  return loads;
}

bool Workload::wants_reply(NodeId src) const {
  return jobs_[static_cast<std::size_t>(
                   job_of_[static_cast<std::size_t>(src)])]
      .reply;
}

int Workload::message_packets(NodeId src, Rng& rng) const {
  const Job& job = jobs_[static_cast<std::size_t>(
      job_of_[static_cast<std::size_t>(src)])];
  if (job.size_min == job.size_max) return job.size_min;
  return job.size_min +
         static_cast<int>(rng.uniform(static_cast<std::uint64_t>(
             job.size_max - job.size_min + 1)));
}

void Workload::drain_trace(
    Cycle now,
    const std::function<void(NodeId, NodeId, int)>& emit) {
  while (cursor_ < rows_.size() && rows_[cursor_].cycle <= now) {
    const TraceRow& row = rows_[cursor_];
    emit(row.src, row.dst, row.size_phits);
    ++cursor_;
  }
}

void Workload::set_cursor(std::uint64_t cursor) {
  if (cursor > rows_.size()) {
    throw std::invalid_argument(
        "workload cursor " + std::to_string(cursor) +
        " is beyond the trace's " + std::to_string(rows_.size()) + " rows");
  }
  cursor_ = cursor;
}

}  // namespace dfsim
