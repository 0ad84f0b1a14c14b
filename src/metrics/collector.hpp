// Measurement plumbing: warmup-aware latency and accepted-load accounting
// plus burst-drain timing (the paper's three reported metrics).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/packet.hpp"

namespace dfsim {

/// Stats of one measurement window of a phased run: deliveries and
/// (accepted) generations that happened inside [start, end). Cut by
/// Collector::cut_window. `delivered_phits` (and with it accepted_load)
/// counts every post-warmup delivery landing in the window — the same
/// throughput accounting run_steady uses; `delivered` and `avg_latency`
/// cover only *measured* packets (created after warmup), so in the first
/// window delivered * packet_phits may undercount delivered_phits by the
/// warmup-created stragglers.
struct TrafficWindow {
  Cycle start = 0;
  Cycle end = 0;
  std::uint64_t delivered = 0;        ///< packets delivered in the window
  std::uint64_t delivered_phits = 0;  ///< their phits
  std::uint64_t generated = 0;        ///< source generations in the window
  std::uint64_t dropped = 0;          ///< of which the source cap dropped
  double avg_latency = 0.0;    ///< mean latency of the window's deliveries
  double accepted_load = 0.0;  ///< phits/(node*cycle) within the window
  double offered_load = 0.0;   ///< generated phits/(node*cycle) within it
  double drop_rate = 0.0;      ///< dropped / generated (0 when idle)
};

class Collector {
 public:
  /// `warmup`: packets created before this cycle are excluded from
  /// latency; phits delivered before it are excluded from throughput.
  Collector(Cycle warmup, int num_terminals);

  void on_delivered(const Packet& pkt, Cycle now);
  void on_generated(Cycle now, bool accepted);

  /// Average end-to-end latency (source queueing included), cycles.
  double avg_latency() const { return latency_.mean(); }
  double latency_stddev() const { return latency_.stddev(); }
  double p99_latency() const { return latency_hist_.percentile(99.0); }

  /// Accepted load in phits/(node*cycle) over [warmup, end].
  double accepted_load(Cycle end) const;

  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t delivered_packets_total() const {
    return delivered_packets_total_;
  }
  std::uint64_t generated_packets() const { return generated_; }
  std::uint64_t dropped_generations() const { return dropped_; }
  std::uint64_t generated_measured() const { return generated_measured_; }
  std::uint64_t dropped_measured() const { return dropped_measured_; }

  /// Offered load in phits/(node*cycle) over [warmup, end]: what the
  /// sources *tried* to inject, including generations dropped by the
  /// source-queue cap. Past saturation this keeps climbing with the
  /// configured load while accepted_load() plateaus — reporting both is
  /// what makes saturated points distinguishable.
  double offered_load(Cycle end, int packet_phits) const;

  /// Fraction of measurement-window generations dropped by the source
  /// queue cap (0 when none were generated).
  double drop_rate() const;

  /// Mean hop count of measured packets (sanity metric: <= 8 by design).
  double avg_hops() const { return hops_.mean(); }

  /// Close the window [start, end): report every measured counter's delta
  /// since the previous cut (or since construction) and advance the mark.
  /// Windows therefore tile the run — summing their integer counters over
  /// all cuts reproduces the whole-run totals exactly.
  TrafficWindow cut_window(Cycle start, Cycle end, int packet_phits);

  // --- per-job accounting (multi-job workloads) -------------------------
  /// Partition the terminals for per-job attribution: map[t] names the job
  /// of terminal t, in [0, num_jobs). Deliveries are attributed by packet
  /// source under exactly the whole-run warmup rules (phits when the
  /// delivery is post-warmup; delivered/latency when the packet was also
  /// created post-warmup). An empty map (the default) disables the per-job
  /// counters. Throws std::invalid_argument on a size or range mismatch.
  void set_job_map(const std::vector<std::int32_t>& map, int num_jobs);
  int num_jobs() const { return num_jobs_; }

  /// Per-job deltas over [start, end), cut at the same boundaries as
  /// cut_window (each job carries its own mark, so per-job windows tile
  /// the run and sum to the per-job totals exactly). accepted_load is
  /// normalized by the JOB's terminal count; generated/dropped/offered
  /// stay 0 — the generation hook carries no terminal id, so offered load
  /// cannot be attributed to a job.
  std::vector<TrafficWindow> cut_job_windows(Cycle start, Cycle end);

  /// Whole-measurement per-job totals over [start, end) without advancing
  /// the marks (steady results may be derived repeatedly).
  std::vector<TrafficWindow> job_totals(Cycle start, Cycle end) const;

  // --- checkpoint support -----------------------------------------------
  /// Serialize every counter, the window mark, and the (bit-exact)
  /// floating-point accumulators. load() requires a collector constructed
  /// with the same warmup/terminal-count/histogram geometry and throws
  /// std::runtime_error on a truncated or mismatched stream.
  void save(std::ostream& os) const;
  void load(std::istream& is);
  /// The field list behind save (ar a ser::Writer) and load (a
  /// ser::Reader); a run checkpoint embeds it.
  template <class Ar>
  void transfer(Ar& ar);

 private:
  /// Counter snapshot cut_window diffs against.
  struct Mark {
    std::uint64_t delivered = 0;
    std::uint64_t delivered_phits = 0;
    std::uint64_t generated = 0;
    std::uint64_t dropped = 0;
    double latency_sum = 0.0;
  };
  Mark mark_;
  double latency_sum_ = 0.0;  ///< plain sum feeding per-window means
  Cycle warmup_;
  int num_terminals_;
  RunningStat latency_;
  RunningStat hops_;
  Histogram latency_hist_;
  std::uint64_t delivered_packets_ = 0;        // in measurement window
  std::uint64_t delivered_packets_total_ = 0;  // since cycle 0
  std::uint64_t delivered_phits_ = 0;          // in measurement window
  std::uint64_t generated_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t generated_measured_ = 0;  // in measurement window
  std::uint64_t dropped_measured_ = 0;    // in measurement window

  /// Running measured totals (and the cut_job_windows snapshot) for one
  /// job of the partition.
  struct JobCounters {
    std::uint64_t delivered = 0;
    std::uint64_t delivered_phits = 0;
    double latency_sum = 0.0;
  };
  std::vector<std::int32_t> job_of_;  ///< terminal -> job; empty = off
  std::vector<std::int32_t> job_terminals_;
  int num_jobs_ = 0;
  std::vector<JobCounters> job_;
  std::vector<JobCounters> job_mark_;
};

}  // namespace dfsim
