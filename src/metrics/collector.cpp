#include "metrics/collector.hpp"

#include <stdexcept>
#include <string>

#include "common/serialize.hpp"

namespace dfsim {

Collector::Collector(Cycle warmup, int num_terminals)
    : warmup_(warmup),
      num_terminals_(num_terminals),
      latency_hist_(/*width=*/16.0, /*num_buckets=*/4096) {}

void Collector::on_delivered(const Packet& pkt, Cycle now) {
  ++delivered_packets_total_;
  if (now < warmup_) return;
  delivered_phits_ += static_cast<std::uint64_t>(pkt.size_phits);
  // Per-job attribution (by packet source) mirrors the whole-run warmup
  // rules exactly, so the per-job counters sum to the totals above.
  JobCounters* jc = nullptr;
  if (num_jobs_ > 0) {
    jc = &job_[static_cast<std::size_t>(
        job_of_[static_cast<std::size_t>(pkt.src)])];
    jc->delivered_phits += static_cast<std::uint64_t>(pkt.size_phits);
  }
  if (pkt.created < warmup_) return;
  ++delivered_packets_;
  const auto lat = static_cast<double>(now - pkt.created);
  latency_.add(lat);
  latency_sum_ += lat;
  latency_hist_.add(lat);
  hops_.add(static_cast<double>(pkt.rs.total_hops));
  if (jc != nullptr) {
    ++jc->delivered;
    jc->latency_sum += lat;
  }
}

void Collector::set_job_map(const std::vector<std::int32_t>& map,
                            int num_jobs) {
  if (map.empty()) {
    job_of_.clear();
    job_terminals_.clear();
    job_.clear();
    job_mark_.clear();
    num_jobs_ = 0;
    return;
  }
  if (map.size() != static_cast<std::size_t>(num_terminals_)) {
    throw std::invalid_argument(
        "Collector::set_job_map: map covers " + std::to_string(map.size()) +
        " terminals but the collector tracks " +
        std::to_string(num_terminals_));
  }
  std::vector<std::int32_t> terminals(static_cast<std::size_t>(num_jobs), 0);
  for (const std::int32_t j : map) {
    if (j < 0 || j >= num_jobs) {
      throw std::invalid_argument(
          "Collector::set_job_map: job id " + std::to_string(j) +
          " outside [0, " + std::to_string(num_jobs) + ")");
    }
    ++terminals[static_cast<std::size_t>(j)];
  }
  job_of_ = map;
  job_terminals_ = std::move(terminals);
  num_jobs_ = num_jobs;
  job_.assign(static_cast<std::size_t>(num_jobs), JobCounters{});
  job_mark_.assign(static_cast<std::size_t>(num_jobs), JobCounters{});
}

std::vector<TrafficWindow> Collector::cut_job_windows(Cycle start,
                                                      Cycle end) {
  std::vector<TrafficWindow> out(static_cast<std::size_t>(num_jobs_));
  for (int j = 0; j < num_jobs_; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const JobCounters& c = job_[uj];
    JobCounters& m = job_mark_[uj];
    TrafficWindow& w = out[uj];
    w.start = start;
    w.end = end;
    w.delivered = c.delivered - m.delivered;
    w.delivered_phits = c.delivered_phits - m.delivered_phits;
    const double latency_delta = c.latency_sum - m.latency_sum;
    if (w.delivered > 0) {
      w.avg_latency = latency_delta / static_cast<double>(w.delivered);
    }
    if (end > start && job_terminals_[uj] > 0) {
      w.accepted_load =
          static_cast<double>(w.delivered_phits) /
          (static_cast<double>(end - start) *
           static_cast<double>(job_terminals_[uj]));
    }
    m = c;
  }
  return out;
}

std::vector<TrafficWindow> Collector::job_totals(Cycle start,
                                                 Cycle end) const {
  std::vector<TrafficWindow> out(static_cast<std::size_t>(num_jobs_));
  for (int j = 0; j < num_jobs_; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const JobCounters& c = job_[uj];
    TrafficWindow& w = out[uj];
    w.start = start;
    w.end = end;
    w.delivered = c.delivered;
    w.delivered_phits = c.delivered_phits;
    if (w.delivered > 0) {
      w.avg_latency = c.latency_sum / static_cast<double>(w.delivered);
    }
    if (end > start && job_terminals_[uj] > 0) {
      w.accepted_load =
          static_cast<double>(w.delivered_phits) /
          (static_cast<double>(end - start) *
           static_cast<double>(job_terminals_[uj]));
    }
  }
  return out;
}

void Collector::on_generated(Cycle now, bool accepted) {
  ++generated_;
  if (!accepted) ++dropped_;
  if (now >= warmup_) {
    ++generated_measured_;
    if (!accepted) ++dropped_measured_;
  }
}

double Collector::accepted_load(Cycle end) const {
  if (end <= warmup_) return 0.0;
  const auto window = static_cast<double>(end - warmup_);
  return static_cast<double>(delivered_phits_) /
         (window * static_cast<double>(num_terminals_));
}

double Collector::offered_load(Cycle end, int packet_phits) const {
  if (end <= warmup_) return 0.0;
  const auto window = static_cast<double>(end - warmup_);
  return static_cast<double>(generated_measured_) *
         static_cast<double>(packet_phits) /
         (window * static_cast<double>(num_terminals_));
}

double Collector::drop_rate() const {
  if (generated_measured_ == 0) return 0.0;
  return static_cast<double>(dropped_measured_) /
         static_cast<double>(generated_measured_);
}

void Collector::save(std::ostream& os) const { ser::save(os, *this); }

void Collector::load(std::istream& is) { ser::load(is, *this); }

template <class Ar>
void Collector::transfer(Ar& ar) {
  // Geometry fields first so a mismatched restore names the field.
  ar.expect(warmup_, "collector warmup cycles");
  ar.expect(static_cast<std::uint64_t>(num_terminals_),
            "collector terminal count");
  ar.expect(latency_hist_.buckets().size(), "collector histogram buckets");

  ar.f64(latency_sum_, "collector latency sum");
  latency_.transfer(ar, "collector latency stat");
  hops_.transfer(ar, "collector hops stat");
  latency_hist_.transfer(ar, "collector histogram");
  ar.u64(delivered_packets_, "collector delivered");
  ar.u64(delivered_packets_total_, "collector delivered total");
  ar.u64(delivered_phits_, "collector delivered phits");
  ar.u64(generated_, "collector generated");
  ar.u64(dropped_, "collector dropped");
  ar.u64(generated_measured_, "collector generated measured");
  ar.u64(dropped_measured_, "collector dropped measured");
  ar.u64(mark_.delivered, "collector mark delivered");
  ar.u64(mark_.delivered_phits, "collector mark phits");
  ar.u64(mark_.generated, "collector mark generated");
  ar.u64(mark_.dropped, "collector mark dropped");
  ar.f64(mark_.latency_sum, "collector mark latency sum");
  // Per-job section (count 0 when no job map is set). The map itself is
  // config-derived and re-established before load(); only counters and
  // marks are state.
  ar.expect(static_cast<std::uint64_t>(num_jobs_), "collector job count");
  for (int j = 0; j < num_jobs_; ++j) {
    JobCounters& job = job_[static_cast<std::size_t>(j)];
    JobCounters& mark = job_mark_[static_cast<std::size_t>(j)];
    ar.u64(job.delivered, "collector job delivered");
    ar.u64(job.delivered_phits, "collector job phits");
    ar.f64(job.latency_sum, "collector job latency sum");
    ar.u64(mark.delivered, "collector job mark delivered");
    ar.u64(mark.delivered_phits, "collector job mark phits");
    ar.f64(mark.latency_sum, "collector job mark latency sum");
  }
}

template void Collector::transfer(ser::Writer&);
template void Collector::transfer(ser::Reader&);

TrafficWindow Collector::cut_window(Cycle start, Cycle end,
                                    int packet_phits) {
  TrafficWindow w;
  w.start = start;
  w.end = end;
  w.delivered = delivered_packets_ - mark_.delivered;
  w.delivered_phits = delivered_phits_ - mark_.delivered_phits;
  w.generated = generated_measured_ - mark_.generated;
  w.dropped = dropped_measured_ - mark_.dropped;
  const double latency_delta = latency_sum_ - mark_.latency_sum;
  if (w.delivered > 0) {
    w.avg_latency = latency_delta / static_cast<double>(w.delivered);
  }
  if (end > start) {
    const auto span = static_cast<double>(end - start);
    const auto nodes = static_cast<double>(num_terminals_);
    w.accepted_load = static_cast<double>(w.delivered_phits) / (span * nodes);
    w.offered_load = static_cast<double>(w.generated) *
                     static_cast<double>(packet_phits) / (span * nodes);
  }
  if (w.generated > 0) {
    w.drop_rate =
        static_cast<double>(w.dropped) / static_cast<double>(w.generated);
  }
  mark_.delivered = delivered_packets_;
  mark_.delivered_phits = delivered_phits_;
  mark_.generated = generated_measured_;
  mark_.dropped = dropped_measured_;
  mark_.latency_sum = latency_sum_;
  return w;
}

}  // namespace dfsim
