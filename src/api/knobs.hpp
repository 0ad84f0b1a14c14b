// The knob list: every SimConfig knob named once, with the DF_* variable
// bench_defaults() reads for it and the values it may take. describe(),
// set(), validate() and bench_defaults() (src/api/config.cpp) all walk
// it, and so do the domain tests, so a new knob is one line here.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <string>

#include "api/config.hpp"
#include "routing/factory.hpp"
#include "traffic/factory.hpp"
#include "traffic/workload.hpp"

namespace dfsim::knob {

/// The numbers from lo to hi; an open end leaves its bound out. NaN lies
/// in no range, because every comparison with it is false.
template <class T>
struct Range {
  T lo = std::numeric_limits<T>::lowest();
  T hi = std::numeric_limits<T>::max();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(T v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};

template <class T>
constexpr Range<T> at_least(T lo) {
  return {.lo = lo};
}

/// The names a knob may take. An enum knob holds the index of its name.
template <std::size_t N>
struct OneOf {
  std::array<const char*, N> names;
};

template <class... Name>
constexpr OneOf<sizeof...(Name)> one_of(Name... names) {
  return {{names...}};
}

/// A spec string its own parser accepts: `check` throws
/// std::invalid_argument saying what is wrong. With `or_empty`, "" (the
/// knob unset) is accepted too.
struct Spec {
  void (*check)(const std::string&);
  bool or_empty = false;
};

/// Any text. fault_spec names routers and links of one shape, so only
/// validate() can resolve it, against the topology.
struct Text {};

/// Every knob in describe() order: v(key, member, env, domain) with the
/// DF_* variable bench_defaults() reads, or nullptr.
template <class Config, class Visitor>
void for_each_knob(Config& c, Visitor&& v) {
  using Real = Range<double>;
  // p, a, g: 0 is the balanced default. A spec in topo overrides all
  // four, so h may be 0 beside one; that rule and the shape's joint
  // limits (g <= a*h+1, a, degree) are validate()'s.
  v("h", c.h, "DF_H", at_least(0));
  v("p", c.p, "DF_P", at_least(0));
  v("a", c.a, "DF_A", at_least(0));
  v("g", c.g, "DF_G", at_least(0));
  v("topo", c.topo, "DF_TOPO",
    Spec{[](const std::string& s) { parse_topo_spec(s); }, true});
  v("arrangement", c.arrangement, nullptr, one_of("absolute", "palmtree"));
  v("fault_spec", c.fault_spec, "DF_FAULTS", Text{});
  // < 1: sampling never kills a group pair's last link, so 1 is unreachable.
  v("fault_fraction", c.fault_fraction, "DF_FAULT_FRACTION",
    Real{.lo = 0, .hi = 1, .hi_open = true});
  v("fault_seed", c.fault_seed, "DF_FAULT_SEED", Range<std::uint64_t>{});
  v("flow", c.flow, nullptr, one_of("vct", "wormhole"));
  // <= 32767: a flit's index in its packet is 16 bits, and with the
  // latency bound the timing wheel, next_pow2(latency + packet + 4) slots,
  // stays at most 2^17.
  v("packet_phits", c.packet_phits, nullptr, Range<int>{1, 32767});
  // 0 is whole-packet; flit_phits <= packet_phits is validate()'s.
  v("flit_phits", c.flit_phits, nullptr, at_least(0));
  // A VC class needs one VC; the nonempty-VC bitmask has 16 bits a port.
  v("local_vcs", c.local_vcs, nullptr, Range<int>{1, 16});
  v("global_vcs", c.global_vcs, nullptr, Range<int>{1, 16});
  // >= 1 phit; holding a whole flow-control unit is validate()'s rule.
  v("local_buf_phits", c.local_buf_phits, nullptr, at_least(1));
  v("global_buf_phits", c.global_buf_phits, nullptr, at_least(1));
  // >= 1: an event due at `now` lands in a slot this cycle has drained.
  // <= 2^16: see packet_phits.
  v("local_latency", c.local_latency, nullptr, Range<int>{1, 1 << 16});
  v("global_latency", c.global_latency, nullptr, Range<int>{1, 1 << 16});
  v("routing", c.routing, nullptr, Spec{validate_routing_name});
  // A share of the minimal queue's occupancy (paper Sec. III).
  v("misroute_threshold", c.misroute_threshold, nullptr, Real{0, 1});
  // One draw per candidate per decision; past the 2047-port degree limit
  // extra draws only repeat outputs.
  v("global_candidates", c.global_candidates, nullptr, Range<int>{0, 2047});
  v("local_candidates", c.local_candidates, nullptr, Range<int>{0, 2047});
  // An occupancy fraction.
  v("pb_threshold", c.pb_threshold, nullptr, Real{0, 1});
  // PB broadcasts when now % pb_period == 0: 0 divides by zero.
  v("pb_period", c.pb_period, nullptr, at_least(1));
  v("pattern", c.pattern, "DF_TRAFFIC", Spec{validate_pattern_spec});
  // Any offset: patterns reduce it modulo g or a.
  v("pattern_offset", c.pattern_offset, nullptr, Range<int>{});
  // A Bernoulli probability.
  v("global_fraction", c.global_fraction, nullptr, Real{0, 1});
  // 0 would offer nothing; 1 is a phit per terminal per cycle.
  v("load", c.load, nullptr, Real{.lo = 0, .hi = 1, .lo_open = true});
  // Transition probabilities; "both 0 or both > 0" is validate()'s.
  v("onoff_on", c.onoff_on, "DF_ONOFF_ON", Real{0, 1});
  v("onoff_off", c.onoff_off, "DF_ONOFF_OFF", Real{0, 1});
  v("workload", c.workload, "DF_WORKLOAD",
    Spec{validate_workload_spec, true});
  v("engine", c.engine, "DF_ENGINE", one_of("exact", "sharded"));
  v("warmup_cycles", c.warmup_cycles, "DF_WARMUP", Range<Cycle>{});
  // A window, a burst or a run with no cycles or packets measures nothing.
  v("measure_cycles", c.measure_cycles, "DF_MEASURE", at_least<Cycle>(1));
  v("burst_packets", c.burst_packets, "DF_BURST",
    at_least<std::uint64_t>(1));
  v("max_cycles", c.max_cycles, nullptr, at_least<Cycle>(1));
  // watchdog_cycles without progress is a deadlock: at 0, any cycle
  // without a delivery is one.
  v("watchdog_cycles", c.watchdog_cycles, nullptr, at_least<Cycle>(1));
  v("seed", c.seed, "DF_SEED", Range<std::uint64_t>{});
}

}  // namespace dfsim::knob
