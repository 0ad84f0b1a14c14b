#include "api/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/env.hpp"
#include "common/text.hpp"
#include "topology/fault_model.hpp"
#include "traffic/factory.hpp"
#include "traffic/workload.hpp"

namespace dfsim {

TopoParams parse_topo_spec(const std::string& spec) {
  TopoParams tp;
  // A bare integer is the balanced-h shorthand ("4" == "h4"), so every
  // consumer that accepts a spec also accepts a plain h.
  if (!spec.empty() &&
      spec.find_first_not_of("0123456789") == std::string::npos) {
    return parse_topo_spec("h" + spec);
  }
  const auto fail = [&spec](const std::string& why) {
    throw std::invalid_argument("topology spec \"" + spec + "\": " + why);
  };
  int* const fields[] = {&tp.p, &tp.a, &tp.h, &tp.g};
  bool seen[4] = {false, false, false, false};
  std::size_t i = 0;
  while (i < spec.size()) {
    const char c = spec[i++];
    if (std::string_view(" ,;:=").find(c) != std::string_view::npos) continue;
    const std::string dim = "dimension '" + std::string(1, c) + "'";
    const std::size_t slot = std::string_view("pahg").find(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    if (slot == std::string_view::npos) {
      fail("unknown " + dim + " (expected p, a, h or g)");
    }
    while (i < spec.size() && (spec[i] == ' ' || spec[i] == '=')) ++i;
    const std::size_t digits =
        std::min(spec.find_first_not_of("0123456789", i), spec.size());
    if (digits == i) fail(dim + " has no value");
    // At most 7 digits keeps downstream a*h arithmetic far from overflow.
    if (digits - i > 7) fail(dim + " value is out of range (max 7 digits)");
    if (seen[slot]) fail(dim + " given twice");
    seen[slot] = true;
    *fields[slot] =
        *parse_number<int>(std::string_view(spec).substr(i, digits - i));
    i = digits;
  }
  if (!seen[2]) fail("missing mandatory dimension 'h'");
  if (!seen[0]) tp.p = tp.h;
  if (!seen[1]) tp.a = 2 * tp.h;
  if (!seen[3]) {
    const long long max_g =
        static_cast<long long>(tp.a) * static_cast<long long>(tp.h) + 1;
    if (max_g > INT32_MAX) {
      fail("balanced default g = a*h + 1 overflows; give g explicitly");
    }
    tp.g = static_cast<int>(max_g);
  }
  return tp;
}

TopoParams SimConfig::topo_params() const {
  if (!topo.empty()) return parse_topo_spec(topo);
  TopoParams tp;
  tp.h = h;
  // Exactly 0 selects the balanced default; negatives flow through so
  // validate()/the topology constructor reject them with a pointed
  // message instead of silently running the wrong shape.
  tp.p = p != 0 ? p : h;
  // 64-bit intermediates: the balanced defaults multiply user-supplied
  // knobs, which must not overflow before validate() can reject them.
  const long long def_a = a != 0 ? a : 2LL * h;
  const long long def_g =
      g != 0 ? g : def_a * static_cast<long long>(tp.h) + 1;
  if (def_a > INT32_MAX || def_a < INT32_MIN || def_g > INT32_MAX ||
      def_g < INT32_MIN) {
    throw std::invalid_argument(
        "SimConfig: balanced topology defaults overflow for h = " +
        std::to_string(h) + "; set a and g explicitly");
  }
  tp.a = static_cast<int>(def_a);
  tp.g = static_cast<int>(def_g);
  return tp;
}

DragonflyTopology SimConfig::make_topology() const {
  const TopoParams tp = topo_params();
  DragonflyTopology topo(tp.p, tp.a, tp.h, tp.g, arrangement);
  if (!fault_spec.empty()) {
    topo.apply_faults(FaultModel::parse(topo, fault_spec));
  } else if (fault_fraction != 0.0) {
    topo.apply_faults(
        FaultModel::sample(topo, fault_fraction, fault_seed));
  }
  return topo;
}

void SimConfig::validate() const {
  const TopoParams tp = topo_params();  // throws on a malformed spec
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("SimConfig: " + msg);
  };
  const auto check_dim = [&](const char* name, int value) {
    if (value < 1) {
      std::ostringstream os;
      os << "topology dimension " << name << " must be >= 1, got " << value;
      fail(os.str());
    }
  };
  check_dim("h", tp.h);
  check_dim("p", tp.p);
  check_dim("a", tp.a);
  check_dim("g", tp.g);
  // 64-bit product: directly-set knobs can be arbitrarily large ints.
  const long long max_groups =
      static_cast<long long>(tp.a) * static_cast<long long>(tp.h) + 1;
  if (tp.g > max_groups) {
    std::ostringstream os;
    os << "g = " << tp.g << " exceeds the a*h + 1 = " << max_groups
       << " groups the " << tp.a << "x" << tp.h
       << " global link slots can connect";
    fail(os.str());
  }
  // RouteState packs local indices into 8 bits (sim/packet.hpp).
  if (tp.a > 127) {
    std::ostringstream os;
    os << "a = " << tp.a << " exceeds the engine's group-size limit of 127";
    fail(os.str());
  }
  // The engine packs the head-hop cache as port*16+vc in an int16
  // (sim/engine.cpp); checking here turns an eventual engine throw into a
  // pointed message. a <= 127 already bounds the first term.
  const long long degree = static_cast<long long>(tp.a) - 1 + tp.h + tp.p;
  if (degree > 2047) {
    std::ostringstream os;
    os << "router degree a - 1 + h + p = " << degree
       << " exceeds the engine's 2047-port limit";
    fail(os.str());
  }
  if (engine != "exact" && engine != "sharded") {
    std::ostringstream os;
    os << "engine must be \"exact\" or \"sharded\", got \"" << engine
       << "\"";
    fail(os.str());
  }
  if (engine == "sharded" && flow == FlowControl::kWormhole) {
    fail(
        "the sharded engine supports VCT only: wormhole VC ownership "
        "spans shard boundaries (use engine=exact for wormhole runs)");
  }
  if (!(load > 0.0) || load > 1.0) {
    std::ostringstream os;
    os << "load must be in (0, 1], got " << load;
    fail(os.str());
  }
  // Traffic spec: reject malformed pattern strings before anything is
  // built (topology-dependent range checks still happen at construction).
  try {
    validate_pattern_spec(pattern);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (!workload.empty()) {
    try {
      validate_workload_spec(workload);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if (onoff_on > 0.0 || onoff_off > 0.0) {
      fail(
          "workload and ON/OFF injection cannot be combined: workloads "
          "drive per-terminal loads and forced injections through the "
          "plain Bernoulli path (clear onoff_on/onoff_off or workload)");
    }
  }
  // Written as negated >=/<= so NaN fails too (every comparison with NaN
  // is false, which would sail through the direct form).
  if (!(onoff_on >= 0.0 && onoff_on <= 1.0) ||
      !(onoff_off >= 0.0 && onoff_off <= 1.0) ||
      (onoff_on == 0.0) != (onoff_off == 0.0)) {
    std::ostringstream os;
    os << "ON/OFF transition probabilities must both be in (0, 1] or both "
          "0 (disabled), got onoff_on = "
       << onoff_on << ", onoff_off = " << onoff_off;
    fail(os.str());
  }
  if (onoff_on > 0.0) {
    // The while-ON generation probability is load / (packet_phits * duty)
    // and cannot exceed 1: beyond that the sources physically cannot make
    // up for their OFF time and the real offered load silently undershoots
    // the configured one. Reject instead of mismeasuring.
    const double duty = onoff_on / (onoff_on + onoff_off);
    const double max_load = duty * packet_phits >= 1.0
                                ? 1.0
                                : duty * static_cast<double>(packet_phits);
    if (load > max_load) {
      std::ostringstream os;
      os << "ON/OFF duty cycle " << duty << " cannot sustain load " << load
         << ": ON terminals would need a generation probability above 1. "
            "Raise onoff_on, lower onoff_off, or keep load <= "
         << max_load;
      fail(os.str());
    }
  }
  if (packet_phits < 1) {
    std::ostringstream os;
    os << "packet_phits must be >= 1, got " << packet_phits;
    fail(os.str());
  }
  if (flit_phits < 0 || flit_phits > packet_phits) {
    std::ostringstream os;
    os << "flit_phits must be 0 (whole-packet) or in [1, packet_phits = "
       << packet_phits << "], got " << flit_phits;
    fail(os.str());
  }
  if (local_vcs < 1 || global_vcs < 1) {
    std::ostringstream os;
    os << "VC counts must be >= 1 per port class (the floor of every "
          "routing mechanism; counts below a mechanism's own minimum are "
          "auto-raised), got local_vcs = "
       << local_vcs << ", global_vcs = " << global_vcs;
    fail(os.str());
  }
  // VCT buffers must hold a whole packet; wormhole ones a whole flit.
  const int unit =
      flow == FlowControl::kWormhole && flit_phits > 0 ? flit_phits
                                                       : packet_phits;
  if (local_buf_phits < unit || global_buf_phits < unit) {
    std::ostringstream os;
    os << "buffers must hold at least one flow-control unit (" << unit
       << " phits), got local_buf_phits = " << local_buf_phits
       << ", global_buf_phits = " << global_buf_phits;
    fail(os.str());
  }
  if (fault_fraction < 0.0 || fault_fraction >= 1.0) {
    std::ostringstream os;
    os << "fault_fraction must be in [0, 1), got " << fault_fraction;
    fail(os.str());
  }
  if (!fault_spec.empty() && fault_fraction != 0.0) {
    fail("set fault_spec or fault_fraction, not both (an explicit fault "
         "set and a sampled one cannot be combined)");
  }
  if (!fault_spec.empty() || fault_fraction != 0.0) {
    // Resolve and apply the fault set (surfacing spec parse errors with
    // their own pointed messages) and reject sets that sever the minimal
    // route between any pair of live terminals — such a pair would starve
    // under every routing mechanism.
    const DragonflyTopology faulted = make_topology();
    const std::string err = faulted.connectivity_failure();
    if (!err.empty()) {
      fail("fault set disconnects the network: " + err);
    }
  }
}

EngineConfig SimConfig::engine_config(
    const RoutingAlgorithm& routing_algo) const {
  EngineConfig ec;
  ec.flow = flow;
  ec.packet_phits = packet_phits;
  ec.flit_phits = flit_phits;
  ec.local_vcs = std::max(local_vcs, routing_algo.min_local_vcs());
  ec.global_vcs = std::max(global_vcs, routing_algo.min_global_vcs());
  ec.local_buf_phits = local_buf_phits;
  ec.global_buf_phits = global_buf_phits;
  ec.local_latency = local_latency;
  ec.global_latency = global_latency;
  ec.watchdog_cycles = watchdog_cycles;
  ec.sharded = engine == "sharded";
  ec.shard_jobs = 0;  // resolved at runtime (DF_JOBS / --jobs), not config
  ec.seed = seed;
  return ec;
}

RoutingParams SimConfig::routing_params() const {
  RoutingParams rp;
  rp.adaptive.threshold = misroute_threshold;
  rp.adaptive.global_candidates = global_candidates;
  rp.adaptive.local_candidates = local_candidates;
  rp.piggyback.saturation_threshold = pb_threshold;
  rp.piggyback.broadcast_period = pb_period;
  return rp;
}

namespace {

// One text form per knob type. read() returns what it expected when the
// text does not parse, leaving the knob untouched, and nullptr otherwise.
template <class T>
const char* read(std::string_view text, T& knob) {
  if (const std::optional<T> v = parse_number<T>(text)) {
    knob = *v;
    return nullptr;
  }
  if (std::is_floating_point_v<T>) return "a number";
  return std::is_signed_v<T> ? "a 32-bit integer" : "a non-negative integer";
}
const char* read(std::string_view text, std::string& knob) {
  knob = text;
  return nullptr;
}
const char* read(std::string_view text, GlobalArrangement& knob) {
  if (text == "absolute") knob = GlobalArrangement::kAbsolute;
  else if (text == "palmtree") knob = GlobalArrangement::kPalmtree;
  else return "absolute or palmtree";
  return nullptr;
}
const char* read(std::string_view text, FlowControl& knob) {
  if (text == "vct") knob = FlowControl::kVirtualCutThrough;
  else if (text == "wormhole") knob = FlowControl::kWormhole;
  else return "vct or wormhole";
  return nullptr;
}

template <class T>
void write(std::ostream& os, const T& knob) {
  os << knob;
}
void write(std::ostream& os, double knob) { os << fmt_f64(knob); }
void write(std::ostream& os, GlobalArrangement knob) {
  os << (knob == GlobalArrangement::kPalmtree ? "palmtree" : "absolute");
}
void write(std::ostream& os, FlowControl knob) {
  os << (knob == FlowControl::kWormhole ? "wormhole" : "vct");
}

/// Every knob, named once, in describe() order: v(key, member, env) with
/// the DF_* variable bench_defaults() reads, or nullptr. A new knob is one
/// line here.
template <class Config, class Visitor>
void for_each_knob(Config& c, Visitor&& v) {
  v("h", c.h, "DF_H");
  v("p", c.p, "DF_P");
  v("a", c.a, "DF_A");
  v("g", c.g, "DF_G");
  v("topo", c.topo, "DF_TOPO");
  v("arrangement", c.arrangement, nullptr);
  v("fault_spec", c.fault_spec, "DF_FAULTS");
  v("fault_fraction", c.fault_fraction, "DF_FAULT_FRACTION");
  v("fault_seed", c.fault_seed, "DF_FAULT_SEED");
  v("flow", c.flow, nullptr);
  v("packet_phits", c.packet_phits, nullptr);
  v("flit_phits", c.flit_phits, nullptr);
  v("local_vcs", c.local_vcs, nullptr);
  v("global_vcs", c.global_vcs, nullptr);
  v("local_buf_phits", c.local_buf_phits, nullptr);
  v("global_buf_phits", c.global_buf_phits, nullptr);
  v("local_latency", c.local_latency, nullptr);
  v("global_latency", c.global_latency, nullptr);
  v("routing", c.routing, nullptr);
  v("misroute_threshold", c.misroute_threshold, nullptr);
  v("global_candidates", c.global_candidates, nullptr);
  v("local_candidates", c.local_candidates, nullptr);
  v("pb_threshold", c.pb_threshold, nullptr);
  v("pb_period", c.pb_period, nullptr);
  v("pattern", c.pattern, "DF_TRAFFIC");
  v("pattern_offset", c.pattern_offset, nullptr);
  v("global_fraction", c.global_fraction, nullptr);
  v("load", c.load, nullptr);
  v("onoff_on", c.onoff_on, "DF_ONOFF_ON");
  v("onoff_off", c.onoff_off, "DF_ONOFF_OFF");
  v("workload", c.workload, "DF_WORKLOAD");
  v("engine", c.engine, "DF_ENGINE");
  v("warmup_cycles", c.warmup_cycles, "DF_WARMUP");
  v("measure_cycles", c.measure_cycles, "DF_MEASURE");
  v("burst_packets", c.burst_packets, "DF_BURST");
  v("max_cycles", c.max_cycles, nullptr);
  v("watchdog_cycles", c.watchdog_cycles, nullptr);
  v("seed", c.seed, "DF_SEED");
}

}  // namespace

std::string SimConfig::describe() const {
  std::ostringstream os;
  for_each_knob(*this, [&os](const char* key, const auto& knob, const char*) {
    os << key << '=';
    write(os, knob);
    os << '\n';
  });
  return os.str();
}

void SimConfig::set(const std::string& key, const std::string& value) {
  bool known = false;
  for_each_knob(*this, [&](const char* name, auto& knob, const char*) {
    if (known || key != name) return;
    known = true;
    if (const char* want = read(value, knob)) {
      throw std::invalid_argument("config key \"" + key + "\": expected " +
                                  want + ", got \"" + value + "\"");
    }
  });
  if (!known) {
    throw std::invalid_argument("config: unknown key \"" + key + "\"");
  }
}

SimConfig SimConfig::parse(const std::string& text) {
  SimConfig cfg;
  for_each_setting(text, "config",
                   [&cfg](const std::string& key, const std::string& value) {
                     cfg.set(key, value);
                   });
  return cfg;
}

SimConfig bench_defaults() {
  SimConfig cfg;
  if (env_flag("DF_FULL")) {
    // Paper scale: h=8 — 129 groups, 2064 routers, 16512 terminals.
    cfg.h = 8;
    cfg.warmup_cycles = 20000;
    cfg.measure_cycles = 40000;
    cfg.burst_packets = 1000;
  } else {
    cfg.h = 3;  // 19 groups, 114 routers, 342 terminals
    cfg.warmup_cycles = 3000;
    cfg.measure_cycles = 8000;
    cfg.burst_packets = 200;
  }
  // Each knob's DF_* override (README "Figure benches"). A value that
  // does not parse as the knob's type keeps the preset, with a warning.
  for_each_knob(cfg, [](const char*, auto& knob, const char* env) {
    const char* raw = env != nullptr ? std::getenv(env) : nullptr;
    if (raw == nullptr || *raw == '\0') return;
    if (const char* want = read(trim(raw), knob)) {
      std::fprintf(stderr, "dfsim: ignoring %s=\"%s\" (expected %s)\n", env,
                   raw, want);
    }
  });
  return cfg;
}

}  // namespace dfsim
