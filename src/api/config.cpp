#include "api/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "api/knobs.hpp"
#include "common/env.hpp"
#include "common/text.hpp"
#include "topology/fault_model.hpp"

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
    if (*fields[slot] < 1) fail(dim + " must be >= 1");
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

namespace {

using knob::OneOf;
using knob::Range;
using knob::Spec;
using knob::Text;

// One text form per knob type. read() returns false, leaving the knob
// untouched, when `text` spells no value of the knob's type.
template <class T, class Domain>
bool read(std::string_view text, T& knob, const Domain&) {
  if constexpr (std::is_same_v<T, std::string>) {
    knob = text;
    return true;
  } else {
    const std::optional<T> v = parse_number<T>(text);
    if (v) knob = *v;
    return v.has_value();
  }
}
template <class E, std::size_t N>
  requires std::is_enum_v<E>
bool read(std::string_view text, E& knob, const OneOf<N>& domain) {
  for (std::size_t i = 0; i < N; ++i) {
    if (text == domain.names[i]) {
      knob = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

template <class T, class Domain>
void write(std::ostream& os, const T& knob, const Domain& domain) {
  if constexpr (std::is_enum_v<T>) {
    const auto i = static_cast<std::size_t>(knob);
    if (i < domain.names.size()) {
      os << domain.names[i];
    } else {
      os << i;
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    os << fmt_f64(knob);
  } else {
    os << knob;
  }
}

template <std::size_t N>
std::string names(const OneOf<N>& domain) {
  std::string out;
  for (const char* name : domain.names) {
    out += out.empty() ? "" : ", ";
    out += name;
  }
  return out;
}

// What read() wanted, for the message when it fails.
template <class T, class Domain>
std::string expected(const T&, const Domain& domain) {
  if constexpr (requires { domain.names; }) {
    return "one of " + names(domain);
  } else if constexpr (std::is_floating_point_v<T>) {
    return "a number";
  } else {
    return std::is_signed_v<T> ? "a 32-bit integer" : "a non-negative integer";
  }
}

// The domain checks: each returns when the value is legal, and only a
// failure builds a string.
[[noreturn]] void reject(const char* key, const std::string& why) {
  throw std::invalid_argument(std::string("config key \"") + key +
                              "\": " + why);
}

template <class T>
void check_domain(const char* key, const T& value, const Range<T>& domain) {
  if (domain.contains(value)) return;
  std::ostringstream os;
  write(os, value, domain);
  os << " is outside " << (domain.lo_open ? '(' : '[');
  write(os, domain.lo, domain);
  os << ", ";
  write(os, domain.hi, domain);
  os << (domain.hi_open ? ')' : ']');
  reject(key, os.str());
}

template <class T, std::size_t N>
void check_domain(const char* key, const T& value, const OneOf<N>& domain) {
  if constexpr (std::is_enum_v<T>) {
    if (static_cast<std::size_t>(value) < N) return;
  } else {
    for (const char* name : domain.names) {
      if (value == name) return;
    }
  }
  std::ostringstream os;
  os << '"';
  write(os, value, domain);
  os << "\" is not " << expected(value, domain);
  reject(key, os.str());
}

void check_domain(const char* key, const std::string& value,
                  const Spec& domain) {
  if (domain.or_empty && value.empty()) return;
  try {
    domain.check(value);
  } catch (const std::invalid_argument& e) {
    reject(key, e.what());
  }
}

void check_domain(const char*, const std::string&, Text) {}

}  // namespace

void SimConfig::validate() const {
  knob::for_each_knob(*this, [](const char* key, const auto& knob,
                                const char*, const auto& domain) {
    check_domain(key, knob, domain);
  });
  // The rules below join knobs; each knob alone is in its domain.
  const TopoParams tp = topo_params();
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("SimConfig: " + msg);
  };
  if (tp.h < 1) {
    fail("h = " + std::to_string(h) +
         " leaves routers without global ports: set h >= 1 or a topo spec");
  }
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
  if (engine == "sharded" && flow == FlowControl::kWormhole) {
    fail(
        "the sharded engine supports VCT only: wormhole VC ownership "
        "spans shard boundaries (use engine=exact for wormhole runs)");
  }
  if (!workload.empty() && (onoff_on > 0.0 || onoff_off > 0.0)) {
    fail(
        "workload and ON/OFF injection cannot be combined: workloads "
        "drive per-terminal loads and forced injections through the "
        "plain Bernoulli path (clear onoff_on/onoff_off or workload)");
  }
  if ((onoff_on == 0.0) != (onoff_off == 0.0)) {
    std::ostringstream os;
    os << "ON/OFF transition probabilities must both be > 0 or both 0 "
          "(disabled), got onoff_on = "
       << onoff_on << ", onoff_off = " << onoff_off;
    fail(os.str());
  }
  if (load > onoff_load_limit()) {
    std::ostringstream os;
    os << "ON/OFF duty cycle " << onoff_on / (onoff_on + onoff_off)
       << " cannot sustain load " << load
       << ": ON terminals would need a generation probability above 1. "
          "Raise onoff_on, lower onoff_off, or keep load <= "
       << onoff_load_limit();
    fail(os.str());
  }
  if (flit_phits > packet_phits) {
    std::ostringstream os;
    os << "flit_phits must be 0 (whole-packet) or in [1, packet_phits = "
       << packet_phits << "], got " << flit_phits;
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

double SimConfig::onoff_load_limit() const {
  if (onoff_on == 0.0) return 1.0;
  // While ON a terminal generates load / (packet_phits * duty) packets a
  // cycle, and a probability cannot pass 1: beyond that the sources
  // cannot make up for their OFF time and the real offered load silently
  // undershoots the configured one.
  const double duty = onoff_on / (onoff_on + onoff_off);
  return std::min(1.0, duty * static_cast<double>(packet_phits));
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

std::string SimConfig::describe() const {
  std::ostringstream os;
  knob::for_each_knob(*this, [&os](const char* key, const auto& knob,
                                   const char*, const auto& domain) {
    os << key << '=';
    write(os, knob, domain);
    os << '\n';
  });
  return os.str();
}

void SimConfig::set(const std::string& key, const std::string& value) {
  bool known = false;
  knob::for_each_knob(*this, [&](const char* name, auto& knob, const char*,
                                 const auto& domain) {
    if (known || key != name) return;
    known = true;
    auto v = knob;
    if (!read(value, v, domain)) {
      reject(name,
             "expected " + expected(v, domain) + ", got \"" + value + "\"");
    }
    check_domain(name, v, domain);
    knob = std::move(v);
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
  knob::for_each_knob(cfg, [](const char*, auto& knob, const char* env,
                              const auto& domain) {
    const char* raw = env != nullptr ? std::getenv(env) : nullptr;
    if (raw == nullptr || *raw == '\0') return;
    if (!read(trim(raw), knob, domain)) {
      std::fprintf(stderr, "dfsim: ignoring %s=\"%s\" (expected %s)\n", env,
                   raw, expected(knob, domain).c_str());
    }
  });
  return cfg;
}

}  // namespace dfsim
