// SimConfig::validate(), the (p, a, h, g) spec-string parser and the
// topology resolution rules: `h` alone keeps the paper's balanced
// shorthand, explicit knobs or a spec string unlock unbalanced shapes,
// and every out-of-range knob fails fast with a pointed message, from
// set() and validate() alike (the knob domains in src/api/knobs.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/config.hpp"
#include "api/knobs.hpp"
#include "api/manifest.hpp"
#include "api/simulator.hpp"
#include "common/text.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

std::string thrown_message(const SimConfig& cfg) {
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(TopoSpec, ParsesShorthandAndFullForm) {
  const TopoParams balanced = parse_topo_spec("h4");
  EXPECT_EQ(balanced.p, 4);
  EXPECT_EQ(balanced.a, 8);
  EXPECT_EQ(balanced.h, 4);
  EXPECT_EQ(balanced.g, 33);

  const TopoParams full = parse_topo_spec("p2a6h3g8");
  EXPECT_EQ(full.p, 2);
  EXPECT_EQ(full.a, 6);
  EXPECT_EQ(full.h, 3);
  EXPECT_EQ(full.g, 8);
}

TEST(TopoSpec, AcceptsSeparatorsAnyOrderAndPartialOverrides) {
  const TopoParams tp = parse_topo_spec("g8, a6, h3, p2");
  EXPECT_EQ(tp.p, 2);
  EXPECT_EQ(tp.a, 6);
  EXPECT_EQ(tp.g, 8);

  // Only p overridden: a and g keep their balanced-for-h defaults.
  const TopoParams partial = parse_topo_spec("h3 p1");
  EXPECT_EQ(partial.p, 1);
  EXPECT_EQ(partial.a, 6);
  EXPECT_EQ(partial.g, 19);

  const TopoParams kv = parse_topo_spec("p=2,a=6,h=3,g=8");
  EXPECT_EQ(kv.a, 6);
}

TEST(TopoSpec, BareIntegerIsBalancedShorthand) {
  const TopoParams tp = parse_topo_spec("3");
  EXPECT_EQ(tp.p, 3);
  EXPECT_EQ(tp.a, 6);
  EXPECT_EQ(tp.h, 3);
  EXPECT_EQ(tp.g, 19);
}

TEST(TopoSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_topo_spec(""), std::invalid_argument);        // no h
  EXPECT_THROW(parse_topo_spec("p2a6"), std::invalid_argument);    // no h
  EXPECT_THROW(parse_topo_spec("x4"), std::invalid_argument);      // bad dim
  EXPECT_THROW(parse_topo_spec("h"), std::invalid_argument);       // no value
  EXPECT_THROW(parse_topo_spec("h3h4"), std::invalid_argument);    // twice
  // Oversized values get the documented invalid_argument (never
  // out_of_range or a silent signed overflow downstream).
  EXPECT_THROW(parse_topo_spec("h99999999999"), std::invalid_argument);
  EXPECT_THROW(parse_topo_spec("a20000000h2g3"), std::invalid_argument);
}

TEST(Validate, NegativeKnobsAreRejectedNotDefaulted) {
  // Only exactly 0 selects the balanced default; a negative knob (e.g. a
  // DF_P=-2 typo) must fail fast, not silently run the balanced shape.
  SimConfig cfg;
  cfg.p = -2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.a = -6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.g = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validate, RejectsRouterDegreeAboveEngineLimit) {
  SimConfig cfg;
  cfg.topo = "p2000a4h60";  // degree 3 + 60 + 2000 = 2063 > 2047
  const std::string msg = thrown_message(cfg);
  EXPECT_NE(msg.find("2047-port"), std::string::npos);
}

TEST(Validate, LargeDirectKnobsDoNotOverflow) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.a = 2000000000;  // a*h+1 would overflow 32 bits
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SimConfig{};
  cfg.h = 2000000000;
  cfg.g = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, TopoParamsResolveBalancedShorthand) {
  SimConfig cfg;
  cfg.h = 3;
  const TopoParams tp = cfg.topo_params();
  EXPECT_EQ(tp.p, 3);
  EXPECT_EQ(tp.a, 6);
  EXPECT_EQ(tp.g, 19);
  EXPECT_TRUE(cfg.make_topology().balanced());
}

TEST(Config, NumericKnobsAndSpecStringResolve) {
  SimConfig cfg;
  cfg.h = 3;
  cfg.p = 2;
  cfg.a = 6;
  cfg.g = 8;
  const DragonflyTopology t = cfg.make_topology();
  EXPECT_EQ(t.terminals_per_router(), 2);
  EXPECT_EQ(t.num_groups(), 8);
  EXPECT_FALSE(t.balanced());

  // The spec string overrides the numeric knobs entirely.
  cfg.topo = "h2";
  EXPECT_TRUE(cfg.make_topology().balanced());
  EXPECT_EQ(cfg.make_topology().num_groups(), 9);
}

TEST(Validate, AcceptsDefaultsAndUnbalancedReference) {
  SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.h = 3;
  cfg.p = 2;
  cfg.a = 6;
  cfg.g = 8;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Validate, RejectsBadTopologyWithPointedMessages) {
  SimConfig cfg;
  cfg.h = 0;
  EXPECT_NE(thrown_message(cfg).find("h"), std::string::npos);

  cfg = SimConfig{};
  cfg.h = 2;
  cfg.a = 4;
  cfg.g = 10;  // > a*h + 1 = 9
  const std::string msg = thrown_message(cfg);
  EXPECT_NE(msg.find("a*h + 1"), std::string::npos);
  EXPECT_NE(msg.find("10"), std::string::npos);

  cfg = SimConfig{};
  cfg.topo = "h3 q5";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validate, RejectsLoadOutsideUnitInterval) {
  SimConfig cfg;
  for (const double bad : {0.0, -0.5, 1.0001, 2.0}) {
    cfg.load = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << bad;
  }
  cfg.load = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.load = 1e-6;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Validate, RejectsFlitLargerThanPacket) {
  SimConfig cfg;
  cfg.packet_phits = 8;
  cfg.flit_phits = 10;
  const std::string msg = thrown_message(cfg);
  EXPECT_NE(msg.find("flit_phits"), std::string::npos);
  cfg.flit_phits = 8;
  EXPECT_NO_THROW(cfg.validate());
  cfg.flit_phits = 0;  // whole-packet mode
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Validate, RejectsVcCountsBelowTheFloor) {
  SimConfig cfg;
  cfg.local_vcs = 0;
  EXPECT_NE(thrown_message(cfg).find("local_vcs"), std::string::npos);
  cfg = SimConfig{};
  cfg.global_vcs = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Validate, RunSteadyRejectsInvalidConfigsBeforeBuilding) {
  SimConfig cfg;
  cfg.h = 2;
  cfg.load = 1.5;
  EXPECT_THROW(run_steady(cfg), std::invalid_argument);
  cfg.load = 0.5;
  cfg.g = 100;  // impossible group count for h=2
  EXPECT_THROW(run_steady(cfg), std::invalid_argument);
  cfg.g = 0;
  cfg.flit_phits = 99;
  EXPECT_THROW(run_burst(cfg), std::invalid_argument);
}

TEST(Config, BenchDefaultsHonourShapeEnvironment) {
  ::setenv("DF_H", "3", 1);
  ::setenv("DF_P", "2", 1);
  ::setenv("DF_A", "6", 1);
  ::setenv("DF_G", "8", 1);
  const SimConfig cfg = bench_defaults();
  const TopoParams tp = cfg.topo_params();
  EXPECT_EQ(tp.p, 2);
  EXPECT_EQ(tp.a, 6);
  EXPECT_EQ(tp.h, 3);
  EXPECT_EQ(tp.g, 8);
  ::unsetenv("DF_H");
  ::unsetenv("DF_P");
  ::unsetenv("DF_A");
  ::unsetenv("DF_G");

  ::setenv("DF_TOPO", "p1a4h2g5", 1);
  const SimConfig spec_cfg = bench_defaults();
  EXPECT_EQ(spec_cfg.topo_params().g, 5);
  ::unsetenv("DF_TOPO");
}

// The engine still rejects explicit EngineConfigs below a mechanism's VC
// floor (SimConfig::engine_config auto-raises instead, which
// Config.RaisesVcsToMechanismMinimum in api_test pins).
TEST(Validate, EngineRejectsVcsBelowMechanismFloor) {
  const DragonflyTopology topo(2);
  SimConfig cfg;
  auto par = make_routing("par-6/2", topo, cfg.routing_params());
  EngineConfig ec;
  ec.local_vcs = 3;  // par-6/2 needs 6
  UniformPattern pattern(topo);
  InjectionProcess inj;
  EXPECT_THROW(Engine(topo, ec, *par, pattern, inj),
               std::invalid_argument);
}

// Each of these values used to run, or crash the run, instead of failing
// with the key's name.
void expect_rejected(const std::string& key, const std::string& value,
                     const std::function<void(SimConfig&)>& assign) {
  SCOPED_TRACE(key + " = " + value);
  SimConfig by_text;
  try {
    by_text.set(key, value);
    ADD_FAILURE() << "set() accepted it";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
  SimConfig direct;
  assign(direct);
  EXPECT_NE(thrown_message(direct).find(key), std::string::npos)
      << thrown_message(direct);
}

TEST(KnobDomain, NamedOutOfDomainValuesAreRejected) {
  expect_rejected("pb_period", "0", [](SimConfig& c) { c.pb_period = 0; });
  expect_rejected("pb_period", "-1", [](SimConfig& c) { c.pb_period = -1; });
  expect_rejected("global_latency", "-3",
                  [](SimConfig& c) { c.global_latency = -3; });
  expect_rejected("local_latency", "0",
                  [](SimConfig& c) { c.local_latency = 0; });
  expect_rejected("watchdog_cycles", "0",
                  [](SimConfig& c) { c.watchdog_cycles = 0; });
  expect_rejected("measure_cycles", "0",
                  [](SimConfig& c) { c.measure_cycles = 0; });
  expect_rejected("global_fraction", "7",
                  [](SimConfig& c) { c.global_fraction = 7; });
  expect_rejected("misroute_threshold", "-5",
                  [](SimConfig& c) { c.misroute_threshold = -5; });
  expect_rejected("pb_threshold", "-1",
                  [](SimConfig& c) { c.pb_threshold = -1; });
  expect_rejected("global_candidates", "-1",
                  [](SimConfig& c) { c.global_candidates = -1; });
  expect_rejected("routing", "bogus",
                  [](SimConfig& c) { c.routing = "bogus"; });
  expect_rejected("engine", "fast", [](SimConfig& c) { c.engine = "fast"; });
  expect_rejected("topo", "h0", [](SimConfig& c) { c.topo = "h0"; });
  expect_rejected("flow", "7", [](SimConfig& c) {
    c.flow = static_cast<FlowControl>(7);
  });
}

TEST(KnobDomain, MessageNamesKeyValueAndDomain) {
  SimConfig cfg;
  try {
    cfg.set("pb_period", "0");
    FAIL() << "set() accepted pb_period = 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "config key \"pb_period\": 0 is outside [1, 2147483647]");
  }
  EXPECT_EQ(cfg.pb_period, SimConfig{}.pb_period) << "rejected, not stored";
  cfg.load = 0;
  EXPECT_EQ(thrown_message(cfg),
            "config key \"load\": 0 is outside (0, 1]");
}

// One bound of a numeric knob, probed from both sides.
struct BoundCase {
  std::string key;
  std::string outside, inside;  // as set() reads them
  std::function<void(SimConfig&)> assign_outside;
};

template <class T>
std::string text_of(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return fmt_f64(v);
  } else {
    return std::to_string(v);
  }
}

template <class T>
T step(T v, bool up) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::nextafter(v, up ? std::numeric_limits<T>::infinity()
                                : -std::numeric_limits<T>::infinity());
  } else {
    return up ? v + 1 : v - 1;
  }
}

// Stores `value` in knob `key` of `cfg` directly, as C++ callers do.
template <class T>
void assign(SimConfig& cfg, const std::string& key, T value) {
  knob::for_each_knob(
      cfg, [&](const char* name, auto& member, const char*, const auto&) {
        if constexpr (std::is_same_v<decltype(member), T&>) {
          if (key == name) member = value;
        }
      });
}

// Every finite bound of every numeric knob in the knob list, so a knob
// added there is covered here without editing this test.
std::vector<BoundCase> bound_cases() {
  std::vector<BoundCase> out;
  SimConfig probe;
  knob::for_each_knob(probe, [&out](const char* key, auto& member,
                                    const char*, const auto& domain) {
    using T = std::remove_cvref_t<decltype(member)>;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(domain)>,
                                 knob::Range<T>>) {
      const auto add = [&](T bound, bool open, bool upper) {
        const T outside = open ? bound : step(bound, upper);
        const T inside = open ? step(bound, !upper) : bound;
        const std::string name = key;
        out.push_back({name, text_of(outside), text_of(inside),
                       [name, outside](SimConfig& c) {
                         assign(c, name, outside);
                       }});
      };
      if (domain.lo != std::numeric_limits<T>::lowest()) {
        add(domain.lo, domain.lo_open, false);
      }
      if (domain.hi != std::numeric_limits<T>::max()) {
        add(domain.hi, domain.hi_open, true);
      }
    }
  });
  return out;
}

TEST(KnobDomain, OneStepOutsideEachBoundIsRejected) {
  const std::vector<BoundCase> cases = bound_cases();
  ASSERT_GE(cases.size(), 30u);
  for (const BoundCase& c : cases) {
    SCOPED_TRACE(c.key + " = " + c.outside);
    SimConfig by_text;
    try {
      by_text.set(c.key, c.outside);
      ADD_FAILURE() << "set() accepted it";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + c.key + "\""),
                std::string::npos)
          << e.what();
    }
    SimConfig direct;
    c.assign_outside(direct);
    EXPECT_NE(thrown_message(direct).find("\"" + c.key + "\""),
              std::string::npos)
        << thrown_message(direct);
  }
}

TEST(KnobDomain, EachBoundItselfIsAccepted) {
  for (const BoundCase& c : bound_cases()) {
    SCOPED_TRACE(c.key + " = " + c.inside);
    SimConfig cfg;
    EXPECT_NO_THROW(cfg.set(c.key, c.inside));
  }
}

TEST(KnobDomain, ManifestGridValueFailsAtParse) {
  try {
    Manifest::parse("name = m\nrouting = pb\ngrid.pb_period = 10, 0\n");
    FAIL() << "the manifest parsed";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pb_period"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace dfsim
