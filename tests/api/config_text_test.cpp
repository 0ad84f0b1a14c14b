// SimConfig::describe() / parse() — the textual round-trip the manifest
// ledger and run checkpoints lean on for config-drift detection. The
// contract: parse(describe()) reconstructs the config exactly (doubles
// included, via round-trip precision), and malformed input fails with a
// message naming the offending key or line.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/config.hpp"

namespace dfsim {
namespace {

SimConfig exotic_config() {
  SimConfig cfg;
  cfg.topo = "p2a6h3g8";
  cfg.arrangement = GlobalArrangement::kPalmtree;
  cfg.fault_spec = "r:4,r:5";
  cfg.fault_seed = 77;
  cfg.flow = FlowControl::kWormhole;
  cfg.packet_phits = 80;
  cfg.flit_phits = 10;
  cfg.routing = "ugal";
  cfg.misroute_threshold = 1.0 / 3.0;  // not representable in decimal —
  cfg.load = 0.1 + 0.2;                // round-trip precision must hold
  cfg.pattern = "mix:un=0.7,advg+1=0.3";
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.2;
  cfg.warmup_cycles = 12345;
  cfg.seed = 987654321;
  return cfg;
}

// Every knob away from its default, each to a value no other knob holds.
SimConfig all_knobs_config() {
  SimConfig cfg;
  cfg.h = 5;
  cfg.p = 3;
  cfg.a = 7;
  cfg.g = 11;
  cfg.topo = "p2a6h3g8";
  cfg.arrangement = GlobalArrangement::kPalmtree;
  cfg.fault_spec = "r:4";
  cfg.fault_fraction = 0.125;
  cfg.fault_seed = 99;
  cfg.flow = FlowControl::kWormhole;
  cfg.packet_phits = 80;
  cfg.flit_phits = 10;
  cfg.local_vcs = 4;
  cfg.global_vcs = 3;
  cfg.local_buf_phits = 64;
  cfg.global_buf_phits = 512;
  cfg.local_latency = 11;
  cfg.global_latency = 101;
  cfg.routing = "rlm";
  cfg.misroute_threshold = 0.3;
  cfg.global_candidates = 5;
  cfg.local_candidates = 6;
  cfg.pb_threshold = 1e-300;
  cfg.pb_period = 12;
  cfg.pattern = "advg+2";
  cfg.pattern_offset = -3;
  cfg.global_fraction = 0.25;
  cfg.load = 0.1 + 0.2;
  cfg.onoff_on = 0.05;
  cfg.onoff_off = 0.2;
  cfg.workload = "coll:alltoall";
  cfg.engine = "sharded";
  cfg.warmup_cycles = 1234;
  cfg.measure_cycles = 5678;
  cfg.burst_packets = 42;
  cfg.max_cycles = 999999;
  cfg.watchdog_cycles = 31337;
  cfg.seed = std::numeric_limits<std::uint64_t>::max();
  return cfg;
}

// describe() as printed before the knob list was shared by describe(),
// set() and bench_defaults(). Every run checkpoint and MANIFEST.txt
// stores this text, so it must not move a byte.
constexpr const char* kDefaultText = R"(h=4
p=0
a=0
g=0
topo=
arrangement=absolute
fault_spec=
fault_fraction=0
fault_seed=1
flow=vct
packet_phits=8
flit_phits=0
local_vcs=3
global_vcs=2
local_buf_phits=32
global_buf_phits=256
local_latency=10
global_latency=100
routing=olm
misroute_threshold=0.45000000000000001
global_candidates=4
local_candidates=4
pb_threshold=0.34999999999999998
pb_period=10
pattern=uniform
pattern_offset=1
global_fraction=0.5
load=0.5
onoff_on=0
onoff_off=0
workload=
engine=exact
warmup_cycles=5000
measure_cycles=15000
burst_packets=200
max_cycles=2000000
watchdog_cycles=20000
seed=1
)";
constexpr const char* kExoticText = R"(h=4
p=0
a=0
g=0
topo=p2a6h3g8
arrangement=palmtree
fault_spec=r:4,r:5
fault_fraction=0
fault_seed=77
flow=wormhole
packet_phits=80
flit_phits=10
local_vcs=3
global_vcs=2
local_buf_phits=32
global_buf_phits=256
local_latency=10
global_latency=100
routing=ugal
misroute_threshold=0.33333333333333331
global_candidates=4
local_candidates=4
pb_threshold=0.34999999999999998
pb_period=10
pattern=mix:un=0.7,advg+1=0.3
pattern_offset=1
global_fraction=0.5
load=0.30000000000000004
onoff_on=0.050000000000000003
onoff_off=0.20000000000000001
workload=
engine=exact
warmup_cycles=12345
measure_cycles=15000
burst_packets=200
max_cycles=2000000
watchdog_cycles=20000
seed=987654321
)";
constexpr const char* kAllKnobsText = R"(h=5
p=3
a=7
g=11
topo=p2a6h3g8
arrangement=palmtree
fault_spec=r:4
fault_fraction=0.125
fault_seed=99
flow=wormhole
packet_phits=80
flit_phits=10
local_vcs=4
global_vcs=3
local_buf_phits=64
global_buf_phits=512
local_latency=11
global_latency=101
routing=rlm
misroute_threshold=0.29999999999999999
global_candidates=5
local_candidates=6
pb_threshold=1e-300
pb_period=12
pattern=advg+2
pattern_offset=-3
global_fraction=0.25
load=0.30000000000000004
onoff_on=0.050000000000000003
onoff_off=0.20000000000000001
workload=coll:alltoall
engine=sharded
warmup_cycles=1234
measure_cycles=5678
burst_packets=42
max_cycles=999999
watchdog_cycles=31337
seed=18446744073709551615
)";

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

void expect_error_names(const std::string& key, const std::string& value) {
  SimConfig cfg;
  try {
    cfg.set(key, value);
    FAIL() << "set(\"" << key << "\", \"" << value << "\") was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << e.what();
  }
}

TEST(ConfigText, DescribeTextIsPinned) {
  EXPECT_EQ(SimConfig{}.describe(), kDefaultText);
  EXPECT_EQ(exotic_config().describe(), kExoticText);
  EXPECT_EQ(all_knobs_config().describe(), kAllKnobsText);
}

TEST(ConfigText, EveryKnobRoundTrips) {
  const std::string text = all_knobs_config().describe();
  // Line by line against the defaults: every knob is printed, and every
  // one of them was moved, so the round-trip below covers them all.
  const std::vector<std::string> moved = lines(text);
  const std::vector<std::string> dflt = lines(SimConfig{}.describe());
  ASSERT_EQ(moved.size(), dflt.size());
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_NE(moved[i], dflt[i]) << "knob left at its default: " << dflt[i];
  }
  EXPECT_EQ(SimConfig::parse(text).describe(), text);
}

TEST(ConfigText, SetAcceptsExactlyTheDescribedKeys) {
  SimConfig cfg;
  for (const std::string& line : lines(all_knobs_config().describe())) {
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    EXPECT_NO_THROW(cfg.set(line.substr(0, eq), line.substr(eq + 1)))
        << line;
  }
  EXPECT_EQ(cfg.describe(), kAllKnobsText);
  for (const char* key : {"", "H", "seed ", "warmup", "profile", "jobs",
                          "shard_jobs", "describe", "DF_H"}) {
    EXPECT_THROW(cfg.set(key, "1"), std::invalid_argument) << key;
  }
}

TEST(ConfigText, NegativeCountsThrowNamingTheKey) {
  // A negative count used to wrap to 2^64 - N and pass validate().
  for (const char* key : {"warmup_cycles", "measure_cycles", "burst_packets",
                          "max_cycles", "watchdog_cycles", "seed",
                          "fault_seed"}) {
    SCOPED_TRACE(key);
    expect_error_names(key, "-5");
    expect_error_names(key, "18446744073709551616");  // 2^64
  }
}

TEST(ConfigText, NumbersMustBeTheWholeValue) {
  for (const char* value : {"0.5abc", " 0.5", "0.5 ", "+0.5", "", "0x1p-1"}) {
    SCOPED_TRACE(value);
    expect_error_names("load", value);
  }
  expect_error_names("h", "3x");
  expect_error_names("h", "2147483648");  // beyond 32 bits
  SimConfig cfg;
  cfg.set("pattern_offset", "-3");
  EXPECT_EQ(cfg.pattern_offset, -3);
  cfg.set("seed", "18446744073709551615");
  EXPECT_EQ(cfg.seed, std::numeric_limits<std::uint64_t>::max());
}

class BenchDefaultsEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"DF_FULL", "DF_H", "DF_WARMUP", "DF_TRAFFIC",
                             "DF_FAULT_FRACTION", "DF_SEED"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(BenchDefaultsEnv, EachKnobReadsItsVariable) {
  EXPECT_EQ(bench_defaults().h, 3);
  EXPECT_EQ(bench_defaults().warmup_cycles, 3000u);
  ::setenv("DF_FULL", "1", 1);
  EXPECT_EQ(bench_defaults().h, 8);
  EXPECT_EQ(bench_defaults().warmup_cycles, 20000u);
  ::setenv("DF_H", " 5 ", 1);
  ::setenv("DF_TRAFFIC", "advg+1", 1);
  ::setenv("DF_FAULT_FRACTION", "0.25", 1);
  ::setenv("DF_SEED", "18446744073709551615", 1);
  const SimConfig cfg = bench_defaults();
  EXPECT_EQ(cfg.h, 5);
  EXPECT_EQ(cfg.pattern, "advg+1");
  EXPECT_EQ(cfg.fault_fraction, 0.25);
  EXPECT_EQ(cfg.seed, std::numeric_limits<std::uint64_t>::max());
}

TEST_F(BenchDefaultsEnv, UnparsableValuesKeepThePreset) {
  ::setenv("DF_WARMUP", "-5", 1);  // used to wrap to 2^64 - 5
  ::setenv("DF_H", "3x", 1);
  ::setenv("DF_FAULT_FRACTION", "lots", 1);
  const SimConfig cfg = bench_defaults();
  EXPECT_EQ(cfg.warmup_cycles, 3000u);
  EXPECT_EQ(cfg.h, 3);
  EXPECT_EQ(cfg.fault_fraction, 0.0);
}

TEST(ConfigText, DescribeParseRoundTripsExactly) {
  const SimConfig cfg = exotic_config();
  const std::string text = cfg.describe();
  const SimConfig back = SimConfig::parse(text);
  // describe() is the canonical form: a true round-trip reproduces it
  // byte for byte (which also proves every double survived exactly).
  EXPECT_EQ(back.describe(), text);
  EXPECT_EQ(back.load, cfg.load);
  EXPECT_EQ(back.misroute_threshold, cfg.misroute_threshold);
  EXPECT_EQ(back.flow, cfg.flow);
  EXPECT_EQ(back.arrangement, cfg.arrangement);
  EXPECT_EQ(back.topo, cfg.topo);
  EXPECT_EQ(back.fault_spec, cfg.fault_spec);
}

TEST(ConfigText, DefaultConfigRoundTrips) {
  const SimConfig cfg;
  EXPECT_EQ(SimConfig::parse(cfg.describe()).describe(), cfg.describe());
}

TEST(ConfigText, ParseAcceptsSubsetCommentsAndBlanks) {
  const SimConfig cfg = SimConfig::parse(
      "# just two knobs, defaults for the rest\n"
      "\n"
      "routing = pb\n"
      "load=0.25\n");
  EXPECT_EQ(cfg.routing, "pb");
  EXPECT_EQ(cfg.load, 0.25);
  EXPECT_EQ(cfg.h, SimConfig{}.h);  // untouched default
}

TEST(ConfigText, UnknownKeyNamesTheKey) {
  try {
    SimConfig cfg;
    cfg.set("no_such_knob", "1");
    FAIL() << "set accepted an unknown key";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_knob"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigText, BadValueNamesTheKey) {
  SimConfig cfg;
  EXPECT_THROW(cfg.set("load", "fast"), std::invalid_argument);
  EXPECT_THROW(cfg.set("warmup_cycles", "12x"), std::invalid_argument);
  EXPECT_THROW(cfg.set("flow", "quantum"), std::invalid_argument);
}

TEST(ConfigText, ParseNamesTheOffendingLine) {
  try {
    SimConfig::parse("routing = olm\nwat\n");
    FAIL() << "parse accepted a line without =";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dfsim
