#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "../test_util.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

using testing::NeverPattern;
using testing::TestNet;

EngineConfig small_vct() {
  EngineConfig ec;
  ec.flow = FlowControl::kVirtualCutThrough;
  ec.packet_phits = 8;
  ec.local_latency = 10;
  ec.global_latency = 100;
  return ec;
}

/// Expected zero-load latency of one packet: injection serialization +
/// per-hop (serialization + wire) + ejection serialization.
Cycle expected_latency(const DragonflyTopology& topo, NodeId src, NodeId dst,
                       int phits, int local_lat, int global_lat) {
  const RouterId a = topo.router_of_terminal(src);
  const RouterId b = topo.router_of_terminal(dst);
  Cycle total = static_cast<Cycle>(phits);  // injection
  if (a != b) {
    const GroupId ga = topo.group_of_router(a);
    const GroupId gb = topo.group_of_router(b);
    if (ga == gb) {
      total += static_cast<Cycle>(phits + local_lat);
    } else {
      if (topo.gateway_router(ga, gb) != a) {
        total += static_cast<Cycle>(phits + local_lat);
      }
      total += static_cast<Cycle>(phits + global_lat);
      if (topo.gateway_router(gb, ga) != b) {
        total += static_cast<Cycle>(phits + local_lat);
      }
    }
  }
  total += static_cast<Cycle>(phits);  // ejection
  return total;
}

/// Most flits any input VC of routers [first, end) holds.
std::int32_t deepest_vc(const Engine& engine, RouterId first, RouterId end) {
  const DragonflyTopology& topo = engine.topology();
  std::int32_t depth = 0;
  for (RouterId r = first; r < end; ++r) {
    for (PortId p = 0; p < topo.ports_per_router(); ++p) {
      for (VcId v = 0; v < engine.vc_count(p); ++v) {
        depth = std::max(depth, engine.input_vc(r, p, v).fifo.size());
      }
    }
  }
  return depth;
}

TEST(Engine, SingleMinimalPacketLatencyIsExact) {
  TestNet net(2, "minimal", small_vct(), std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;

  // A destination two groups away whose entry/exit add local hops.
  const NodeId src = 0;
  const NodeId dst = topo.terminal_id(topo.router_id(1, 3), 0);
  net.engine.inject_for_test(src, dst, 0);

  Cycle delivered_at = 0;
  net.engine.set_delivery_hook(
      [&](const Packet& pkt, Cycle now) {
        EXPECT_EQ(pkt.src, src);
        EXPECT_EQ(pkt.dst, dst);
        delivered_at = now;
      });
  net.engine.run_until(2000);
  ASSERT_GT(delivered_at, 0u);
  EXPECT_EQ(delivered_at, expected_latency(topo, src, dst, 8, 10, 100));
  EXPECT_EQ(net.engine.delivered_packets(), 1u);
  EXPECT_EQ(net.engine.packets_in_flight(), 0u);
}

TEST(Engine, SameRouterPacketOnlySerializes) {
  TestNet net(2, "minimal", small_vct(), std::make_unique<NeverPattern>());
  const NodeId src = 0;
  const NodeId dst = 1;  // h=2: terminals 0 and 1 share router 0
  ASSERT_EQ(net.topo.router_of_terminal(src), net.topo.router_of_terminal(dst));
  net.engine.inject_for_test(src, dst, 0);
  Cycle delivered_at = 0;
  net.engine.set_delivery_hook(
      [&](const Packet&, Cycle now) { delivered_at = now; });
  net.engine.run_until(100);
  EXPECT_EQ(delivered_at, 16u);  // 8 in + 8 out, no network hop
}

TEST(Engine, IntraGroupPacketTakesOneLocalHop) {
  TestNet net(2, "minimal", small_vct(), std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;
  const NodeId src = 0;
  const NodeId dst = topo.terminal_id(topo.router_id(0, 2), 1);
  net.engine.inject_for_test(src, dst, 0);
  Cycle delivered_at = 0;
  int hops = 0;
  net.engine.set_delivery_hook([&](const Packet& pkt, Cycle now) {
    delivered_at = now;
    hops = pkt.rs.total_hops;
  });
  net.engine.run_until(200);
  EXPECT_EQ(hops, 1);
  EXPECT_EQ(delivered_at, expected_latency(topo, src, dst, 8, 10, 100));
}

// The timing wheel spans the longest wire, whichever class it is: sized
// from the global latency alone, a 300-cycle local hop wrapped round a
// 32-slot wheel and arrived early.
TEST(Engine, LocalLatencyAboveGlobalIsHonoured) {
  EngineConfig ec = small_vct();
  ec.local_latency = 300;
  ec.global_latency = 20;
  TestNet net(2, "minimal", ec, std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;
  const NodeId src = 0;
  const NodeId dst = topo.terminal_id(topo.router_id(0, 2), 1);
  net.engine.inject_for_test(src, dst, 0);
  Cycle delivered_at = 0;
  net.engine.set_delivery_hook(
      [&](const Packet&, Cycle now) { delivered_at = now; });
  net.engine.run_until(1000);
  EXPECT_GE(delivered_at, 300u);
  EXPECT_EQ(delivered_at, expected_latency(topo, src, dst, 8, 300, 20));
}

TEST(Engine, WormholeSinglePacketLatency) {
  EngineConfig ec = small_vct();
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  TestNet net(2, "minimal", ec, std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;
  const NodeId src = 0;
  const NodeId dst = topo.terminal_id(topo.router_id(1, 3), 0);
  net.engine.inject_for_test(src, dst, 0);
  Cycle delivered_at = 0;
  net.engine.set_delivery_hook(
      [&](const Packet&, Cycle now) { delivered_at = now; });
  net.engine.run_until(5000);
  ASSERT_GT(delivered_at, 0u);
  // With no contention the tail leaves the source back-to-back at cycle
  // 80 and then pays (flit serialization + wire) per hop + flit ejection.
  const RouterId a = topo.router_of_terminal(src);
  const RouterId b = topo.router_of_terminal(dst);
  const GroupId ga = topo.group_of_router(a);
  const GroupId gb = topo.group_of_router(b);
  Cycle expected = 80;
  if (topo.gateway_router(ga, gb) != a) expected += 10 + 10;
  expected += 10 + 100;
  if (topo.gateway_router(gb, ga) != b) expected += 10 + 10;
  expected += 10;
  EXPECT_EQ(delivered_at, expected);
}

TEST(Engine, WormholeDeliversAllFlitsInOrder) {
  EngineConfig ec = small_vct();
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  TestNet net(2, "minimal", ec, std::make_unique<NeverPattern>());
  const NodeId dst = net.topo.terminal_id(net.topo.router_id(3, 1), 0);
  for (int i = 0; i < 4; ++i) net.engine.inject_for_test(0, dst, 0);
  net.engine.run_until(5000);
  EXPECT_EQ(net.engine.delivered_packets(), 4u);
  EXPECT_FALSE(net.engine.deadlock_detected());
  EXPECT_EQ(net.engine.packets_in_flight(), 0u);
}

TEST(Engine, RejectsVctWithMultiFlitPackets) {
  EngineConfig ec = small_vct();
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  EXPECT_THROW(
      TestNet(2, "minimal", ec, std::make_unique<NeverPattern>()),
      std::invalid_argument);
}

TEST(Engine, RejectsIndivisibleFlitSize) {
  EngineConfig ec = small_vct();
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 7;
  EXPECT_THROW(
      TestNet(2, "minimal", ec, std::make_unique<NeverPattern>()),
      std::invalid_argument);
}

TEST(Engine, RejectsWormholeForOlm) {
  EngineConfig ec = small_vct();
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  EXPECT_THROW(TestNet(2, "olm", ec, std::make_unique<NeverPattern>()),
               std::invalid_argument);
}

TEST(Engine, RejectsInsufficientVcsForPar62) {
  EngineConfig ec = small_vct();
  ec.local_vcs = 3;  // PAR-6/2 needs 6
  EXPECT_THROW(TestNet(2, "par-6/2", ec, std::make_unique<NeverPattern>()),
               std::invalid_argument);
}

TEST(Engine, BernoulliDrainConservesPackets) {
  EngineConfig ec = small_vct();
  DragonflyTopology topo(2);
  auto routing = make_routing("minimal", topo, {});
  auto pattern = std::make_unique<UniformPattern>(topo);
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBurst;
  inj.burst_packets = 5;
  Engine engine(topo, ec, *routing, *pattern, inj);
  const auto expected =
      5ull * static_cast<std::uint64_t>(topo.num_terminals());
  while (engine.delivered_packets() < expected && engine.now() < 100000 &&
         engine.step()) {
  }
  EXPECT_EQ(engine.delivered_packets(), expected);
  EXPECT_EQ(engine.packets_in_flight(), 0u);
  EXPECT_FALSE(engine.deadlock_detected());
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    EngineConfig ec;
    ec.seed = 99;
    DragonflyTopology topo(2);
    auto routing = make_routing("olm", topo, {});
    auto pattern = std::make_unique<UniformPattern>(topo);
    InjectionProcess inj;
    inj.load = 0.4;
    Engine engine(topo, ec, *routing, *pattern, inj);
    engine.run_until(3000);
    return std::make_tuple(engine.delivered_packets(),
                           engine.delivered_phits(),
                           engine.phits_sent(PortClass::kLocal),
                           engine.phits_sent(PortClass::kGlobal));
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, OccupancyReflectsCredits) {
  TestNet net(2, "minimal", small_vct(), std::make_unique<NeverPattern>());
  // Before any traffic, everything is empty.
  for (PortId p = 0; p < net.topo.first_terminal_port(); ++p) {
    EXPECT_DOUBLE_EQ(net.engine.output_occupancy(0, p, 0), 0.0);
  }
  EXPECT_DOUBLE_EQ(net.engine.port_occupancy(0, 0), 0.0);
}

TEST(Engine, PhitAccounting) {
  TestNet net(2, "minimal", small_vct(), std::make_unique<NeverPattern>());
  const NodeId dst = net.topo.terminal_id(net.topo.router_id(1, 0), 0);
  net.engine.inject_for_test(0, dst, 0);
  net.engine.run_until(2000);
  EXPECT_EQ(net.engine.delivered_phits(), 8u);
  // The packet ejected once: 8 phits on a terminal output.
  EXPECT_EQ(net.engine.phits_sent(PortClass::kTerminal), 8u);
  // At least one global hop was taken.
  EXPECT_GE(net.engine.phits_sent(PortClass::kGlobal), 8u);
}

// Checkpoints store each VC's flits in FIFO order, not the slab chunks
// that hold them: a restored engine lays its chunks out afresh, so the
// bytes it saves — now and after running on — must match the original's.
TEST(Engine, MultiChunkWormholeCheckpointRoundTripsByteForByte) {
  EngineConfig ec;
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;  // 16-flit injection and 25-flit global VCs
  ec.seed = 5;
  DragonflyTopology topo(2);
  auto routing = make_routing("minimal", topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 0.9;
  Engine engine(topo, ec, *routing, pattern, inj);

  // Run until some VC spans three chunks (more than 14 flits).
  const auto deepest = [&] {
    return deepest_vc(engine, 0, topo.num_routers());
  };
  while (deepest() <= 2 * kFlitChunkFlits && engine.now() < 5000) {
    ASSERT_TRUE(engine.step());
  }
  ASSERT_GT(deepest(), 2 * kFlitChunkFlits);

  std::stringstream saved;
  engine.save_checkpoint(saved);
  Engine restored(topo, ec, *routing, pattern, inj);
  restored.restore(saved);
  std::stringstream resaved;
  restored.save_checkpoint(resaved);
  EXPECT_EQ(saved.str(), resaved.str());

  engine.run_until(engine.now() + 600);
  restored.run_until(restored.now() + 600);
  std::stringstream a;
  std::stringstream b;
  engine.save_checkpoint(a);
  restored.save_checkpoint(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(engine.delivered_packets(), 0u);
}

// Nothing but the restore check bounds a VC FIFO (it grows on demand), so
// a checkpoint whose VC holds more flits than this engine's buffers can
// must be rejected, not loaded. Buffer sizes are not in the checkpoint
// header, so a run saved with 64-phit local buffers exercises the check.
TEST(Engine, RestoreRejectsVcDeeperThanItsBuffer) {
  EngineConfig deep = small_vct();
  deep.local_buf_phits = 64;  // 8 flits per local VC
  DragonflyTopology topo(2);
  auto routing = make_routing("minimal", topo, {});
  NeverPattern never;
  Engine engine(topo, deep, *routing, never, {});
  // Six terminals on routers 1-3 of group 0 all send to router 0, whose
  // single ejection port drains one flit per 8 cycles: its local input
  // VCs back up past the 4 flits a 32-phit buffer holds.
  const NodeId dst = topo.terminal_id(topo.router_id(0, 0), 0);
  for (int k = 1; k < topo.routers_per_group(); ++k) {
    for (int t = 0; t < topo.terminals_per_router(); ++t) {
      for (int n = 0; n < 30; ++n) {
        engine.inject_for_test(topo.terminal_id(topo.router_id(0, k), t),
                               dst, 0);
      }
    }
  }
  const auto deepest = [&] { return deepest_vc(engine, 0, 1); };
  while (deepest() <= 4 && engine.now() < 2000) ASSERT_TRUE(engine.step());
  ASSERT_GT(deepest(), 4);
  std::stringstream saved;
  engine.save_checkpoint(saved);

  Engine shallow(topo, small_vct(), *routing, never, {});
  try {
    shallow.restore(saved);
    FAIL() << "restore() loaded a VC deeper than its buffer";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("buffer capacity"),
              std::string::npos)
        << e.what();
  }
}

// Every stream value restore uses as an index is range-checked: a corrupt
// timing-wheel event or VC binding must be rejected, not pushed into a
// wheel that arrive_shard later indexes the VC arrays with. So is every
// value that must agree with what was read before it (route state and
// endpoints, flit flags and index, a port's scan word and its VCs, a VC's
// occupancy and its depth, a binding's VC and its port): stepping a
// restore that accepted such a contradiction overflowed the topology and
// VC arrays, or would index another port's VC.
TEST(Engine, RestoreRejectsOutOfRangeIndices) {
  const EngineConfig ec = small_vct();
  DragonflyTopology topo(2);
  auto routing = make_routing("minimal", topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 0.05;  // few live packets: a short stream ahead of the VCs
  Engine engine(topo, ec, *routing, pattern, inj);
  engine.run_until(60);
  std::stringstream saved;
  engine.save_checkpoint(saved);
  const std::string bytes = saved.str();

  const auto restore_error = [&](const std::string& stream) -> std::string {
    Engine fresh(topo, ec, *routing, pattern, inj);
    std::istringstream is(stream);
    try {
      fresh.restore(is);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // A stream cut at byte k fails while reading the field that byte k
  // belongs to, so the first cut whose error names a field is where that
  // field first starts. Only the timing-wheel fields name an "event", and
  // they run up to the 8-byte end sentinel (minimal routing saves no
  // state), so a bisection finds where the wheels start.
  std::size_t lo = 0;
  std::size_t hi = bytes.size() - 9;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (restore_error(bytes.substr(0, mid)).find("event") !=
        std::string::npos) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t wheels = lo;
  const auto field_offset = [&](const std::string& field, std::size_t from) {
    const std::string msg = "checkpoint truncated while reading " + field;
    for (std::size_t k = from; k < bytes.size(); ++k) {
      if (restore_error(bytes.substr(0, k)) == msg) return k;
    }
    ADD_FAILURE() << "no " << field << " in the stream";
    return bytes.size();
  };

  const std::string i32_6000("\x70\x17\0\0", 4);  // past every index
  const auto le32 = [](std::uint32_t v) {
    std::string le(4, '\0');
    for (int i = 0; i < 4; ++i) le[i] = static_cast<char>(v >> (8 * i));
    return le;
  };
  PortId global_port = 0;
  while (topo.port_class(global_port) != PortClass::kGlobal) ++global_port;
  const struct {
    std::string field;
    std::size_t from;
    std::string value;
    std::string error;
  } cases[] = {
      {"flit event port", wheels, i32_6000, "flit event port out of range"},
      {"credit event vc", wheels, i32_6000, "credit event vc out of range"},
      {"VC bound port", 0, i32_6000, "VC bound port out of range"},
      {"route dst group", 0, i32_6000,
       "packet route state does not match the packet"},
      {"flit tail flag", wheels, std::string(1, '\0'),
       "flit head/tail flags do not match its index"},
      {"port scan word", 0, i32_6000, "port scan word"},
      {"input VC occupancy", 0, i32_6000,
       "input VC occupancy does not match its depth"},
      {"VC bound vc", 0, le32(0), "VC binding names no VC of its port"},
      // Port and VC together: VC 2 is below the largest VC count (3
      // local VCs) but is no VC of a 2-VC global port.
      {"VC bound port", 0, le32(global_port) + le32(2),
       "VC binding names no VC of its port"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    const std::size_t at = field_offset(c.field, c.from);
    ASSERT_LE(at + c.value.size(), bytes.size());
    std::string corrupt = bytes;
    corrupt.replace(at, c.value.size(), c.value);
    EXPECT_EQ(restore_error(corrupt), "checkpoint corrupt: " + c.error);
  }
}

// Every VC has exactly one slot: walking (router, port, VC) in order visits
// one contiguous run of InputVc records with no padding between ports, so
// a port with fewer VCs than the largest port costs no memory.
TEST(Engine, InputVcsAreDenselyNumbered) {
  const struct {
    const char* name;
    DragonflyTopology topo;
    const char* routing;
    int local_vcs;
  } shapes[] = {
      {"h=2 olm", DragonflyTopology(2), "olm", 3},
      {"h=2 par-6/2", DragonflyTopology(2), "par-6/2", 6},
      {"unbalanced olm", DragonflyTopology(2, 6, 3, 8), "olm", 3},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const DragonflyTopology& topo = shape.topo;
    auto routing = make_routing(shape.routing, topo, {});
    NeverPattern never;
    EngineConfig ec = small_vct();
    ec.local_vcs = shape.local_vcs;
    const Engine engine(topo, ec, *routing, never, {});
    std::size_t vcs_per_router = 0;
    for (PortId p = 0; p < topo.ports_per_router(); ++p) {
      vcs_per_router += static_cast<std::size_t>(engine.vc_count(p));
    }
    const InputVc* const first = &engine.input_vc(0, 0, 0);
    std::size_t count = 0;
    for (RouterId r = 0; r < topo.num_routers(); ++r) {
      for (PortId p = 0; p < topo.ports_per_router(); ++p) {
        for (VcId v = 0; v < engine.vc_count(p); ++v) {
          ASSERT_EQ(&engine.input_vc(r, p, v), first + count)
              << "r" << r << " p" << p << " v" << v;
          ++count;
        }
      }
    }
    EXPECT_EQ(count,
              static_cast<std::size_t>(topo.num_routers()) * vcs_per_router);
  }
}

// --- pinned engine state ----------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a digest of the checkpoint an h=2 engine saves at cycle 700,
/// uniform traffic at 0.4. The checkpoint covers every piece of dynamic
/// state (VC FIFOs, credits, wheels, pool free lists, RNG cursor), so any
/// change to what the engine does cycle by cycle moves the digest. The
/// stream must also survive a round trip: restored into a fresh engine
/// and saved again, it comes back byte for byte, so a field that save
/// writes but restore drops (or reads into the wrong place) fails here.
std::uint64_t checkpoint_digest_at_700(const std::string& routing_name,
                                       const EngineConfig& ec) {
  DragonflyTopology topo(2);
  auto routing = make_routing(routing_name, topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 0.4;
  Engine engine(topo, ec, *routing, pattern, inj);
  engine.run_until(700);
  EXPECT_FALSE(engine.deadlock_detected());
  EXPECT_GT(engine.delivered_packets(), 0u);
  std::stringstream os;
  engine.save_checkpoint(os);

  auto routing2 = make_routing(routing_name, topo, {});
  Engine restored(topo, ec, *routing2, pattern, inj);
  restored.restore(os);
  std::stringstream resaved;
  restored.save_checkpoint(resaved);
  EXPECT_TRUE(os.str() == resaved.str())
      << "save -> restore -> save changed the stream";
  return fnv1a(os.str());
}

// Checkpoint format v6. The exact-mode streams differ from their v5
// predecessors (digests 0x8168eb35de8f3a37 and 0x733d355e7434ec4e) in the
// version word only; the sharded stream is canonical, so its digest is
// the same at every worker count.
TEST(EnginePins, ExactVctOlmCheckpointDigest) {
  EngineConfig ec = small_vct();
  ec.seed = 11;
  EXPECT_EQ(checkpoint_digest_at_700("olm", ec), 0xade11cc7a7d06bf6ULL);
}

TEST(EnginePins, ExactWormholeRlmCheckpointDigest) {
  EngineConfig ec;
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  ec.seed = 11;
  EXPECT_EQ(checkpoint_digest_at_700("rlm", ec), 0x879c00f727a5c4c7ULL);
}

TEST(EnginePins, ShardedVctOlmCheckpointDigest) {
  EngineConfig ec = small_vct();
  ec.seed = 11;
  ec.sharded = true;
  for (const int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    ec.shard_jobs = jobs;
    EXPECT_EQ(checkpoint_digest_at_700("olm", ec), 0xce4af977e50e8190ULL);
  }
}

// Hop hooks are staged during allocation and replayed at the end of the
// step: after every step() the phits the hook saw, summed per port class,
// must equal the engine's own phits_sent counters. A staged hook that is
// lost, doubled or replayed a cycle late breaks the equality.
TEST(Engine, HopHookPhitsMatchPhitsSentEveryStep) {
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "exact");
    EngineConfig ec = small_vct();
    ec.seed = 23;
    ec.sharded = sharded;
    ec.shard_jobs = 2;
    DragonflyTopology topo(2);
    auto routing = make_routing("olm", topo, {});
    UniformPattern pattern(topo);
    InjectionProcess inj;
    inj.load = 0.4;
    Engine engine(topo, ec, *routing, pattern, inj);
    std::uint64_t hooked[3] = {0, 0, 0};
    engine.set_hop_hook(
        [&](const Packet& pkt, const RouteChoice& choice, RouterId) {
          hooked[static_cast<int>(topo.port_class(choice.port))] +=
              static_cast<std::uint64_t>(pkt.size_phits);
        });
    for (Cycle t = 0; t < 800; ++t) {
      ASSERT_TRUE(engine.step());
      for (const PortClass cls :
           {PortClass::kLocal, PortClass::kGlobal, PortClass::kTerminal}) {
        ASSERT_EQ(hooked[static_cast<int>(cls)], engine.phits_sent(cls))
            << "cycle " << t << " class " << static_cast<int>(cls);
      }
    }
    EXPECT_GT(engine.phits_sent(PortClass::kGlobal), 0u);
  }
}

// --- repeated construction --------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DFSIM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DFSIM_TEST_SANITIZED 1
#endif
#endif

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// A process that builds engine after engine (a sweep, a benchmark's
// setup timing) should reuse the pages the last engine faulted in rather
// than fault its whole state in again. At h=6 the engine's state is ~3 MB
// (~760 pages); as a dozen separate heap arrays the per-VC and per-port
// state was trimmed off the heap top at every destruction and each build
// re-faulted ~1000 pages. Now it shares one block that the next engine
// takes over.
TEST(EngineState, RepeatBuildsReuseTheirPages) {
#if defined(DFSIM_TEST_SANITIZED) || !defined(__GLIBC__)
  GTEST_SKIP() << "measures page reuse under glibc malloc";
#else
  DragonflyTopology topo(6);
  auto routing = make_routing("minimal", topo, {});
  UniformPattern pattern(topo);
  DragonflyTopology other_topo(2);  // any other state size
  auto other_routing = make_routing("minimal", other_topo, {});
  UniformPattern other_pattern(other_topo);
  for (const int workers : {0, 1, 4}) {  // 0: exact mode
    SCOPED_TRACE(workers);
    EngineConfig ec;
    ec.sharded = workers > 0;
    ec.shard_jobs = workers;
    // An engine of another size takes the spare block, so the first h=6
    // build maps its state afresh. Its faults show what a build without
    // reuse costs, whatever the state's size.
    { Engine other(other_topo, ec, *other_routing, other_pattern, {}); }
    long fresh = 0;
    long faults = 0;
    std::size_t state_pages = 0;
    for (int build = 0; build < 3; ++build) {
      const long before = minor_faults();
      Engine engine(topo, ec, *routing, pattern, {});
      faults = minor_faults() - before;
      if (build == 0) fresh = faults;
      state_pages = engine.footprint_bytes() / 4096;
    }
    ASSERT_GT(static_cast<std::size_t>(fresh), state_pages / 2)
        << "a build without a spare block faulted only " << fresh << " of "
        << state_pages << " state pages in, so reuse cannot show";
    EXPECT_LT(static_cast<std::size_t>(faults), state_pages / 20)
        << "the third build faulted " << faults << " of " << state_pages
        << " state pages in afresh";
  }
#endif
}

}  // namespace
}  // namespace dfsim
