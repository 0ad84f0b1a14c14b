// Flow-control invariants under contention: credit conservation, VCT
// whole-packet admission, wormhole VC allocation and backpressure.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

using testing::NeverPattern;
using testing::TestNet;

EngineConfig vct_cfg() {
  EngineConfig ec;
  ec.packet_phits = 8;
  return ec;
}

// After a network fully drains, every output VC must have its full credit
// pool back — conservation over arbitrary contention histories.
TEST(FlowControl, CreditsFullyRestoredAfterDrain) {
  for (const char* routing : {"minimal", "olm", "rlm"}) {
    DragonflyTopology topo(2);
    auto r = make_routing(routing, topo, {});
    UniformPattern pattern(topo);
    InjectionProcess inj;
    inj.mode = InjectionProcess::Mode::kBurst;
    inj.burst_packets = 8;
    EngineConfig ec = vct_cfg();
    Engine engine(topo, ec, *r, pattern, inj);
    const auto expected =
        8ull * static_cast<std::uint64_t>(topo.num_terminals());
    while (engine.delivered_packets() < expected && engine.now() < 200000 &&
           engine.step()) {
    }
    ASSERT_EQ(engine.delivered_packets(), expected) << routing;
    // Let in-flight credit returns land (up to one global RTT).
    const Cycle settle = engine.now() + 300;
    while (engine.now() < settle && engine.step()) {
    }

    for (RouterId rt = 0; rt < topo.num_routers(); ++rt) {
      for (PortId p = 0; p < topo.first_terminal_port(); ++p) {
        const int cap = engine.buffer_capacity(topo.port_class(p));
        for (VcId v = 0; v < engine.vc_count(p); ++v) {
          EXPECT_EQ(engine.output_vc(rt, p, v).credits_phits, cap)
              << routing << " r" << rt << " p" << p << " vc" << v;
          EXPECT_EQ(engine.output_vc(rt, p, v).bound_packet, kInvalid);
        }
      }
    }
  }
}

TEST(FlowControl, WormholeCreditsAndBindingsRestoredAfterDrain) {
  DragonflyTopology topo(2);
  auto r = make_routing("rlm", topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBurst;
  inj.burst_packets = 4;
  EngineConfig ec;
  ec.flow = FlowControl::kWormhole;
  ec.packet_phits = 80;
  ec.flit_phits = 10;
  Engine engine(topo, ec, *r, pattern, inj);
  const auto expected =
      4ull * static_cast<std::uint64_t>(topo.num_terminals());
  while (engine.delivered_packets() < expected && engine.now() < 500000 &&
         engine.step()) {
  }
  ASSERT_EQ(engine.delivered_packets(), expected);
  ASSERT_FALSE(engine.deadlock_detected());
  const Cycle settle = engine.now() + 300;
  while (engine.now() < settle && engine.step()) {
  }
  for (RouterId rt = 0; rt < topo.num_routers(); ++rt) {
    for (PortId p = 0; p < topo.first_terminal_port(); ++p) {
      const int cap = engine.buffer_capacity(topo.port_class(p));
      for (VcId v = 0; v < engine.vc_count(p); ++v) {
        EXPECT_EQ(engine.output_vc(rt, p, v).credits_phits, cap);
        EXPECT_EQ(engine.output_vc(rt, p, v).bound_packet, kInvalid);
      }
    }
  }
}

// Two VCT packets from distinct sources race for one destination router:
// both must arrive intact, one after the other (output serialization).
TEST(FlowControl, ContendingPacketsSerializeOnSharedLink) {
  TestNet net(2, "minimal", vct_cfg(), std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;
  // Terminals 0 and 1 live on router 0; both send to router 2's slot 0 —
  // they share the single local link 0 -> 2.
  const NodeId dst0 = topo.terminal_id(topo.router_id(0, 2), 0);
  const NodeId dst1 = topo.terminal_id(topo.router_id(0, 2), 1);
  net.engine.inject_for_test(0, dst0, 0);
  net.engine.inject_for_test(1, dst1, 0);
  std::vector<Cycle> deliveries;
  net.engine.set_delivery_hook(
      [&](const Packet&, Cycle now) { deliveries.push_back(now); });
  net.engine.run_until(500);
  ASSERT_EQ(deliveries.size(), 2u);
  // Ejection ports differ, so the gap comes from link serialization:
  // second packet is >= 8 phits behind the first on the shared wire.
  EXPECT_GE(deliveries[1], deliveries[0] + 8);
}

// A stream into a single bounded VC must be throttled by credits: with a
// 32-phit buffer and a slow consumer, at most 4 packets can be in the
// downstream buffer plus one in flight.
TEST(FlowControl, CreditBackpressureBoundsOccupancy) {
  TestNet net(2, "minimal", vct_cfg(), std::make_unique<NeverPattern>());
  const DragonflyTopology& topo = net.topo;
  const NodeId dst = topo.terminal_id(topo.router_id(0, 2), 0);
  for (int i = 0; i < 12; ++i) net.engine.inject_for_test(0, dst, 0);
  for (Cycle t = 0; t < 400; ++t) {
    net.engine.step();
    EXPECT_LE(net.engine.input_occupancy(topo.router_id(0, 2),
                                         topo.local_port_to(2, 0), 0),
              32);
  }
  net.engine.run_until(2000);
  EXPECT_EQ(net.engine.delivered_packets(), 12u);
}

// Injection is rate-limited to 1 phit/cycle per terminal regardless of
// backlog: 10 packets of 8 phits need >= 80 cycles of injection time.
TEST(FlowControl, InjectionSerializesAtOnePhitPerCycle) {
  TestNet net(2, "minimal", vct_cfg(), std::make_unique<NeverPattern>());
  const NodeId dst = net.topo.terminal_id(net.topo.router_id(0, 1), 0);
  for (int i = 0; i < 10; ++i) net.engine.inject_for_test(0, dst, 0);
  Cycle last = 0;
  net.engine.set_delivery_hook(
      [&](const Packet&, Cycle now) { last = now; });
  net.engine.run_until(2000);
  ASSERT_EQ(net.engine.delivered_packets(), 10u);
  EXPECT_GE(last, 80u + 8u);
}

// The same seed and config must produce identical wormhole runs too.
TEST(FlowControl, WormholeDeterminism) {
  auto run = [] {
    DragonflyTopology topo(2);
    auto r = make_routing("par-6/2", topo, {});
    UniformPattern pattern(topo);
    InjectionProcess inj;
    inj.load = 0.3;
    EngineConfig ec;
    ec.flow = FlowControl::kWormhole;
    ec.packet_phits = 80;
    ec.flit_phits = 10;
    ec.local_vcs = 6;
    ec.seed = 4242;
    Engine engine(topo, ec, *r, pattern, inj);
    engine.run_until(4000);
    return std::pair(engine.delivered_packets(),
                     engine.phits_sent(PortClass::kGlobal));
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dfsim
