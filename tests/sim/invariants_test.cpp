// Engine invariant suite: credit conservation and buffer-occupancy bounds
// checked every cycle while traffic flows, over both flow-control
// disciplines. These invariants gate the hot-path machinery (arena ring
// buffers, worklists, retry suppression): any bookkeeping drift shows up
// here long before it corrupts a figure.
#include <gtest/gtest.h>

#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "topology/dragonfly_topology.hpp"
#include "topology/fault_model.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

/// Every cycle, for every link (r, p, v):
///   0 <= credits <= cap                     (no credit leak/overflow)
///   0 <= downstream occupancy <= cap        (no buffer overflow)
///   credits + downstream occupancy <= cap   (in-flight phits >= 0)
/// and per router the nonempty-VC accounting must match the buffers.
void check_invariants(const Engine& engine, const DragonflyTopology& topo) {
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (PortId p = 0; p < topo.ports_per_router(); ++p) {
      const PortClass cls = topo.port_class(p);
      const int cap = engine.buffer_capacity(cls);
      for (VcId v = 0; v < engine.vc_count(p); ++v) {
        // Occupancy is the VC's depth in flits times the flit size, so
        // an empty FIFO is exactly a zero occupancy.
        const int occupancy = engine.input_occupancy(r, p, v);
        ASSERT_GE(occupancy, 0) << "r" << r << " p" << p << " v" << v;
        ASSERT_LE(occupancy, cap) << "r" << r << " p" << p << " v" << v;

        if (cls == PortClass::kTerminal) continue;
        const OutputVc& ovc = engine.output_vc(r, p, v);
        ASSERT_GE(ovc.credits_phits, 0)
            << "r" << r << " p" << p << " v" << v;
        ASSERT_LE(ovc.credits_phits, cap)
            << "r" << r << " p" << p << " v" << v;
        const auto down = topo.remote_endpoint(r, p);
        if (down.router == kInvalid) {
          // Unwired global slot (unbalanced shapes only): never carries
          // traffic, so its input side must stay empty.
          ASSERT_EQ(occupancy, 0)
              << "unwired r" << r << " p" << p << " v" << v;
          continue;
        }
        if (!topo.port_alive(r, p)) {
          // Dead port (degraded topologies): wired, but no flit may ever
          // traverse it, so its input side must stay empty and its
          // credits untouched.
          ASSERT_EQ(occupancy, 0)
              << "dead r" << r << " p" << p << " v" << v;
          ASSERT_EQ(ovc.credits_phits, cap)
              << "dead r" << r << " p" << p << " v" << v;
        }
        ASSERT_LE(ovc.credits_phits +
                      engine.input_occupancy(down.router, down.port, v),
                  cap)
            << "r" << r << " p" << p << " v" << v
            << ": credits plus downstream occupancy exceed capacity";
      }
    }
  }
}

void run_checked_on(const DragonflyTopology& topo,
                    const std::string& routing_name, const EngineConfig& ec,
                    Cycle cycles) {
  auto routing = make_routing(routing_name, topo, {});
  UniformPattern pattern(topo);
  InjectionProcess inj;
  inj.load = 0.4;
  Engine engine(topo, ec, *routing, pattern, inj);
  // Degraded topologies: machine-check that no mechanism ever routes a
  // flit onto a dead (or unwired) port.
  engine.set_hop_hook(
      [&topo, &routing_name](const Packet&, const RouteChoice& choice,
                             RouterId r) {
        ASSERT_TRUE(topo.port_alive(r, choice.port))
            << routing_name << " traversed dead port " << choice.port
            << " at router " << r;
      });
  for (Cycle t = 0; t < cycles; ++t) {
    ASSERT_TRUE(engine.step()) << routing_name << " deadlocked at " << t;
    check_invariants(engine, topo);
  }
  EXPECT_GT(engine.delivered_packets(), 0u) << routing_name;
}

void run_checked(const std::string& routing_name, const EngineConfig& ec,
                 Cycle cycles) {
  run_checked_on(DragonflyTopology(2), routing_name, ec, cycles);
}

using ::dfsim::testing::kAllMechanisms;

/// VCs sized for every mechanism in kAllMechanisms at once.
EngineConfig all_mechanism_config(FlowControl flow) {
  EngineConfig ec;
  ec.flow = flow;
  ec.local_vcs = 6;  // covers par-6/2, the largest requirement
  ec.global_vcs = 2;
  if (flow == FlowControl::kWormhole) {
    ec.packet_phits = 80;
    ec.flit_phits = 10;
  }
  ec.seed = 17;
  return ec;
}

TEST(EngineInvariants, VctEveryCycle) {
  for (const char* routing : {"minimal", "olm", "pb"}) {
    EngineConfig ec;
    ec.seed = 17;
    run_checked(routing, ec, 2500);
  }
}

TEST(EngineInvariants, WormholeEveryCycle) {
  for (const char* routing : {"minimal", "rlm", "par-6/2"}) {
    EngineConfig ec;
    ec.flow = FlowControl::kWormhole;
    ec.packet_phits = 80;
    ec.flit_phits = 10;
    ec.local_vcs = 6;  // covers par-6/2's requirement
    ec.seed = 17;
    run_checked(routing, ec, 2500);
  }
}

// The same per-cycle invariants must hold for every mechanism when the
// topology leaves the balanced shape: palmtree arrangement, and the
// unbalanced reference (p=2, a=6, h=3, g=8) whose global wiring is
// trunked and partially populated.
TEST(EngineInvariants, PalmtreeEveryMechanism) {
  const DragonflyTopology topo(2, GlobalArrangement::kPalmtree);
  for (const char* routing : kAllMechanisms) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kVirtualCutThrough),
                   1500);
  }
}

TEST(EngineInvariants, UnbalancedEveryMechanism) {
  const DragonflyTopology topo(2, 6, 3, 8);
  for (const char* routing : kAllMechanisms) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kVirtualCutThrough),
                   1500);
  }
}

TEST(EngineInvariants, UnbalancedPalmtreeWormhole) {
  const DragonflyTopology topo(2, 6, 3, 8, GlobalArrangement::kPalmtree);
  for (const char* routing : {"minimal", "rlm", "par-6/2", "pb"}) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kWormhole), 1500);
  }
}

// Degraded networks: the same per-cycle invariants — plus the hop-hook
// check that no dead port is ever traversed — must hold for every
// mechanism with failed global links, under both reference off-balance
// shapes. Sampled sets never disconnect a group pair, so every terminal
// stays reachable and no false deadlock may fire.
TEST(EngineInvariants, FaultedPalmtreeEveryMechanism) {
  // Balanced shapes wire exactly one link per group pair, so any dead
  // link would sever a pair; the survivable whole-router fault there is
  // an entire dead group (its pairs disappear with its terminals, and no
  // live pair routed through it). Every mechanism must drop the dead
  // group's traffic at the sources and keep the rest flowing.
  DragonflyTopology topo(2, GlobalArrangement::kPalmtree);
  topo.apply_faults(
      FaultModel::parse(topo, "r:12,r:13,r:14,r:15"));  // all of group 3
  ASSERT_EQ(topo.connectivity_failure(), "");
  for (const char* routing : kAllMechanisms) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kVirtualCutThrough),
                   1500);
  }
}

TEST(EngineInvariants, FaultedUnbalancedEveryMechanism) {
  DragonflyTopology topo(2, 6, 3, 8);
  const FaultModel fm = FaultModel::sample(topo, 0.2, 11);
  ASSERT_FALSE(fm.empty());  // the trunked shape has spare links to kill
  topo.apply_faults(fm);
  ASSERT_EQ(topo.connectivity_failure(), "");
  for (const char* routing : kAllMechanisms) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kVirtualCutThrough),
                   1500);
  }
}

TEST(EngineInvariants, FaultedUnbalancedWormhole) {
  DragonflyTopology topo(2, 6, 3, 8, GlobalArrangement::kPalmtree);
  const FaultModel fm = FaultModel::sample(topo, 0.2, 5);
  ASSERT_FALSE(fm.empty());
  topo.apply_faults(fm);
  for (const char* routing : {"minimal", "rlm", "par-6/2", "pb"}) {
    run_checked_on(topo, routing,
                   all_mechanism_config(FlowControl::kWormhole), 1500);
  }
}

}  // namespace
}  // namespace dfsim
