// Mechanism-level invariants, machine-checked on full hop traces: hop
// budgets, VC ladders, parity-sign compliance, OLM escape feasibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "../test_util.hpp"
#include "routing/olm.hpp"
#include "routing/parity_sign.hpp"
#include "routing/vc_ladder.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {
namespace {

using testing::HopRecord;
using testing::RouteRecorder;

struct TraceRun {
  explicit TraceRun(const std::string& routing_name, int h = 2,
                    const std::string& pattern_name = "uniform",
                    double load = 0.45, int local_vcs = 3)
      : topo(h) {
    RoutingParams rp;
    routing = make_routing(routing_name, topo, rp);
    pattern = make_pattern(topo, pattern_name, 1, 0.5);
    EngineConfig ec;
    ec.local_vcs = std::max(local_vcs, routing->min_local_vcs());
    ec.seed = 1234;
    InjectionProcess inj;
    inj.load = load;
    engine = std::make_unique<Engine>(topo, ec, *routing, *pattern, inj);
    recorder.attach(*engine);
    engine->set_delivery_hook([this](const Packet& pkt, Cycle) {
      delivered_routes.push_back(
          {pkt, recorder.route(pkt.src, pkt.created)});
    });
  }

  void run(Cycle cycles) { engine->run_until(cycles); }

  DragonflyTopology topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<TrafficPattern> pattern;
  std::unique_ptr<Engine> engine;
  RouteRecorder recorder;
  std::vector<std::pair<Packet, std::vector<HopRecord>>> delivered_routes;
};

int count_class(const std::vector<HopRecord>& route, PortClass cls) {
  return static_cast<int>(
      std::count_if(route.begin(), route.end(),
                    [cls](const HopRecord& h) { return h.cls == cls; }));
}

// The recorder also logs the final ejection decision; network hops are
// the local + global ones.
int network_hops(const std::vector<HopRecord>& route) {
  return count_class(route, PortClass::kLocal) +
         count_class(route, PortClass::kGlobal);
}

// Split a route into per-group segments of consecutive local hops.
std::vector<std::vector<HopRecord>> local_segments(
    const std::vector<HopRecord>& route) {
  std::vector<std::vector<HopRecord>> segments(1);
  for (const HopRecord& hop : route) {
    if (hop.cls == PortClass::kGlobal) {
      segments.emplace_back();
    } else if (hop.cls == PortClass::kLocal) {
      segments.back().push_back(hop);
    }
  }
  return segments;
}

TEST(RoutingTrace, MinimalNeverExceedsThreeHops) {
  TraceRun t("minimal");
  t.run(4000);
  ASSERT_GT(t.delivered_routes.size(), 50u);
  for (const auto& [pkt, route] : t.delivered_routes) {
    EXPECT_LE(network_hops(route), 3);
    EXPECT_LE(count_class(route, PortClass::kGlobal), 1);
    EXPECT_FALSE(pkt.rs.valiant);
  }
}

TEST(RoutingTrace, ValiantCapsAtFiveHops) {
  TraceRun t("valiant");
  t.run(4000);
  ASSERT_GT(t.delivered_routes.size(), 50u);
  for (const auto& [pkt, route] : t.delivered_routes) {
    EXPECT_LE(network_hops(route), 5);
    EXPECT_LE(count_class(route, PortClass::kGlobal), 2);
  }
}

TEST(RoutingTrace, EveryMechanismRespectsPaperBudgets) {
  for (const char* name : {"minimal", "valiant", "pb", "ugal", "par-6/2",
                           "rlm", "olm"}) {
    TraceRun t(name);
    t.run(4000);
    ASSERT_GT(t.delivered_routes.size(), 20u) << name;
    for (const auto& [pkt, route] : t.delivered_routes) {
      EXPECT_LE(network_hops(route), 8) << name;
      EXPECT_LE(count_class(route, PortClass::kGlobal), 2) << name;
      for (const auto& seg : local_segments(route)) {
        EXPECT_LE(seg.size(), 2u) << name;
      }
    }
    EXPECT_FALSE(t.engine->deadlock_detected()) << name;
  }
}

// Günther's ascending rule: strictly increasing VC index within each
// class, for the mechanisms that rely on it.
TEST(RoutingTrace, DistanceClassMechanismsUseAscendingVcs) {
  for (const char* name : {"minimal", "valiant", "pb", "ugal", "par-6/2"}) {
    TraceRun t(name);
    t.run(4000);
    for (const auto& [pkt, route] : t.delivered_routes) {
      int last_local = -1;
      int last_global = -1;
      for (const HopRecord& hop : route) {
        if (hop.cls == PortClass::kLocal) {
          EXPECT_GT(hop.vc, last_local) << name;
          last_local = hop.vc;
        } else if (hop.cls == PortClass::kGlobal) {
          EXPECT_GT(hop.vc, last_global) << name;
          last_global = hop.vc;
        }
      }
    }
  }
}

// RLM: both local hops of a group share lVC_{1+globals}; consecutive
// local hops satisfy the parity-sign restriction.
TEST(RoutingTrace, RlmGroupVcAndRestriction) {
  const LocalRouteRestriction restriction(RestrictionPolicy::kParitySign);
  for (const char* pattern : {"uniform", "advl", "advg"}) {
    TraceRun t("rlm", 2, pattern, 0.6);
    t.run(6000);
    ASSERT_GT(t.delivered_routes.size(), 20u) << pattern;
    for (const auto& [pkt, route] : t.delivered_routes) {
      int globals = 0;
      const HopRecord* prev_local_in_group = nullptr;
      for (const HopRecord& hop : route) {
        if (hop.cls == PortClass::kGlobal) {
          EXPECT_EQ(hop.vc, globals) << pattern;
          ++globals;
          prev_local_in_group = nullptr;
          continue;
        }
        if (hop.cls != PortClass::kLocal) continue;
        EXPECT_EQ(hop.vc, globals) << pattern;  // lVC_{1+globals}
        if (prev_local_in_group != nullptr) {
          // Second local hop in the group: the 2-hop combo must be
          // allowed. Reconstruct local indices from consecutive routers.
          const int i = t.topo.local_index(prev_local_in_group->router);
          const int k = t.topo.local_index(hop.router);
          // The hop's own destination: look up where this hop leads —
          // the next hop's router or, for the last hop, the dst router.
          const HopRecord* next = &hop;
          const ptrdiff_t idx = next - route.data();
          const RouterId to = (idx + 1 < static_cast<ptrdiff_t>(route.size()))
                                  ? route[static_cast<size_t>(idx + 1)].router
                                  : pkt.rs.dst_router;
          const int j = t.topo.local_index(to);
          EXPECT_TRUE(restriction.hop_pair_allowed(i, k, j))
              << pattern << " " << i << "->" << k << "->" << j;
        }
        prev_local_in_group = &hop;
      }
    }
  }
}

// OLM: the rank sequence of the occupied VCs satisfies the escape
// invariant after every hop — already asserted inside OlmRouting in
// debug builds; here we validate misroute placement from traces.
TEST(RoutingTrace, OlmMisroutesOnlyOnFeasibleVcs) {
  for (const char* pattern : {"uniform", "advl", "advg"}) {
    TraceRun t("olm", 2, pattern, 0.6);
    t.run(6000);
    for (const auto& [pkt, route] : t.delivered_routes) {
      for (const HopRecord& hop : route) {
        if (!hop.local_misroute) continue;
        EXPECT_EQ(hop.cls, PortClass::kLocal);
        // Misroutes never land on the last local VC (no escape above).
        EXPECT_LT(hop.vc, 2) << pattern;
      }
    }
  }
}

TEST(RoutingTrace, AdversarialGlobalTriggersValiantCommits) {
  TraceRun t("olm", 2, "advg", 0.7);
  t.run(6000);
  int committed = 0;
  for (const auto& [pkt, route] : t.delivered_routes) {
    committed += pkt.rs.valiant ? 1 : 0;
  }
  ASSERT_GT(t.delivered_routes.size(), 50u);
  // Under ADVG+1 nearly everything must detour globally.
  EXPECT_GT(committed, static_cast<int>(t.delivered_routes.size() / 2));
}

TEST(RoutingTrace, UniformLowLoadStaysMostlyMinimal) {
  TraceRun t("olm", 2, "uniform", 0.05);
  t.run(6000);
  int misrouted = 0;
  for (const auto& [pkt, route] : t.delivered_routes) {
    if (pkt.rs.valiant) ++misrouted;
    for (const auto& hop : route) {
      if (hop.local_misroute) ++misrouted;
    }
  }
  ASSERT_GT(t.delivered_routes.size(), 20u);
  EXPECT_LT(misrouted, static_cast<int>(t.delivered_routes.size() / 10 + 2));
}

// --- OLM escape feasibility, unit-level -------------------------------

TEST(OlmEscape, MatchesPaperVcRules) {
  const DragonflyTopology topo(4);
  RouteState rs;
  // Destination: router 0 of group 0; evaluate from a router in another
  // group (an "intermediate group" position needing l-g-l).
  rs.dst_router = topo.router_id(0, 0);
  rs.dst_group = 0;
  const RouterId inter = topo.router_id(5, 3);
  // Misroute onto lVC1 (rank 1) leaves lVC2-gVC2-lVC3: feasible.
  EXPECT_TRUE(
      OlmRouting::escape_feasible(topo, 3, 2, local_rank(0), inter, rs));
  // Misroute onto lVC2 (rank 3) would need a global VC above rank 5: no.
  EXPECT_FALSE(
      OlmRouting::escape_feasible(topo, 3, 2, local_rank(1), inter, rs));
  // In the destination group both lVC1 and lVC2 are feasible, lVC3 not.
  const RouterId in_dst = topo.router_id(0, 5);
  EXPECT_TRUE(
      OlmRouting::escape_feasible(topo, 3, 2, local_rank(0), in_dst, rs));
  EXPECT_TRUE(
      OlmRouting::escape_feasible(topo, 3, 2, local_rank(1), in_dst, rs));
  EXPECT_FALSE(
      OlmRouting::escape_feasible(topo, 3, 2, local_rank(2), in_dst, rs));
  // At the destination router there is nothing left to block on.
  EXPECT_TRUE(OlmRouting::escape_feasible(topo, 3, 2, local_rank(2),
                                          rs.dst_router, rs));
}

TEST(OlmEscape, GatewayPositionsAllowHigherVcs) {
  const DragonflyTopology topo(4);
  RouteState rs;
  rs.dst_router = topo.router_id(0, 0);
  rs.dst_group = 0;
  // From the router owning the global link into group 0, the remaining
  // classes are [g, l?]: lVC2 (rank 3) still escapes via gVC2-lVC3.
  const GroupId other = 5;
  const RouterId gw = topo.gateway_router(other, 0);
  EXPECT_TRUE(OlmRouting::escape_feasible(topo, 3, 2, local_rank(1), gw, rs));
}

TEST(VcLadder, RanksInterleaveClasses) {
  EXPECT_EQ(local_rank(0), 1);
  EXPECT_EQ(global_rank(0), 2);
  EXPECT_EQ(local_rank(1), 3);
  EXPECT_EQ(global_rank(1), 4);
  EXPECT_EQ(local_rank(2), 5);
  EXPECT_EQ(next_local_vc_above(0, 3), 0);
  EXPECT_EQ(next_local_vc_above(1, 3), 1);
  EXPECT_EQ(next_local_vc_above(4, 3), 2);
  EXPECT_EQ(next_local_vc_above(5, 3), -1);
  EXPECT_EQ(next_global_vc_above(1, 2), 0);
  EXPECT_EQ(next_global_vc_above(2, 2), 1);
  EXPECT_EQ(next_global_vc_above(4, 2), -1);
  EXPECT_EQ(occupied_rank(PortClass::kTerminal, 0), 0);
  EXPECT_EQ(occupied_rank(PortClass::kLocal, 1), 3);
  EXPECT_EQ(occupied_rank(PortClass::kGlobal, 1), 4);
}

}  // namespace
}  // namespace dfsim
