#include "topology/dragonfly_topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dfsim {
namespace {

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<int, GlobalArrangement>> {
 protected:
  int h() const { return std::get<0>(GetParam()); }
  GlobalArrangement arr() const { return std::get<1>(GetParam()); }
};

TEST_P(TopologySweep, ScaleFormulas) {
  const DragonflyTopology t(h(), arr());
  EXPECT_EQ(t.routers_per_group(), 2 * h());
  EXPECT_EQ(t.num_groups(), 2 * h() * h() + 1);
  EXPECT_EQ(t.num_routers(), 2 * h() * (2 * h() * h() + 1));
  EXPECT_EQ(t.num_terminals(), t.num_routers() * h());
  EXPECT_EQ(t.ports_per_router(), 4 * h() - 1);
}

TEST_P(TopologySweep, PortClassLayout) {
  const DragonflyTopology t(h(), arr());
  for (PortId p = 0; p < t.ports_per_router(); ++p) {
    if (p < 2 * h() - 1) {
      EXPECT_EQ(t.port_class(p), PortClass::kLocal);
    } else if (p < 3 * h() - 1) {
      EXPECT_EQ(t.port_class(p), PortClass::kGlobal);
    } else {
      EXPECT_EQ(t.port_class(p), PortClass::kTerminal);
    }
  }
}

TEST_P(TopologySweep, LocalPortMappingIsInverse) {
  const DragonflyTopology t(h(), arr());
  const int a = t.routers_per_group();
  for (int i = 0; i < a; ++i) {
    for (int j = 0; j < a; ++j) {
      if (i == j) continue;
      const PortId p = t.local_port_to(i, j);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, t.num_local_ports());
      EXPECT_EQ(t.local_peer(i, p), j);
    }
  }
}

TEST_P(TopologySweep, EveryGroupPairHasExactlyOneGlobalLink) {
  const DragonflyTopology t(h(), arr());
  const int G = t.num_groups();
  const int L = 2 * h() * h();
  for (GroupId g = 0; g < G; ++g) {
    std::set<GroupId> reached;
    for (int j = 0; j < L; ++j) {
      const GroupId d = t.global_link_dest(g, j);
      EXPECT_NE(d, g);
      reached.insert(d);
    }
    EXPECT_EQ(static_cast<int>(reached.size()), G - 1);
  }
}

TEST_P(TopologySweep, GlobalLinkReverseIsConsistent) {
  const DragonflyTopology t(h(), arr());
  const int L = 2 * h() * h();
  for (GroupId g = 0; g < t.num_groups(); ++g) {
    for (int j = 0; j < L; ++j) {
      const GroupId d = t.global_link_dest(g, j);
      const int jr = t.global_link_reverse(g, j);
      ASSERT_GE(jr, 0);
      ASSERT_LT(jr, L);
      EXPECT_EQ(t.global_link_dest(d, jr), g);
    }
  }
}

TEST_P(TopologySweep, GatewayReachesTarget) {
  const DragonflyTopology t(h(), arr());
  for (GroupId g = 0; g < t.num_groups(); ++g) {
    for (GroupId d = 0; d < t.num_groups(); ++d) {
      if (g == d) continue;
      const RouterId gw = t.gateway_router(g, d);
      EXPECT_EQ(t.group_of_router(gw), g);
      const PortId port = t.gateway_port(g, d);
      EXPECT_EQ(t.port_class(port), PortClass::kGlobal);
      const auto far = t.remote_endpoint(gw, port);
      EXPECT_EQ(t.group_of_router(far.router), d);
    }
  }
}

TEST_P(TopologySweep, RemoteEndpointIsAnInvolution) {
  const DragonflyTopology t(h(), arr());
  for (RouterId r = 0; r < t.num_routers(); ++r) {
    for (PortId p = 0; p < t.first_terminal_port(); ++p) {
      const auto far = t.remote_endpoint(r, p);
      ASSERT_NE(far.router, kInvalid);
      ASSERT_NE(far.router, r);
      const auto back = t.remote_endpoint(far.router, far.port);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST_P(TopologySweep, TerminalMapping) {
  const DragonflyTopology t(h(), arr());
  for (NodeId n = 0; n < t.num_terminals(); ++n) {
    const RouterId r = t.router_of_terminal(n);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, t.num_routers());
    const PortId p = t.terminal_port(n);
    EXPECT_EQ(t.port_class(p), PortClass::kTerminal);
    EXPECT_EQ(t.terminal_id(r, p - t.first_terminal_port()), n);
  }
}

TEST_P(TopologySweep, MinHopsBounds) {
  const DragonflyTopology t(h(), arr());
  // Sample pairs; exhaustive is O(n^2) and slow for big h.
  const int n = t.num_routers();
  for (RouterId a = 0; a < n; a += std::max(1, n / 50)) {
    for (RouterId b = 0; b < n; b += std::max(1, n / 50)) {
      const int d = t.min_hops(a, b);
      EXPECT_GE(d, 0);
      EXPECT_LE(d, 3);
      EXPECT_EQ(d == 0, a == b);
      if (t.group_of_router(a) == t.group_of_router(b) && a != b) {
        EXPECT_EQ(d, 1);
      }
      if (t.group_of_router(a) != t.group_of_router(b)) {
        EXPECT_GE(d, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TopologySweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(GlobalArrangement::kAbsolute,
                                         GlobalArrangement::kPalmtree)),
    [](const auto& info) {
      return "h" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == GlobalArrangement::kAbsolute
                  ? "_absolute"
                  : "_palmtree");
    });

// ---------------------------------------------------------------------
// Parametric (p, a, h, g) shapes: unbalanced, trunked and degenerate.
// ---------------------------------------------------------------------

struct Shape {
  int p, a, h, g;
};

class ParametricSweep
    : public ::testing::TestWithParam<std::tuple<Shape, GlobalArrangement>> {
 protected:
  Shape shape() const { return std::get<0>(GetParam()); }
  GlobalArrangement arr() const { return std::get<1>(GetParam()); }
  DragonflyTopology make() const {
    const Shape s = shape();
    return DragonflyTopology(s.p, s.a, s.h, s.g, arr());
  }
};

TEST_P(ParametricSweep, ScaleFormulas) {
  const Shape s = shape();
  const DragonflyTopology t = make();
  EXPECT_EQ(t.p(), s.p);
  EXPECT_EQ(t.a(), s.a);
  EXPECT_EQ(t.h(), s.h);
  EXPECT_EQ(t.g(), s.g);
  EXPECT_EQ(t.routers_per_group(), s.a);
  EXPECT_EQ(t.num_groups(), s.g);
  EXPECT_EQ(t.num_routers(), s.a * s.g);
  EXPECT_EQ(t.num_terminals(), s.a * s.g * s.p);
  EXPECT_EQ(t.ports_per_router(), s.a - 1 + s.h + s.p);
  EXPECT_EQ(t.global_links_per_group(), s.a * s.h);
}

TEST_P(ParametricSweep, PortClassLayout) {
  const Shape s = shape();
  const DragonflyTopology t = make();
  for (PortId p = 0; p < t.ports_per_router(); ++p) {
    if (p < s.a - 1) {
      EXPECT_EQ(t.port_class(p), PortClass::kLocal);
    } else if (p < s.a - 1 + s.h) {
      EXPECT_EQ(t.port_class(p), PortClass::kGlobal);
    } else {
      EXPECT_EQ(t.port_class(p), PortClass::kTerminal);
    }
  }
}

TEST_P(ParametricSweep, WiredSlotsAreSymmetricInvolutions) {
  const DragonflyTopology t = make();
  const int L = t.global_links_per_group();
  for (GroupId g = 0; g < t.num_groups(); ++g) {
    for (int j = 0; j < L; ++j) {
      const GroupId d = t.global_link_dest(g, j);
      const int jr = t.global_link_reverse(g, j);
      if (d == kInvalid) {
        // Unwired slots have no reverse, and only exist below a*h+1
        // groups.
        EXPECT_EQ(jr, kInvalid);
        EXPECT_LT(t.num_groups(), t.global_links_per_group() + 1);
        continue;
      }
      ASSERT_GE(jr, 0);
      ASSERT_LT(jr, L);
      EXPECT_NE(d, g);
      EXPECT_EQ(t.global_link_dest(d, jr), g);
      EXPECT_EQ(t.global_link_reverse(d, jr), j);
    }
  }
}

TEST_P(ParametricSweep, EveryGroupPairConnectedAtLeastOnce) {
  const DragonflyTopology t = make();
  const int G = t.num_groups();
  const int L = t.global_links_per_group();
  for (GroupId g = 0; g < G; ++g) {
    std::set<GroupId> reached;
    for (int j = 0; j < L; ++j) {
      const GroupId d = t.global_link_dest(g, j);
      if (d != kInvalid) reached.insert(d);
    }
    EXPECT_EQ(static_cast<int>(reached.size()), G - 1) << "group " << g;
    for (GroupId d = 0; d < G; ++d) {
      if (d == g) continue;
      const int j = t.global_link_to(g, d);
      ASSERT_GE(j, 0);
      ASSERT_LT(j, L);
      EXPECT_EQ(t.global_link_dest(g, j), d);
    }
  }
}

TEST_P(ParametricSweep, GatewayAndEndpointsConsistent) {
  const DragonflyTopology t = make();
  for (GroupId g = 0; g < t.num_groups(); ++g) {
    for (GroupId d = 0; d < t.num_groups(); ++d) {
      if (g == d) continue;
      const RouterId gw = t.gateway_router(g, d);
      EXPECT_EQ(t.group_of_router(gw), g);
      const auto far = t.remote_endpoint(gw, t.gateway_port(g, d));
      EXPECT_EQ(t.group_of_router(far.router), d);
    }
  }
  for (RouterId r = 0; r < t.num_routers(); ++r) {
    for (PortId p = 0; p < t.first_terminal_port(); ++p) {
      const auto far = t.remote_endpoint(r, p);
      if (far.router == kInvalid) continue;  // unwired global slot
      ASSERT_NE(far.router, r);
      const auto back = t.remote_endpoint(far.router, far.port);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST_P(ParametricSweep, TerminalMappingAndMinHops) {
  const DragonflyTopology t = make();
  for (NodeId n = 0; n < t.num_terminals(); ++n) {
    const RouterId r = t.router_of_terminal(n);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, t.num_routers());
    const PortId p = t.terminal_port(n);
    EXPECT_EQ(t.port_class(p), PortClass::kTerminal);
    EXPECT_EQ(t.terminal_id(r, p - t.first_terminal_port()), n);
  }
  const int n = t.num_routers();
  for (RouterId a = 0; a < n; a += std::max(1, n / 40)) {
    for (RouterId b = 0; b < n; b += std::max(1, n / 40)) {
      const int d = t.min_hops(a, b);
      EXPECT_GE(d, 0);
      EXPECT_LE(d, 3);
      EXPECT_EQ(d == 0, a == b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParametricSweep,
    ::testing::Combine(
        ::testing::Values(Shape{2, 6, 3, 8},    // the unbalanced reference
                          Shape{1, 4, 2, 5},    // thin terminals, few groups
                          Shape{3, 5, 2, 11},   // odd a, maximal g = a*h+1
                          Shape{2, 4, 2, 2},    // two groups, 8x trunked
                          Shape{2, 3, 1, 4},    // h=1, maximal
                          Shape{4, 8, 4, 33}),  // balanced h=4 spelled out
        ::testing::Values(GlobalArrangement::kAbsolute,
                          GlobalArrangement::kPalmtree)),
    [](const auto& info) {
      const Shape s = std::get<0>(info.param);
      return "p" + std::to_string(s.p) + "a" + std::to_string(s.a) + "h" +
             std::to_string(s.h) + "g" + std::to_string(s.g) +
             (std::get<1>(info.param) == GlobalArrangement::kAbsolute
                  ? "_absolute"
                  : "_palmtree");
    });

// The balanced shorthand must reproduce the historical closed-form
// wiring bit-for-bit: dest = (g ± (j+1)) mod G, reverse = G - 2 - j.
TEST(Topology, BalancedMatchesClosedFormWiring) {
  for (const int h : {1, 2, 3, 4}) {
    for (const auto arr :
         {GlobalArrangement::kAbsolute, GlobalArrangement::kPalmtree}) {
      const DragonflyTopology t(h, arr);
      ASSERT_TRUE(t.balanced());
      const int G = t.num_groups();
      const int L = t.global_links_per_group();
      ASSERT_EQ(L, G - 1);
      for (GroupId g = 0; g < G; ++g) {
        for (int j = 0; j < L; ++j) {
          const GroupId expect =
              arr == GlobalArrangement::kAbsolute
                  ? (g + j + 1) % G
                  : ((g - j - 1) % G + G) % G;
          ASSERT_EQ(t.global_link_dest(g, j), expect)
              << "h=" << h << " g=" << g << " j=" << j;
          ASSERT_EQ(t.global_link_reverse(g, j), G - 2 - j);
        }
      }
    }
  }
}

// The one-argument shorthand and the spelled-out balanced shape are the
// same topology object in every observable way.
TEST(Topology, ShorthandEqualsExplicitBalanced) {
  const DragonflyTopology a(3);
  const DragonflyTopology b(3, 6, 3, 19);
  EXPECT_TRUE(b.balanced());
  EXPECT_EQ(a.num_routers(), b.num_routers());
  EXPECT_EQ(a.ports_per_router(), b.ports_per_router());
  for (RouterId r = 0; r < a.num_routers(); ++r) {
    for (PortId p = 0; p < a.first_terminal_port(); ++p) {
      const auto ea = a.remote_endpoint(r, p);
      const auto eb = b.remote_endpoint(r, p);
      ASSERT_EQ(ea.router, eb.router);
      ASSERT_EQ(ea.port, eb.port);
    }
  }
}

TEST(Topology, RejectsOversizedShapesInsteadOfOverflowing) {
  // a*h = 10^10 would overflow the int link-slot count and then attempt
  // a multi-GB table allocation; the ctor must throw instead.
  EXPECT_THROW(DragonflyTopology(1, 100000, 100000, 2),
               std::invalid_argument);
  // The balanced shorthand squares h.
  EXPECT_THROW(DragonflyTopology(2000000000), std::invalid_argument);
}

TEST(Topology, RejectsInvalidShapes) {
  EXPECT_THROW(DragonflyTopology(2, 4, 2, 10), std::invalid_argument);
  EXPECT_THROW(DragonflyTopology(0, 4, 2, 5), std::invalid_argument);
  EXPECT_THROW(DragonflyTopology(2, 0, 2, 5), std::invalid_argument);
  EXPECT_THROW(DragonflyTopology(2, 4, 0, 5), std::invalid_argument);
  EXPECT_THROW(DragonflyTopology(2, 4, 2, 0), std::invalid_argument);
}

TEST(Topology, DescribeMentionsUnbalancedShape) {
  const DragonflyTopology t(2, 6, 3, 8);
  const std::string s = t.describe();
  EXPECT_NE(s.find("p=2"), std::string::npos);
  EXPECT_NE(s.find("a=6"), std::string::npos);
  EXPECT_NE(s.find("g=8"), std::string::npos);
  EXPECT_NE(s.find("8 groups"), std::string::npos);
}

TEST(Topology, PaperScaleH8) {
  // Paper Sec. IV: h=8 -> 31-port routers, 16512 servers, 2064 routers,
  // 129 supernodes of 16 routers.
  const DragonflyTopology t(8);
  EXPECT_EQ(t.ports_per_router(), 31);
  EXPECT_EQ(t.num_terminals(), 16512);
  EXPECT_EQ(t.num_routers(), 2064);
  EXPECT_EQ(t.num_groups(), 129);
  EXPECT_EQ(t.routers_per_group(), 16);
}

TEST(Topology, RejectsInvalidH) {
  EXPECT_THROW(DragonflyTopology(0), std::invalid_argument);
  EXPECT_THROW(DragonflyTopology(-3), std::invalid_argument);
}

TEST(Topology, DescribeMentionsScale) {
  const DragonflyTopology t(2);
  const std::string s = t.describe();
  EXPECT_NE(s.find("h=2"), std::string::npos);
  EXPECT_NE(s.find("9 groups"), std::string::npos);
}

}  // namespace
}  // namespace dfsim
