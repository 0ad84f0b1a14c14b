// Piggybacking (PB) source-adaptive routing (Jiang, Kim & Dally, ISCA'09;
// the best cost/performance indirect adaptive scheme per that paper and
// the main adaptive baseline of García et al.).
//
// Each router piggybacks the saturation state of its global channels onto
// traffic inside its group; every router therefore holds a (slightly
// stale) table of all a*h global-link occupancies of its group. At
// injection the source picks Valiant iff the minimal global channel is
// saturated and the candidate Valiant channel is not. Decisions are made
// only at injection (source routing): no in-transit re-routing and no
// local misrouting — which is exactly why PB caps at 1/p (1/h balanced)
// under ADVG+h (Figs. 4c/5c) and at ~0.5 under pure ADVL (Fig. 6a, via
// Valiant).
#pragma once

#include <vector>

#include "routing/routing.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim {

struct PiggybackParams {
  double saturation_threshold = 0.35;  ///< occupancy fraction -> saturated
  int broadcast_period = 10;  ///< cycles between state refreshes (staleness)
};

class PiggybackRouting final : public RoutingAlgorithm {
 public:
  PiggybackRouting(const DragonflyTopology& topo,
                   const PiggybackParams& params);

  std::optional<RouteChoice> decide(RoutingContext& ctx) override;
  std::optional<Hop> pure_minimal_hop(const RoutingContext& ctx) override;
  void per_cycle(Engine& engine) override;
  /// The published tables are refreshed only every broadcast_period
  /// cycles; between refreshes they are stale copies a resumed run cannot
  /// rebuild from engine state, so they checkpoint as-is.
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;
  /// The published table as checkpoint fields (see common/serialize.hpp).
  template <class Ar>
  void transfer(Ar& ar);

  int min_local_vcs() const override { return 3; }
  int min_global_vcs() const override { return 2; }
  bool supports_wormhole() const override { return true; }
  std::string name() const override { return "pb"; }

  /// Published (stale) occupancy of global link j of group g; exposed for
  /// tests of the broadcast model.
  double published(GroupId g, int j) const {
    return published_[static_cast<size_t>(g * links_per_group_ + j)];
  }

 private:
  bool saturated(GroupId g, int j) const {
    return published(g, j) > params_.saturation_threshold;
  }

  const DragonflyTopology& topo_;
  PiggybackParams params_;
  int links_per_group_;
  std::vector<double> published_;
};

}  // namespace dfsim
