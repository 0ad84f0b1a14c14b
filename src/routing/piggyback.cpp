#include "routing/piggyback.hpp"

#include "common/serialize.hpp"
#include "routing/route_util.hpp"
#include "sim/engine.hpp"

namespace dfsim {

PiggybackRouting::PiggybackRouting(const DragonflyTopology& topo,
                                   const PiggybackParams& params)
    : topo_(topo),
      params_(params),
      links_per_group_(topo.global_links_per_group()),
      published_(static_cast<size_t>(topo.num_groups() * links_per_group_),
                 0.0) {}

void PiggybackRouting::per_cycle(Engine& engine) {
  if (engine.now() % static_cast<Cycle>(params_.broadcast_period) != 0) {
    return;
  }
  for (GroupId g = 0; g < topo_.num_groups(); ++g) {
    for (int j = 0; j < links_per_group_; ++j) {
      // Unwired slots (unbalanced shapes) and dead slots (degraded
      // networks) carry no traffic and publish a permanent 0.
      if (!topo_.global_slot_alive(g, j)) continue;
      const RouterId owner = topo_.router_id(g, topo_.global_link_router(j));
      const PortId port = topo_.global_link_port(j);
      published_[static_cast<size_t>(g * links_per_group_ + j)] =
          engine.port_max_occupancy(owner, port);
    }
  }
}

void PiggybackRouting::save_state(std::ostream& os) const {
  ser::save(os, *this);
}

void PiggybackRouting::restore_state(std::istream& is) { ser::load(is, *this); }

template <class Ar>
void PiggybackRouting::transfer(Ar& ar) {
  std::uint64_t n = published_.size();
  ar.u64(n, "pb published table size");
  if (n != published_.size()) {
    throw std::runtime_error(
        "checkpoint mismatch: pb published table has " + std::to_string(n) +
        " entries in the checkpoint but " +
        std::to_string(published_.size()) + " in this configuration");
  }
  for (double& v : published_) ar.f64(v, "pb published entry");
}

std::optional<RouteChoice> PiggybackRouting::decide(RoutingContext& ctx) {
  Engine& eng = ctx.engine;
  const RouteState& rs = ctx.packet.rs;
  const Flit& flit = ctx.flit;

  const bool at_injection = !rs.valiant && rs.total_hops == 0 &&
                            ctx.router != rs.dst_router &&
                            topo_.num_groups() >= 3;
  if (at_injection) {
    const GroupId g = topo_.group_of_router(ctx.router);
    // Minimal congestion signal: the group's global channel toward the
    // destination group, or (intra-group traffic) the single local link
    // toward the destination router, observed directly at this router.
    double min_occ;
    if (rs.dst_group != g) {
      min_occ = published(g, topo_.global_link_to(g, rs.dst_group));
    } else {
      min_occ = eng.port_max_occupancy(
          ctx.router, topo_.local_port_to(topo_.local_index(ctx.router),
                                          topo_.local_index(rs.dst_router)));
    }
    if (min_occ > params_.saturation_threshold &&
        valiant_groups_available(topo_, g, rs.dst_group)) {
      const GroupId x =
          draw_valiant_group(ctx.rng, topo_, g, rs.dst_group);
      if (!saturated(g, topo_.global_link_to(g, x))) {
        RouteChoice c;
        c.commit_valiant = true;
        c.inter_group = x;
        const RouterId gw = topo_.gateway_router(g, x);
        if (gw == ctx.router) {
          c.port = topo_.gateway_port(g, x);
        } else {
          c.port = topo_.local_port_to(topo_.local_index(ctx.router),
                                       topo_.local_index(gw));
        }
        c.vc = 0;  // lVC1 or gVC1
        if (eng.output_usable(ctx.router, c.port, c.vc, flit)) return c;
        return std::nullopt;
      }
    }
  }

  const Hop hop = minimal_hop_with(topo_, ctx.router, ctx.packet,
                                   rs.global_hops, rs.global_hops);
  if (!eng.output_usable(ctx.router, hop.port, hop.vc, flit)) {
    return std::nullopt;
  }
  RouteChoice choice;
  choice.port = hop.port;
  choice.vc = hop.vc;
  return choice;
}

std::optional<Hop> PiggybackRouting::pure_minimal_hop(
    const RoutingContext& ctx) {
  const RouteState& rs = ctx.packet.rs;
  // The injection decision reads congestion state and may draw a Valiant
  // group; in transit Piggybacking forwards minimally.
  if (!rs.valiant && rs.total_hops == 0 && ctx.router != rs.dst_router &&
      topo_.num_groups() >= 3) {
    return std::nullopt;
  }
  return minimal_hop_with(topo_, ctx.router, ctx.packet, rs.global_hops,
                          rs.global_hops);
}

}  // namespace dfsim
