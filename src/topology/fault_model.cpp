#include "topology/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim {

namespace {

[[noreturn]] void bad_token(const std::string& spec, const std::string& token,
                            const std::string& why) {
  throw std::invalid_argument("fault spec \"" + spec + "\": token \"" +
                              token + "\" " + why);
}

/// Parse the decimal integer in token[pos..); advances pos past it.
int parse_id(const std::string& spec, const std::string& token,
             std::size_t& pos) {
  const std::size_t end =
      std::min(token.find_first_not_of("0123456789", pos), token.size());
  if (end == pos) bad_token(spec, token, "expects a router id here");
  const std::optional<int> id =
      parse_number<int>(std::string_view(token).substr(pos, end - pos));
  if (!id) bad_token(spec, token, "has an out-of-range router id");
  pos = end;
  return *id;
}

RouterId checked_router(const DragonflyTopology& topo, const std::string& spec,
                        const std::string& token, int id) {
  if (id < 0 || id >= topo.num_routers()) {
    std::ostringstream os;
    os << "names router " << id << ", but the topology has only routers 0.."
       << topo.num_routers() - 1;
    bad_token(spec, token, os.str());
  }
  return id;
}

/// Both endpoint routers of a token like "gl:3-17".
std::pair<RouterId, RouterId> parse_pair(const DragonflyTopology& topo,
                                         const std::string& spec,
                                         const std::string& token,
                                         std::size_t pos) {
  const int a = parse_id(spec, token, pos);
  if (pos >= token.size() || token[pos] != '-') {
    bad_token(spec, token, "expects the form <routerA>-<routerB>");
  }
  ++pos;
  const int b = parse_id(spec, token, pos);
  if (pos != token.size()) bad_token(spec, token, "has trailing characters");
  if (a == b) bad_token(spec, token, "names the same router twice");
  return {checked_router(topo, spec, token, a),
          checked_router(topo, spec, token, b)};
}

FaultModel::DeadLink make_link(RouterId a, PortId a_port, RouterId b,
                               PortId b_port, bool local) {
  if (a > b) {
    std::swap(a, b);
    std::swap(a_port, b_port);
  }
  return {a, a_port, b, b_port, local};
}

}  // namespace

FaultModel FaultModel::parse(const DragonflyTopology& topo,
                             const std::string& spec) {
  FaultModel fm;
  std::set<RouterId> routers;
  std::set<std::tuple<RouterId, PortId, RouterId>> links;  // dedup

  const char* const kSeparators = ", ;\t";
  std::size_t end = 0;
  for (std::size_t i; (i = spec.find_first_not_of(kSeparators, end)) !=
                      std::string::npos;) {
    end = std::min(spec.find_first_of(kSeparators, i), spec.size());
    const std::string token = spec.substr(i, end - i);

    const std::size_t colon = token.find(':');
    const std::string kind = colon == std::string::npos
                                 ? std::string()
                                 : token.substr(0, colon);
    if (kind == "r") {
      std::size_t pos = colon + 1;
      const RouterId r = checked_router(topo, spec, token,
                                        parse_id(spec, token, pos));
      if (pos != token.size()) {
        bad_token(spec, token, "has trailing characters");
      }
      if (routers.insert(r).second) fm.dead_routers_.push_back(r);
    } else if (kind == "gl") {
      const auto [a, b] = parse_pair(topo, spec, token, colon + 1);
      // Every global link slot of `a` whose far side is `b` (trunked
      // pairs can own several).
      const GroupId ga = topo.group_of_router(a);
      const int al = topo.local_index(a);
      bool found = false;
      for (int k = 0; k < topo.num_global_ports(); ++k) {
        const PortId port = topo.first_global_port() + k;
        const int j = topo.global_link_of(al, port);
        if (topo.global_link_dest(ga, j) == kInvalid) continue;
        const auto far = topo.remote_endpoint(a, port);
        if (far.router != b) continue;
        found = true;
        const DeadLink link = make_link(a, port, b, far.port, false);
        if (links.insert({link.a, link.a_port, link.b}).second) {
          fm.dead_links_.push_back(link);
        }
      }
      if (!found) {
        std::ostringstream os;
        os << "names a global link between routers " << a << " and " << b
           << ", but the topology wires none";
        bad_token(spec, token, os.str());
      }
    } else if (kind == "ll") {
      const auto [a, b] = parse_pair(topo, spec, token, colon + 1);
      if (topo.group_of_router(a) != topo.group_of_router(b)) {
        std::ostringstream os;
        os << "names a local link between routers " << a << " (group "
           << topo.group_of_router(a) << ") and " << b << " (group "
           << topo.group_of_router(b)
           << "), but local links never cross groups";
        bad_token(spec, token, os.str());
      }
      const PortId a_port =
          topo.local_port_to(topo.local_index(a), topo.local_index(b));
      const PortId b_port =
          topo.local_port_to(topo.local_index(b), topo.local_index(a));
      const DeadLink link = make_link(a, a_port, b, b_port, true);
      if (links.insert({link.a, link.a_port, link.b}).second) {
        fm.dead_links_.push_back(link);
      }
    } else {
      bad_token(spec, token,
                "has an unknown kind (expected r:<id>, gl:<a>-<b> or "
                "ll:<a>-<b>)");
    }
  }
  return fm;
}

FaultModel FaultModel::sample(const DragonflyTopology& topo, double fraction,
                              std::uint64_t seed) {
  if (!(fraction >= 0.0) || fraction >= 1.0) {
    std::ostringstream os;
    os << "fault fraction must be in [0, 1), got " << fraction;
    throw std::invalid_argument(os.str());
  }
  FaultModel fm;
  if (fraction == 0.0) return fm;

  // Candidates: the forward side (smaller group id) of every wired global
  // link. Trunked duplicates appear once per physical link.
  struct Cand {
    GroupId g;
    int slot;
    GroupId dest;
  };
  std::vector<Cand> cands;
  for (GroupId g = 0; g < topo.num_groups(); ++g) {
    for (int j = 0; j < topo.global_links_per_group(); ++j) {
      const GroupId d = topo.global_link_dest(g, j);
      if (d != kInvalid && g < d) cands.push_back({g, j, d});
    }
  }
  auto target = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(cands.size())));

  // Alive-link count per unordered group pair: sampling must never take a
  // pair's last link, or the fault set would sever the (only) minimal
  // route between the two groups.
  std::vector<int> pair_alive(
      static_cast<std::size_t>(topo.num_groups()) *
          static_cast<std::size_t>(topo.num_groups()),
      0);
  const auto pair_index = [&](GroupId u, GroupId v) {
    return static_cast<std::size_t>(u) *
               static_cast<std::size_t>(topo.num_groups()) +
           static_cast<std::size_t>(v);
  };
  for (const Cand& c : cands) ++pair_alive[pair_index(c.g, c.dest)];

  Rng rng(seed);
  // Fisher-Yates over the candidate order.
  for (std::size_t k = cands.size(); k > 1; --k) {
    const auto swap_with = rng.uniform(k);
    std::swap(cands[k - 1], cands[swap_with]);
  }

  std::size_t killed = 0;
  for (const Cand& c : cands) {
    if (killed >= target) break;
    int& alive = pair_alive[pair_index(c.g, c.dest)];
    if (alive <= 1) continue;  // last link of the pair: keep it
    --alive;
    ++killed;
    const RouterId a = topo.router_id(c.g, topo.global_link_router(c.slot));
    const PortId a_port = topo.global_link_port(c.slot);
    const auto far = topo.remote_endpoint(a, a_port);
    fm.dead_links_.push_back(
        make_link(a, a_port, far.router, far.port, false));
  }
  return fm;
}

std::string FaultModel::describe() const {
  std::vector<RouterId> routers = dead_routers_;
  std::sort(routers.begin(), routers.end());
  std::vector<DeadLink> links = dead_links_;
  std::sort(links.begin(), links.end(), [](const DeadLink& x,
                                           const DeadLink& y) {
    return std::tie(x.a, x.a_port, x.b) < std::tie(y.a, y.a_port, y.b);
  });

  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (const RouterId r : routers) {
    sep();
    os << "r:" << r;
  }
  std::set<std::string> emitted;
  for (const DeadLink& l : links) {
    std::ostringstream tok;
    tok << (l.local ? "ll:" : "gl:") << l.a << "-" << l.b;
    // One token per router pair, however many physical trunks died.
    if (!emitted.insert(tok.str()).second) continue;
    sep();
    os << tok.str();
  }
  return os.str();
}

}  // namespace dfsim
