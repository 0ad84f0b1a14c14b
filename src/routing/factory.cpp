#include "routing/factory.hpp"

#include <stdexcept>

#include "routing/minimal.hpp"
#include "routing/olm.hpp"
#include "routing/par62.hpp"
#include "routing/rlm.hpp"
#include "routing/valiant.hpp"

namespace dfsim {

namespace {

std::unique_ptr<RoutingAlgorithm> build_minimal(const DragonflyTopology& topo,
                                                const RoutingParams&) {
  return std::make_unique<MinimalRouting>(topo);
}

std::unique_ptr<RoutingAlgorithm> build_valiant(const DragonflyTopology& topo,
                                                const RoutingParams&) {
  return std::make_unique<ValiantRouting>(topo);
}

std::unique_ptr<RoutingAlgorithm> build_pb(const DragonflyTopology& topo,
                                           const RoutingParams& params) {
  return std::make_unique<PiggybackRouting>(topo, params.piggyback);
}

std::unique_ptr<RoutingAlgorithm> build_ugal(const DragonflyTopology& topo,
                                             const RoutingParams& params) {
  return std::make_unique<UgalRouting>(topo, params.ugal);
}

std::unique_ptr<RoutingAlgorithm> build_par62(const DragonflyTopology& topo,
                                              const RoutingParams& params) {
  return std::make_unique<Par62Routing>(topo, params.adaptive);
}

std::unique_ptr<RoutingAlgorithm> build_rlm(const DragonflyTopology& topo,
                                            const RoutingParams& params) {
  return std::make_unique<RlmRouting>(topo, params.adaptive,
                                      RestrictionPolicy::kParitySign);
}

std::unique_ptr<RoutingAlgorithm> build_rlm_signonly(
    const DragonflyTopology& topo, const RoutingParams& params) {
  return std::make_unique<RlmRouting>(topo, params.adaptive,
                                      RestrictionPolicy::kSignOnly);
}

std::unique_ptr<RoutingAlgorithm> build_rlm_unrestricted(
    const DragonflyTopology& topo, const RoutingParams& params) {
  return std::make_unique<RlmRouting>(topo, params.adaptive,
                                      RestrictionPolicy::kNone);
}

std::unique_ptr<RoutingAlgorithm> build_olm(const DragonflyTopology& topo,
                                            const RoutingParams& params) {
  return std::make_unique<OlmRouting>(topo, params.adaptive);
}

}  // namespace

const std::vector<RoutingEntry>& routing_registry() {
  static const std::vector<RoutingEntry> kRegistry = {
      {"minimal", "min", "shortest path (l-g-l), no adaptivity",
       build_minimal},
      {"valiant", "val", "random intermediate group, fully oblivious",
       build_valiant},
      {"pb", "piggyback",
       "UGAL with piggybacked remote global-link state", build_pb},
      {"ugal", "", "source-adaptive minimal-vs-Valiant by queue depth",
       build_ugal},
      {"par-6/2", "par62", "progressive adaptive routing, 6/2 VC split",
       build_par62},
      {"rlm", "", "on-the-fly restricted local misrouting (parity+sign)",
       build_rlm},
      {"rlm-signonly", "", "RLM with the sign-only restriction policy",
       build_rlm_signonly},
      {"rlm-unrestricted", "", "RLM with local misroutes unrestricted",
       build_rlm_unrestricted},
      {"olm", "", "on-the-fly opportunistic local misrouting (the paper's "
                  "headline mechanism)",
       build_olm},
  };
  return kRegistry;
}

std::string routing_names() {
  std::string out;
  for (const RoutingEntry& entry : routing_registry()) {
    if (!out.empty()) out += ", ";
    out += entry.key;
    if (entry.alias[0] != '\0') {
      out += " (";
      out += entry.alias;
      out += ")";
    }
  }
  return out;
}

namespace {

const RoutingEntry& find_routing(const std::string& name) {
  for (const RoutingEntry& entry : routing_registry()) {
    if (name == entry.key || (entry.alias[0] != '\0' && name == entry.alias)) {
      return entry;
    }
  }
  throw std::invalid_argument("unknown routing mechanism: " + name +
                              " (known: " + routing_names() + ")");
}

}  // namespace

void validate_routing_name(const std::string& name) { find_routing(name); }

std::unique_ptr<RoutingAlgorithm> make_routing(const std::string& name,
                                               const DragonflyTopology& topo,
                                               const RoutingParams& params) {
  return find_routing(name).build(topo, params);
}

}  // namespace dfsim
