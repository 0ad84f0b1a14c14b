// Construction of routing mechanisms by name (used by the API facade,
// benches and examples).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "routing/adaptive_base.hpp"
#include "routing/piggyback.hpp"
#include "routing/routing.hpp"
#include "routing/ugal.hpp"
#include "topology/dragonfly_topology.hpp"

namespace dfsim {

struct RoutingParams {
  AdaptiveParams adaptive;
  PiggybackParams piggyback;
  UgalParams ugal;
};

/// One registry row. `build` constructs the mechanism from the topology
/// and the shared parameter block.
struct RoutingEntry {
  const char* key;    ///< canonical name
  const char* alias;  ///< optional second name ("" = none)
  const char* help;   ///< one-line description for --list-routing
  std::unique_ptr<RoutingAlgorithm> (*build)(const DragonflyTopology& topo,
                                             const RoutingParams& params);
};

/// The routing registry, in documentation order. New mechanisms register
/// here and nowhere else — make_routing, the unknown-name error message
/// and df_run --list-routing all derive from this list.
const std::vector<RoutingEntry>& routing_registry();

/// Comma-separated canonical keys (for error messages and --help output).
std::string routing_names();

/// Throws std::invalid_argument naming the full registry unless `name`
/// is a registered key or alias.
void validate_routing_name(const std::string& name);

/// Names: "minimal", "valiant", "pb", "ugal", "par-6/2" (or "par62"),
/// "rlm", "rlm-signonly", "rlm-unrestricted", "olm". Throws
/// std::invalid_argument naming the full registry on an unknown name.
std::unique_ptr<RoutingAlgorithm> make_routing(const std::string& name,
                                               const DragonflyTopology& topo,
                                               const RoutingParams& params);

}  // namespace dfsim
