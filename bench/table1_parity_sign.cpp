// Regenerates the paper's Table I: the 16 two-hop type combinations of
// the parity-sign restriction, with allowed/forbidden verdicts, plus the
// per-pair route-count guarantees it provides (Sec. III-B).
#include <iostream>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "routing/parity_sign.hpp"

int main(int argc, char** argv) {
  using namespace dfsim;
  bench::BenchReport report("table1_parity_sign", argc, argv);
  const LocalRouteRestriction restriction(RestrictionPolicy::kParitySign);

  std::cout << "# Table I: parity-sign 2-hop combinations\n";
  std::cout << "first,second,allowed\n";
  for (const auto& row : restriction.table()) {
    std::cout << to_string(row.first) << ',' << to_string(row.second) << ','
              << (row.allowed ? "YES" : "NO") << '\n';
  }

  std::cout << "\n# Route-count guarantees (>= h-1 per ordered pair)\n";
  std::cout << "h,group_size,min_two_hop_routes,max_two_hop_routes\n";
  const int max_h = env_number("DF_MAX_H", 16);
  for (int h = 2; h <= max_h; h *= 2) {
    const int a = DragonflyTopology(h).routers_per_group();
    std::cout << h << ',' << a << ','
              << restriction.min_two_hop_routes(a) << ','
              << restriction.max_two_hop_routes(a) << '\n';
  }
  return 0;
}
