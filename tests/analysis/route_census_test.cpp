#include "analysis/route_census.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace dfsim {
namespace {

TEST(RouteCensus, UnrestrictedIsPerfectlyBalanced) {
  const LocalRouteRestriction none(RestrictionPolicy::kNone);
  const RouteCensus census(8, none);
  // Every ordered pair has all 2h-2 = 6 intermediates.
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_EQ(census.routes()[i][j], 6);
      }
    }
  }
  EXPECT_EQ(census.starved_pairs(), 0);
  EXPECT_EQ(census.max_link_load(), census.min_link_load());
}

TEST(RouteCensus, SignOnlyStarvesAdjacentPairs) {
  const LocalRouteRestriction so(RestrictionPolicy::kSignOnly);
  const RouteCensus census(8, so);
  EXPECT_GT(census.starved_pairs(), 0);
  EXPECT_EQ(census.routes()[0][1], 0);  // the paper's 0->1 example
  EXPECT_EQ(census.routes()[0][7], 6);  // while 0->7 keeps everything
}

TEST(RouteCensus, ParitySignNeverStarves) {
  for (const int h : {2, 3, 4, 8}) {
    const LocalRouteRestriction ps(RestrictionPolicy::kParitySign);
    const RouteCensus census(2 * h, ps);
    EXPECT_EQ(census.starved_pairs(), 0) << "h=" << h;
    const auto hist = census.pair_histogram();
    EXPECT_EQ(hist[0], 0) << "h=" << h;
  }
}

TEST(RouteCensus, ParitySignLinkLoadTighterThanSignOnly) {
  const RouteCensus ps(
      16, LocalRouteRestriction(RestrictionPolicy::kParitySign));
  const RouteCensus so(
      16, LocalRouteRestriction(RestrictionPolicy::kSignOnly));
  const int ps_spread = ps.max_link_load() - ps.min_link_load();
  const int so_spread = so.max_link_load() - so.min_link_load();
  EXPECT_LT(ps_spread, so_spread);
}

TEST(RouteCensus, HistogramCountsAllPairs) {
  const RouteCensus census(
      8, LocalRouteRestriction(RestrictionPolicy::kParitySign));
  const auto hist = census.pair_histogram();
  const int total = std::accumulate(hist.begin(), hist.end(), 0);
  EXPECT_EQ(total, 8 * 7);
}

TEST(RouteCensus, RouteCountsMatchRestrictionQueries) {
  const LocalRouteRestriction ps(RestrictionPolicy::kParitySign);
  const RouteCensus census(6, ps);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_EQ(census.routes()[i][j],
                static_cast<int>(ps.allowed_intermediates(i, j, 6).size()));
    }
  }
}

}  // namespace
}  // namespace dfsim
