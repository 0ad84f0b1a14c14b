// The engine's headers must give every translation unit the same class
// layouts, whatever its NDEBUG setting: code built with asserts on and
// linked against a release libdfsim.a would otherwise read and write the
// engine's members at the wrong offsets. This file turns asserts on and
// compares its own view of Engine with the library's.
#undef NDEBUG

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace dfsim {
namespace {

TEST(EngineLayout, AssertBuildSeesTheLibraryLayout) {
  EXPECT_EQ(sizeof(Engine), Engine::compiled_size());
}

TEST(EngineLayout, RecordSizes) {
  EXPECT_EQ(sizeof(Flit), 8u);
  // The allocation scan reads one InputVc per VC visit, two to a cache
  // line; a credit's waiter wake reads the OutputVc it just updated.
  EXPECT_EQ(sizeof(InputVc), 32u);
  EXPECT_EQ(sizeof(OutputVc), 12u);
  EXPECT_EQ(sizeof(Packet), 64u);
  EXPECT_EQ(alignof(Packet), 64u);
}

}  // namespace
}  // namespace dfsim
