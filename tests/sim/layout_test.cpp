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
  EXPECT_EQ(sizeof(Packet), 64u);
  EXPECT_EQ(alignof(Packet), 64u);
}

}  // namespace
}  // namespace dfsim
