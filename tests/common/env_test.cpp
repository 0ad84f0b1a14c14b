// The env knob readers: trailing garbage must be rejected (DF_H=3x used
// to parse as 3 and silently run the wrong network), out-of-range values
// fall back with a warning instead of being coerced, and DF_JOBS never
// silently turns a negative worker count into "auto".
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"

namespace dfsim {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("DF_TEST_VALUE");
    ::unsetenv("DF_JOBS");
  }
  void set(const char* value) { ::setenv("DF_TEST_VALUE", value, 1); }
};

TEST_F(EnvTest, IntParsesPlainValues) {
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);  // unset -> fallback
  set("42");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 42);
  set("-3");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), -3);
  set(" 5 ");  // surrounding whitespace is harmless
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 5);
}

TEST_F(EnvTest, IntRejectsTrailingGarbage) {
  set("3x");  // the historical DF_H=3x bug: parsed as 3
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
  set("12 34");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
  set("abc");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
  set("");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
}

TEST_F(EnvTest, IntRejectsOutOfRangeValues) {
  set("99999999999999999999999999");  // > INT64_MAX
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
  set("-99999999999999999999999999");
  EXPECT_EQ(env_number("DF_TEST_VALUE", 7), 7);
}

TEST_F(EnvTest, DoubleParsesAndRejectsLikeInt) {
  set("0.5");
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_VALUE", 1.5), 0.5);
  set("2e-3");
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_VALUE", 1.5), 2e-3);
  set("0.5abc");
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_VALUE", 1.5), 1.5);
  set("nope");
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_VALUE", 1.5), 1.5);
  set("1e999");  // overflows double
  EXPECT_DOUBLE_EQ(env_number("DF_TEST_VALUE", 1.5), 1.5);
}

TEST_F(EnvTest, JobsAcceptsPositiveRejectsNegativeAndGarbage) {
  EXPECT_EQ(env_jobs(), 0);  // unset -> auto
  ::setenv("DF_JOBS", "4", 1);
  EXPECT_EQ(env_jobs(), 4);
  ::setenv("DF_JOBS", "0", 1);
  EXPECT_EQ(env_jobs(), 0);  // explicit auto
  ::setenv("DF_JOBS", "-2", 1);
  EXPECT_EQ(env_jobs(), 0);  // warned, not coerced to a bogus count
  ::setenv("DF_JOBS", "8x", 1);
  EXPECT_EQ(env_jobs(), 0);
  ::setenv("DF_JOBS", "9999999999999", 1);
  EXPECT_EQ(env_jobs(), 0);  // beyond int range -> auto with a warning
}

TEST_F(EnvTest, StrAndFlagSemanticsUnchanged) {
  EXPECT_EQ(env_str("DF_TEST_VALUE", "dflt"), "dflt");
  set("hello");
  EXPECT_EQ(env_str("DF_TEST_VALUE", "dflt"), "hello");
  EXPECT_TRUE(env_flag("DF_TEST_VALUE"));
  set("0");
  EXPECT_FALSE(env_flag("DF_TEST_VALUE"));
  set("false");
  EXPECT_FALSE(env_flag("DF_TEST_VALUE"));
}

}  // namespace
}  // namespace dfsim
