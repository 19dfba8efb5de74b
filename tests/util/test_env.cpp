// Strict env-knob parsing: unset/empty falls back, malformed values throw
// errors that *name the knob*, and every parser rejects trailing garbage.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/env.hpp"
#include "util/error.hpp"

namespace coopcr::env {
namespace {

constexpr const char* kKnob = "COOPCR_TEST_KNOB";

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv(kKnob); }
  void TearDown() override { ::unsetenv(kKnob); }

  void set(const char* value) { ::setenv(kKnob, value, 1); }
};

TEST_F(EnvTest, RawDistinguishesUnsetEmptyAndSet) {
  EXPECT_FALSE(raw(kKnob).has_value());
  set("");
  EXPECT_FALSE(raw(kKnob).has_value());
  set("value");
  ASSERT_TRUE(raw(kKnob).has_value());
  EXPECT_EQ(*raw(kKnob), "value");
}

TEST_F(EnvTest, IntKnobParsesAndFallsBack) {
  EXPECT_EQ(int_knob(kKnob, 7, 1), 7);
  set("");
  EXPECT_EQ(int_knob(kKnob, 7, 1), 7);
  set("42");
  EXPECT_EQ(int_knob(kKnob, 7, 1), 42);
  set("1");
  EXPECT_EQ(int_knob(kKnob, 7, 1), 1);
}

TEST_F(EnvTest, IntKnobThrowsNamingTheKnob) {
  for (const char* bad : {"1o", "abc", "4.5", " 3", "3 ", "-1", "0",
                          "99999999999999999999"}) {
    set(bad);
    try {
      (void)int_knob(kKnob, 7, 1);
      FAIL() << "expected a throw for \"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(kKnob), std::string::npos)
          << "error for \"" << bad << "\" must name the knob: " << e.what();
    }
  }
}

TEST_F(EnvTest, IntKnobHonoursMinValue) {
  set("0");
  EXPECT_EQ(int_knob(kKnob, 7, 0), 0);  // threads-style knob allows 0
  EXPECT_THROW(int_knob(kKnob, 7, 1), Error);  // replicas-style does not
}

TEST_F(EnvTest, U64KnobParsesDecimalAndHex) {
  EXPECT_EQ(u64_knob(kKnob, 5u), 5u);
  set("123456789012345");
  EXPECT_EQ(u64_knob(kKnob, 5u), 123456789012345ull);
  set("0xDEADBEEF");
  EXPECT_EQ(u64_knob(kKnob, 5u), 0xDEADBEEFull);
  set("-1");
  EXPECT_THROW(u64_knob(kKnob, 5u), Error);
  set("0x");
  EXPECT_THROW(u64_knob(kKnob, 5u), Error);
}

TEST_F(EnvTest, StringKnobYieldsNulloptWhenUnset) {
  EXPECT_FALSE(string_knob(kKnob).has_value());
  set("/tmp/artifacts");
  EXPECT_EQ(string_knob(kKnob).value(), "/tmp/artifacts");
}

TEST_F(EnvTest, FlagKnobAcceptsOnlyZeroAndOne) {
  EXPECT_FALSE(flag_knob(kKnob));
  set("0");
  EXPECT_FALSE(flag_knob(kKnob));
  set("1");
  EXPECT_TRUE(flag_knob(kKnob));
  set("yes");
  EXPECT_THROW(flag_knob(kKnob), Error);
}

TEST(EnvParse, FlagValuesGetTheKnobParserAndNameTheFlag) {
  EXPECT_EQ(parse_int("--shards", "3", 0), 3);
  EXPECT_EQ(parse_double("--target-ci", "0.02", 0.0), 0.02);
  for (const char* bad : {"", " 3", "+3", "3x", "inf", "nan", "-1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_int("--shards", bad, 0), Error);
    EXPECT_THROW(parse_double("--target-ci", bad, 0.0), Error);
  }
  try {
    parse_int("--shards", "two", 0);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos);
  }
}

}  // namespace
}  // namespace coopcr::env
