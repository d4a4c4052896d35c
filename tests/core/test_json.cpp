#include "src/core/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/core/error.hpp"

namespace castanet::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
}

TEST(Json, IntegralViewOnlyForIntegralText) {
  EXPECT_TRUE(parse("3").is_number());
  EXPECT_EQ(parse("3").as_int(), 3);
  EXPECT_THROW(parse("3.5").as_int(), LogicError);
  EXPECT_DOUBLE_EQ(parse("3").as_double(), 3.0);
}

TEST(Json, ParsesNestedStructure) {
  const Value v = parse(R"({
    "name": "cross_run",
    "defaults": { "cells": 32, "deep": [1, 2, {"k": true}] },
    "matrix": { "seed": [1, 2, 3] }
  })");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("name", ""), "cross_run");
  const Value* defaults = v.find("defaults");
  ASSERT_NE(defaults, nullptr);
  EXPECT_EQ(defaults->int_or("cells", 0), 32);
  const Value* deep = defaults->find("deep");
  ASSERT_TRUE(deep != nullptr && deep->is_array());
  ASSERT_EQ(deep->as_array().size(), 3u);
  EXPECT_TRUE(deep->as_array()[2].bool_or("k", false));
}

TEST(Json, ObjectKeyOrderPreserved) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  // Dump re-escapes so the round trip is stable.
  const Value v = parse(R"({"s": "line1\nline2"})");
  EXPECT_EQ(parse(v.dump()).string_or("s", ""), "line1\nline2");
}

TEST(Json, DumpParseRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3},"d":"e"})";
  const Value v = parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(parse(v.dump()).dump(), text);
}

TEST(Json, NumbersDumpAsShortestRoundTripText) {
  // Shortest text that parses back to the same double, never a 17-digit
  // expansion (1e-12 used to read 9.9999999999999998e-13).
  EXPECT_EQ(Value(1e-12).dump(), "1e-12");
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(2000.0).dump(), "2000");
  for (const double d : {1e-12, 0.1, 2000.0, 1.0 / 3.0, -2.5e300}) {
    EXPECT_EQ(parse(Value(d).dump()).as_double(), d) << d;
  }
  // JSON has no NaN or infinity literal.
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, FallbackAccessors) {
  const Value v = parse(R"({"s": "x", "n": 5, "b": true})");
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  EXPECT_EQ(v.int_or("n", 0), 5);
  EXPECT_EQ(v.int_or("missing", 9), 9);
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_FALSE(v.bool_or("missing", false));
  // Wrong-kind members fall back too (string_or on a number, etc).
  EXPECT_EQ(v.string_or("n", "d"), "d");
}

TEST(Json, MutationHelpers) {
  Value v{Object{}};
  v.set("a", 1);
  v.set("b", "x");
  v.set("a", 2);  // replace, not append
  EXPECT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.int_or("a", 0), 2);
  Value arr{Array{}};
  arr.push_back(1);
  arr.push_back("two");
  ASSERT_EQ(arr.as_array().size(), 2u);
  v.set("list", std::move(arr));
  EXPECT_EQ(v.dump(), R"({"a":2,"b":"x","list":[1,"two"]})");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(parse(""), IoError);
  EXPECT_THROW(parse("{"), IoError);
  EXPECT_THROW(parse("{\"a\": }"), IoError);
  EXPECT_THROW(parse("[1, 2,]"), IoError);
  EXPECT_THROW(parse("tru"), IoError);
  EXPECT_THROW(parse("1 2"), IoError);  // trailing non-whitespace
  EXPECT_THROW(parse("\"unterminated"), IoError);
}

TEST(Json, KindMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), LogicError);
  EXPECT_THROW(v.as_string(), LogicError);
  EXPECT_EQ(v.find("x"), nullptr);  // find on a non-object is just absent
}

TEST(Json, ParseFile) {
  const std::string path = ::testing::TempDir() + "castanet_json_test.json";
  {
    std::ofstream f(path);
    f << R"({"name": "from_file", "n": 7})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.string_or("name", ""), "from_file");
  EXPECT_EQ(v.int_or("n", 0), 7);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file(path), IoError);
}

}  // namespace
}  // namespace castanet::json
