// The hand-rolled JSON layer under the cluster config: parse/dump round
// trips, escape handling, and — critically — graceful rejection of malformed
// input (configs are operator-supplied, so the parser must never abort).
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace byzcast {
namespace {

TEST(Json, ParsesScalars) {
  std::string err;
  EXPECT_TRUE(Json::parse("null", &err)->is_null());
  EXPECT_TRUE(Json::parse("true", &err)->as_bool());
  EXPECT_FALSE(Json::parse("false", &err)->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25", &err)->as_double(), 3.25);
  EXPECT_EQ(Json::parse("-17", &err)->as_int(), -17);
  EXPECT_EQ(Json::parse("\"hi\"", &err)->as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  std::string err;
  const auto j = Json::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})", &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_EQ(j->get("a").size(), 3u);
  EXPECT_EQ(j->get("a").at(2).get("b").as_string(), "c");
  EXPECT_TRUE(j->get("d").get("e").is_null());
  EXPECT_TRUE(j->get("f").as_bool());
  EXPECT_TRUE(j->get("missing").is_null());  // sentinel, no throw
}

TEST(Json, StringEscapes) {
  std::string err;
  const auto j = Json::parse(R"("line\nquote\"slash\\u:\u0041")", &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_EQ(j->as_string(), "line\nquote\"slash\\u:A");
}

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("name", Json::string("x\"y"));
  obj.set("n", Json::number(42));
  obj.set("pi", Json::number(3.5));
  obj.set("flag", Json::boolean(true));
  Json arr = Json::array();
  arr.push_back(Json::number(1));
  arr.push_back(Json::null());
  obj.set("arr", std::move(arr));

  std::string err;
  const auto back = Json::parse(obj.dump(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, obj);
  EXPECT_EQ(back->get("n").as_int(), 42);
}

TEST(Json, IntegersDumpWithoutFraction) {
  Json j = Json::number(7400);
  EXPECT_EQ(j.dump(), "7400\n");
  // JSON has no NaN or infinity: they dump as null, which parses back.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {std::nan(""), kInf, -kInf}) {
    EXPECT_EQ(Json::number(v).dump(), "null\n") << v;
  }
  Json arr = Json::array();
  arr.push_back(Json::number(kInf));
  arr.push_back(Json::number(1.5));
  std::string err;
  const auto back = Json::parse(arr.dump(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_TRUE(back->at(0).is_null());
  EXPECT_EQ(back->at(1).as_double(), 1.5);
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2",
      "{\"a\": }",
      "{\"a\" 1}",
      "{'a': 1}",
      "[1,]",
      "tru",
      "\"unterminated",
      "\"bad \\x escape\"",
      "1e999",          // not finite
      "{\"a\": 1} x",   // trailing garbage
      "\x01\x02\x03",
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(Json::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  std::string err;
  EXPECT_FALSE(Json::parse(deep, &err).has_value());
}

TEST(Json, AccessorsAreTotalOnMismatch) {
  const Json j = Json::string("s");
  EXPECT_EQ(j.as_int(), 0);
  EXPECT_FALSE(j.as_bool());
  EXPECT_EQ(j.size(), 0u);
  EXPECT_TRUE(j.get("k").is_null());
}

}  // namespace
}  // namespace byzcast
