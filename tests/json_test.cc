// The one JSON writer: separators, escaping and integer-rendered numbers,
// plus the artifact write helper every export goes through.
#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace slice {
namespace {

template <typename Write>
std::string Json(Write write) {
  obs::JsonWriter w;
  write(w);
  return w.str();
}

TEST(JsonWriterTest, SeparatesNestedValuesAndKeys) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a").Int(1);
  w.Key("b").BeginArray().Int(-2).BeginObject().EndObject();
  w.BeginArray().UInt(3).UInt(4).EndArray().EndArray();
  w.Key("c").BeginObject().Key("d").String("e").Key("f").BeginArray().EndArray().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[-2,{},[3,4]],"c":{"d":"e","f":[]}})");
}

TEST(JsonWriterTest, BoolsAreJsonLiterals) {
  obs::JsonWriter w;
  w.BeginObject().Key("yes").Bool(true).Key("no").Bool(false).EndObject();
  EXPECT_EQ(w.str(), R"({"yes":true,"no":false})");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  const std::string raw = "q\"b\\n\nt\tc\x01\x1f";
  const std::string escaped = R"(q\"b\\n\nt\tc\u0001\u001f)";
  EXPECT_EQ(Json([&](obs::JsonWriter& w) { w.BeginObject().Key(raw).String(raw).EndObject(); }),
            "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonWriterTest, DecimalIsIntegerFixedPoint) {
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Decimal(1500, 3); }), "1.500");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Decimal(5, 3); }), "0.005");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Decimal(-25, 1); }), "-2.5");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Decimal(42, 0); }), "42");
}

TEST(JsonWriterTest, FixedIsLocaleIndependentIntegerMath) {
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Fixed(3.14159, 3); }), "3.142");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Fixed(-2.5, 1); }), "-2.5");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Fixed(42.0, 0); }), "42");
  EXPECT_EQ(Json([](obs::JsonWriter& w) { w.Fixed(0.125, 2); }), "0.13");
}

TEST(WriteArtifactTest, FailsUnderAMissingDirectory) {
  const std::string dir = ::testing::TempDir() + "slice_json_test_missing";
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(obs::WriteArtifact(dir + "/out.json", "{}"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(WriteArtifactTest, RoundTripsBytesExactly) {
  const std::string path = ::testing::TempDir() + "slice_json_test_roundtrip.json";
  const std::string bytes("{\"a\":1}\n\0\xff\r\n", 12);
  ASSERT_TRUE(obs::WriteArtifact(path, std::string(64, 'x')));
  ASSERT_TRUE(obs::WriteArtifact(path, bytes));  // truncates the longer file
  std::ifstream in(path, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_EQ(got, bytes);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace slice
