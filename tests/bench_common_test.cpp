// Unit tests for the bench harness helpers in bench/common: the JSON array
// the gated benches emit and the file write that CI's artifact steps read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace seneca::bench {
namespace {

TEST(WriteJsonFile, UnwritablePathThrowsAndWritesNothing) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "seneca_no_such_dir" / "x.json";
  std::filesystem::remove_all(path.parent_path());
  EXPECT_THROW(write_json_file(path.string(), "[]\n"), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(JsonWriter, EmptyArrayIsValidJson) {
  std::string s = JsonWriter().str();
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](unsigned char c) { return std::isspace(c); }),
          s.end());
  EXPECT_EQ(s, "[]");
}

TEST(JsonWriter, EscapesControlCharacters) {
  JsonWriter j;
  j.obj().field("name", std::string("a\x01" "b\"c\n"));
  EXPECT_NE(j.str().find(R"("name": "a\u0001b\"c\n")"), std::string::npos)
      << j.str();
}

}  // namespace
}  // namespace seneca::bench
