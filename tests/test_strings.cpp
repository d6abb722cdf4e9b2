#include "util/strings.h"

#include <gtest/gtest.h>

namespace tap::util {
namespace {

TEST(Split, Basic) {
  EXPECT_EQ(split("a/b/c", '/'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, Empty) { EXPECT_TRUE(split("", '/').empty()); }

TEST(Split, KeepsEmptyComponents) {
  EXPECT_EQ(split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Split, TrailingSeparator) {
  EXPECT_EQ(split("a/", '/'), (std::vector<std::string>{"a", ""}));
}

TEST(Join, RoundTripsSplit) {
  std::string s = "t5/encoder/block_0/mha/q";
  EXPECT_EQ(join(split(s, '/'), '/'), s);
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("abc/def", "abc"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(EndsWith, Basics) {
  EXPECT_TRUE(ends_with("abc/def", "def"));
  EXPECT_FALSE(ends_with("def", "abc/def"));
}

TEST(PathDepth, CountsComponents) {
  EXPECT_EQ(path_depth(""), 0u);
  EXPECT_EQ(path_depth("a"), 1u);
  EXPECT_EQ(path_depth("a/b/c"), 3u);
}

TEST(PathParentLeaf, Basics) {
  EXPECT_EQ(path_leaf("a/b/c"), "c");
  EXPECT_EQ(path_leaf("a"), "a");
}

TEST(LongestCommonPrefix, WholeComponentsOnly) {
  // "block_1" vs "block_12" must NOT yield "block_1".
  EXPECT_EQ(longest_common_prefix("m/block_1/x", "m/block_12/x"), "m");
}

TEST(LongestCommonPrefix, Pairwise) {
  EXPECT_EQ(longest_common_prefix("a/b/c", "a/b/d"), "a/b");
  EXPECT_EQ(longest_common_prefix("a/b", "a/b"), "a/b");
  EXPECT_EQ(longest_common_prefix("a/b", "a/b/c"), "a/b");
  EXPECT_EQ(longest_common_prefix("x", "y"), "");
}

TEST(LongestCommonPrefix, SetVersion) {
  EXPECT_EQ(longest_common_prefix(
                std::vector<std::string>{"a/b/c", "a/b/d", "a/b/e/f"}),
            "a/b");
  EXPECT_EQ(longest_common_prefix(std::vector<std::string>{}), "");
  EXPECT_EQ(longest_common_prefix(std::vector<std::string>{"solo/x"}),
            "solo/x");
}

TEST(HumanBytes, Scales) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(human_bytes(3.0 * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(HumanCount, Scales) {
  EXPECT_EQ(human_count(23), "23");
  EXPECT_EQ(human_count(23.5e6), "23.5M");
  EXPECT_EQ(human_count(1.571e12), "1.6T");
}

}  // namespace
}  // namespace tap::util
