#include <gtest/gtest.h>

#include <set>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rsp {
namespace {

// ---------------------------------------------------------------- strings
TEST(Strings, FormatFixed) {
  EXPECT_EQ(util::format_fixed(26.85, 2), "26.85");
  EXPECT_EQ(util::format_fixed(26.0, 2), "26.00");
  EXPECT_EQ(util::format_fixed(-4.876, 2), "-4.88");
}

TEST(Strings, FormatTrimmed) {
  EXPECT_EQ(util::format_trimmed(26.0), "26");
  EXPECT_EQ(util::format_trimmed(26.85), "26.85");
  EXPECT_EQ(util::format_trimmed(26.50), "26.5");
  EXPECT_EQ(util::format_trimmed(-0.001, 2), "0");
  EXPECT_EQ(util::format_trimmed(0.0), "0");
}

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ","), "");
}

// ------------------------------------------------------------------ table
TEST(Table, RendersAlignedGrid) {
  util::Table t({"Arch", "Area"});
  t.add_row({"Base", "55739"});
  t.add_row({"RS#1", "32446"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| Base | 55739 |"), std::string::npos);
  EXPECT_NE(s.find("| RS#1 | 32446 |"), std::string::npos);
}

TEST(Table, PadsCellsToColumnWidth) {
  // Column 0 is left-aligned and the others right-aligned; a cell as wide
  // as its column gets no padding.
  util::Table t({"k", "value"});
  t.add_row({"long", "7"});
  t.add_row({"x", "12345"});
  EXPECT_EQ(t.render(),
            "+------+-------+\n"
            "| k    | value |\n"
            "+------+-------+\n"
            "| long |     7 |\n"
            "| x    | 12345 |\n"
            "+------+-------+\n");
}

TEST(Table, RejectsArityMismatch) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(util::Table({}), InvalidArgumentError);
}

TEST(Table, TitleAndSeparator) {
  util::Table t({"x"});
  t.set_title("My title");
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.render();
  EXPECT_EQ(s.rfind("My title", 0), 0u);
}

// -------------------------------------------------------------------- csv
TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(util::csv_escape("plain"), "plain");
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RendersRows) {
  util::CsvWriter csv({"k", "v"});
  csv.add_row({"x", "1"});
  EXPECT_EQ(csv.render(), "k,v\nx,1\n");
  EXPECT_THROW(csv.add_row({"too", "many", "cells"}), InvalidArgumentError);
}

// -------------------------------------------------------------------- rng
TEST(Rng, DeterministicAcrossInstances) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 4);
}

// ------------------------------------------------------------------ error
TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW([] { RSP_ASSERT(1 == 2); }(), InternalError);
  EXPECT_NO_THROW([] { RSP_ASSERT(2 == 2); }());
}

TEST(Error, HierarchyIsCatchable) {
  try {
    throw InfeasibleError("too big");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("too big"), std::string::npos);
  }
}

// ------------------------------------------------------------------- hash
TEST(Hash, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(util::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, StableAcrossCallsAndSensitiveToInput) {
  EXPECT_EQ(util::fnv1a("SAD|8x8"), util::fnv1a("SAD|8x8"));
  EXPECT_NE(util::fnv1a("SAD|8x8"), util::fnv1a("SAD|8x9"));
  EXPECT_NE(util::mix64(1), util::mix64(2));
}

TEST(Hash, Mix64SpreadsConsecutiveInputsAcrossBuckets) {
  // The shard-selection role: consecutive inputs must not cluster.
  std::set<std::uint64_t> buckets;
  for (std::uint64_t i = 0; i < 16; ++i)
    buckets.insert(util::mix64(i) % 16);
  EXPECT_GE(buckets.size(), 8u);
}

}  // namespace
}  // namespace rsp
