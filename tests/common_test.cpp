// Unit tests for the common module: coords, arithmetic helpers, aligned
// buffers, statistics and tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/aligned.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace nustencil {
namespace {

TEST(Coord, ConstructionAndAccess) {
  Coord c{3, 4, 5};
  EXPECT_EQ(c.rank(), 3);
  EXPECT_EQ(c[0], 3);
  EXPECT_EQ(c[2], 5);
  EXPECT_EQ(c.product(), 60);
  EXPECT_EQ(c.min(), 3);
}

TEST(Coord, Filled) {
  Coord c = Coord::filled(2, 7);
  EXPECT_EQ(c.rank(), 2);
  EXPECT_EQ(c[0], 7);
  EXPECT_EQ(c[1], 7);
}

TEST(Coord, Equality) {
  EXPECT_EQ((Coord{1, 2}), (Coord{1, 2}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 3}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 2, 3}));
}

TEST(Coord, TooManyDimensionsThrows) {
  EXPECT_THROW((Coord{1, 2, 3, 4, 5}), Error);
}

TEST(Coord, Strides) {
  const Coord s = strides_for(Coord{4, 5, 6});
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 4);
  EXPECT_EQ(s[2], 20);
  EXPECT_EQ(linear_index(Coord{1, 2, 3}, s), 1 + 8 + 60);
}

TEST(Math, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
}

TEST(Math, PositiveModulo) {
  EXPECT_EQ(pmod(7, 5), 2);
  EXPECT_EQ(pmod(-1, 5), 4);
  EXPECT_EQ(pmod(-5, 5), 0);
  EXPECT_EQ(pmod(0, 5), 0);
}

TEST(AlignedBuffer, AlignmentAndZeroFill) {
  AlignedBuffer buf(1000);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kPageBytes, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(std::to_integer<int>(buf.data()[i]), 0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(64);
  std::byte* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
}

TEST(AlignedBuffer, BadAlignmentThrows) {
  EXPECT_THROW(AlignedBuffer(64, 48), Error);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Table, PrintsHeaderRowsAndNaN) {
  Table t("demo");
  t.set_header({"cores", "a", "b"});
  t.add_row("1", {1.5, std::nan("")});
  t.add_row("2", {2.5, 3.5});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("cores"), std::string::npos);
  EXPECT_NE(out.find("1.5000"), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t("csv");
  t.set_header({"k", "v"});
  t.add_row("x", {1.0});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("k,v"), std::string::npos);
  EXPECT_NE(os.str().find("x,1.0000"), std::string::npos);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    NUSTENCIL_CHECK(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom message"), std::string::npos);
  }
}

}  // namespace
}  // namespace nustencil
