#include "stats/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace multiedge::stats {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{1});
  t.row().cell("b").cell(std::uint64_t{22222});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "bb", "c"});
  t.add_row({"only"});
  t.add_row({"x", "y", "z", "dropped"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(),
            "a     bb  c\n"
            "-----------\n"
            "only       \n"
            "x     y   z\n");
}

TEST(FmtHelpers, DoubleAndPercent) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.255, 1), "25.5%");
}

}  // namespace
}  // namespace multiedge::stats
