// Unit tests for units, CSV writer, table printer, error macros and the
// FNV-1a hash.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(units::hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(units::days(1), 86400.0);
  EXPECT_DOUBLE_EQ(units::years(1), 365.0 * 86400.0);
  EXPECT_DOUBLE_EQ(units::hours(2.5), 9000.0);
}

TEST(Units, VolumeConversions) {
  EXPECT_DOUBLE_EQ(units::gigabytes(1), 1e9);
  EXPECT_DOUBLE_EQ(units::terabytes(286), 2.86e14);
  EXPECT_DOUBLE_EQ(units::petabytes(7), 7e15);
}

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(units::gb_per_s(160), 1.6e11);
  EXPECT_DOUBLE_EQ(units::tb_per_s(10), 1e13);
}

// --- error macros --------------------------------------------------------------

TEST(Error, CheckThrowsWithContext) {
  try {
    COOPCR_CHECK(false, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_NE(what.find("test_misc_util.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(COOPCR_CHECK(true, "unused"));
  EXPECT_NO_THROW(COOPCR_ASSERT(1 + 1 == 2, "unused"));
}

// --- CSV ------------------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesCommasAndQuotes) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/coopcr_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b"});
    csv.write_row("row", {1.5, 2.25});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "row,1.5,2.25");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), Error);
}

// --- table printer ---------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FmtFixedPoint) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

// --- hash --------------------------------------------------------------------

TEST(Fnv1a64, StepMatchesPublishedTestVectors) {
  // Reference values from the FNV specification's test suite, seeded with
  // the published offset basis.
  constexpr std::uint64_t kPublishedOffset = 0xcbf29ce484222325ull;
  EXPECT_EQ(fnv1a64("a", 1, kPublishedOffset), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6, kPublishedOffset), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, DefaultOffsetIsPinned) {
  // Journal checksums, spec/grid digests and query-cache keys were all
  // written with this basis; changing it would orphan every journal.
  EXPECT_EQ(kFnv1a64Offset, 1469598103934665603ull);
  EXPECT_EQ(fnv1a64("", 0), kFnv1a64Offset);
  EXPECT_EQ(fnv1a64("a", 1), 4953267810257967366ull);
}

TEST(Fnv1a64, ChainedPiecesEqualOneCall) {
  const std::uint64_t head = fnv1a64("foo", 3);
  EXPECT_EQ(fnv1a64("bar", 3, head), fnv1a64("foobar", 6));
}

}  // namespace
}  // namespace coopcr
