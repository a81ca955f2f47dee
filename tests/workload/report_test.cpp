#include "workload/report.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace byzcast::workload {
namespace {

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(1234.5, 1), "1234.5");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Report, TableAlignsColumns) {
  ::testing::internal::CaptureStdout();
  print_table({"col", "value"},
              {{"aaaa", "1"}, {"b", "22222"}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("aaaa"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Report, HeaderFormat) {
  ::testing::internal::CaptureStdout();
  print_header("Figure 42");
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "\n== Figure 42 ==\n");
}

TEST(Report, SeriesCsvWritesRows) {
  const std::string path = ::testing::TempDir() + "bzc_series_test.csv";
  write_series_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

}  // namespace
}  // namespace byzcast::workload
