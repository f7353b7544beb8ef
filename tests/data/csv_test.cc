#include "data/csv.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <string>

#include "../test_dir.h"

namespace ireduct {
namespace {

class CsvTest : public testing::Test {
 protected:
  CaseTempDir dir_;
  const std::string path_ = dir_.File("ireduct_csv_test.csv");
};

Schema MakeSchema() {
  auto s = Schema::Create({{"A", 3}, {"B", 5}});
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST_F(CsvTest, RoundTrip) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(d.AppendRow(std::array<uint16_t, 2>{0, 4}).ok());
  ASSERT_TRUE(d.AppendRow(std::array<uint16_t, 2>{2, 1}).ok());
  ASSERT_TRUE(WriteCsv(d, path_).ok());

  auto back = ReadCsv(MakeSchema(), path_);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->value(0, 1), 4);
  EXPECT_EQ(back->value(1, 0), 2);
}

TEST_F(CsvTest, ReadRejectsMissingFile) {
  EXPECT_EQ(ReadCsv(MakeSchema(), path_ + ".nope").status().code(),
            StatusCode::kIoError);
}

TEST_F(CsvTest, ReadRejectsWrongHeader) {
  std::ofstream(path_) << "A,X\n0,0\n";
  EXPECT_FALSE(ReadCsv(MakeSchema(), path_).ok());
}

TEST_F(CsvTest, ReadRejectsOutOfDomainValue) {
  std::ofstream(path_) << "A,B\n0,9\n";
  EXPECT_FALSE(ReadCsv(MakeSchema(), path_).ok());
}

TEST_F(CsvTest, ReadRejectsMalformedCells) {
  std::ofstream(path_) << "A,B\n0\n";
  EXPECT_FALSE(ReadCsv(MakeSchema(), path_).ok());
  std::ofstream(path_) << "A,B\nx,1\n";
  EXPECT_FALSE(ReadCsv(MakeSchema(), path_).ok());
}

TEST_F(CsvTest, EmptyDatasetRoundTrips) {
  Dataset d(MakeSchema());
  ASSERT_TRUE(WriteCsv(d, path_).ok());
  auto back = ReadCsv(MakeSchema(), path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
}

}  // namespace
}  // namespace ireduct
