#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string path_ = test::tempPath("mse_csv_test.csv");

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        CsvWriter w(path_);
        ASSERT_TRUE(w.ok());
        w.writeRow(std::vector<std::string>{"a", "b"});
        w.writeRow(std::vector<double>{1.5, 2.0});
    }
    EXPECT_EQ(slurp(path_), "a,b\n1.5,2\n");
}

TEST_F(CsvTest, QuotesCellsWithCommas)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"x,y", "plain"});
    }
    EXPECT_EQ(slurp(path_), "\"x,y\",plain\n");
}

TEST_F(CsvTest, EscapesEmbeddedQuotes)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"he said \"hi\""});
    }
    EXPECT_EQ(slurp(path_), "\"he said \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, ScientificNumbersRoundTrip)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<double>{3.14159e10});
    }
    EXPECT_EQ(slurp(path_), "3.14159e+10\n");
}

TEST(CsvWriterBadPath, ReportsNotOk)
{
    CsvWriter w("/nonexistent_dir_zzz/file.csv");
    EXPECT_FALSE(w.ok());
}

} // namespace
} // namespace mse
