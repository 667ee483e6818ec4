#include "data/dataset.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/csv.h"
#include "data/matrix.h"

namespace fairkm {
namespace data {
namespace {

Dataset MakeSample() {
  Dataset d;
  d.AddNumeric("age", {30, 40, 50, 60}).Abort();
  d.AddNumeric("hours", {20, 35, 40, 45}).Abort();
  d.AddCategorical("gender", {0, 1, 0, 1}, {"M", "F"}).Abort();
  return d;
}

TEST(MatrixTest, Basics) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.empty());
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 7.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.5);
}

TEST(MatrixTest, SelectRows) {
  Matrix m(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) m.At(i, j) = static_cast<double>(10 * i + j);
  }
  Matrix sel = m.SelectRows({2, 0});
  EXPECT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel.At(0, 1), 21.0);
  EXPECT_DOUBLE_EQ(sel.At(1, 0), 0.0);
}

TEST(MatrixTest, SquaredDistance) {
  Matrix m(2, 3);
  double a[3] = {1, 2, 3};
  double b[3] = {4, 6, 3};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 3), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a, 3), 0.0);
}

TEST(DatasetTest, AddAndLookup) {
  Dataset d = MakeSample();
  EXPECT_EQ(d.num_rows(), 4u);
  ASSERT_TRUE(d.FindNumeric("age").ok());
  ASSERT_TRUE(d.FindCategorical("gender").ok());
  EXPECT_EQ(d.FindNumeric("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(d.FindCategorical("age").status().code(), StatusCode::kNotFound);
}

TEST(DatasetTest, DuplicateColumnRejected) {
  Dataset d = MakeSample();
  EXPECT_EQ(d.AddNumeric("age", {1, 2, 3, 4}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(d.AddCategorical("gender", {0, 0, 0, 0}, {"x"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatasetTest, LengthMismatchRejected) {
  Dataset d = MakeSample();
  EXPECT_EQ(d.AddNumeric("bad", {1, 2}).code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, NonFiniteValuesRejected) {
  Dataset d;
  EXPECT_EQ(
      d.AddNumeric("bad", {1.0, std::numeric_limits<double>::quiet_NaN()})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      d.AddNumeric("bad", {std::numeric_limits<double>::infinity(), 2.0})
          .code(),
      StatusCode::kInvalidArgument);
  // A rejected add leaves no trace: the dataset's row count is still
  // unset, so a differently-sized clean column is welcome.
  EXPECT_TRUE(d.AddNumeric("good", {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(d.num_rows(), 3u);
}

TEST(DatasetTest, OutOfRangeCodesRejected) {
  Dataset d;
  EXPECT_EQ(d.AddCategorical("c", {0, 2}, {"a", "b"}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(d.AddCategorical("c", {-1, 0}, {"a", "b"}).code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetTest, CategoricalFractions) {
  Dataset d = MakeSample();
  const CategoricalColumn* col = d.FindCategorical("gender").ValueOrDie();
  std::vector<double> fr = col->Fractions();
  ASSERT_EQ(fr.size(), 2u);
  EXPECT_DOUBLE_EQ(fr[0], 0.5);
  EXPECT_DOUBLE_EQ(fr[1], 0.5);
}

TEST(DatasetTest, ToMatrixSelectsAndOrders) {
  Dataset d = MakeSample();
  auto m = d.ToMatrix({"hours", "age"});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.ValueOrDie().cols(), 2u);
  EXPECT_DOUBLE_EQ(m.ValueOrDie().At(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(m.ValueOrDie().At(0, 1), 30.0);
}

TEST(DatasetTest, ToMatrixUnknownColumn) {
  Dataset d = MakeSample();
  EXPECT_FALSE(d.ToMatrix({"age", "unknown"}).ok());
}

TEST(DatasetTest, NumericNames) {
  Dataset d = MakeSample();
  EXPECT_EQ(d.NumericNames(), (std::vector<std::string>{"age", "hours"}));
}

TEST(DatasetTest, SelectRowsKeepsSchema) {
  Dataset d = MakeSample();
  Dataset sub = d.SelectRows({3, 1});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.FindNumeric("age").ValueOrDie()->values[0], 60.0);
  EXPECT_EQ(sub.FindCategorical("gender").ValueOrDie()->codes[1], 1);
  EXPECT_EQ(sub.FindCategorical("gender").ValueOrDie()->labels,
            (std::vector<std::string>{"M", "F"}));
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset d = MakeSample();
  CsvTable csv = d.ToCsv();
  EXPECT_EQ(csv.num_rows(), 4u);
  auto back = Dataset::FromCsv(csv);
  ASSERT_TRUE(back.ok());
  const Dataset& b = back.ValueOrDie();
  EXPECT_EQ(b.num_rows(), 4u);
  EXPECT_NEAR(b.FindNumeric("age").ValueOrDie()->values[2], 50.0, 1e-6);
  // Labels come back sorted lexicographically: F=0, M=1.
  const CategoricalColumn* g = b.FindCategorical("gender").ValueOrDie();
  EXPECT_EQ(g->labels, (std::vector<std::string>{"F", "M"}));
  EXPECT_EQ(g->codes[0], 1);  // First row was "M".
}

TEST(DatasetTest, FromCsvTypeInference) {
  CsvTable csv;
  csv.header = {"num", "mixed"};
  csv.rows = {{"1.5", "abc"}, {"2", "1.0"}};
  auto d = Dataset::FromCsv(csv);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.ValueOrDie().FindNumeric("num").ok());
  EXPECT_TRUE(d.ValueOrDie().FindCategorical("mixed").ok());
}

// A subnormal value is a number: it must not re-type its column as
// categorical and drop it from the numeric features.
TEST(DatasetTest, FromCsvSubnormalColumnStaysNumeric) {
  auto csv = ParseCsv("x,y\n1,2\n1e-310,3\n");
  ASSERT_TRUE(csv.ok());
  auto d = Dataset::FromCsv(csv.ValueOrDie());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.ValueOrDie().NumericNames(), (std::vector<std::string>{"x", "y"}));
  auto x = d.ValueOrDie().FindNumeric("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.ValueOrDie()->values[1], 1e-310);
}

// Typing is unchanged by the from_chars fast path: the smallest subnormal
// stays a number; inf and nan parse as numbers and the non-finite check
// rejects the column; an overflowing cell is not a number, so its column is
// categorical.
TEST(DatasetTest, FromCsvNonFiniteAndExtremeCells) {
  auto sub = ParseCsv("x\n4.9e-324\n1\n");
  ASSERT_TRUE(sub.ok());
  auto d = Dataset::FromCsv(sub.ValueOrDie());
  ASSERT_TRUE(d.ok());
  auto x = d.ValueOrDie().FindNumeric("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.ValueOrDie()->values[0], std::numeric_limits<double>::denorm_min());

  for (const char* cell : {"inf", "-inf", "nan"}) {
    CsvTable t;
    t.header = {"a", "b"};
    t.rows = {{"1", "2"}, {"3", cell}};
    auto bad = Dataset::FromCsv(t);
    ASSERT_FALSE(bad.ok()) << cell;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << cell;
    EXPECT_EQ(bad.status().message(), "column 'b' has a non-finite value at row 1")
        << cell;
  }

  CsvTable big;
  big.header = {"a"};
  big.rows = {{"1"}, {"1e400"}};
  auto typed = Dataset::FromCsv(big);
  ASSERT_TRUE(typed.ok());
  auto col = typed.ValueOrDie().FindCategorical("a");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.ValueOrDie()->labels, (std::vector<std::string>{"1", "1e400"}));
}

// Codes are ranks in the sorted label dictionary, whatever order the labels
// first appear in; byte order decides ("B" < "a" < "b" < "\xC3\xA9").
TEST(DatasetTest, FromCsvCodesFollowSortedLabels) {
  CsvTable t;
  t.header = {"s", "x"};
  t.rows = {{"b", "1"}, {"\xC3\xA9", "2"}, {"a", "3"}, {"b", "4"}, {"B", "5"},
            {"", "6"}};
  auto d = Dataset::FromCsv(t);
  ASSERT_TRUE(d.ok());
  const CategoricalColumn* s = d.ValueOrDie().FindCategorical("s").ValueOrDie();
  EXPECT_EQ(s->labels,
            (std::vector<std::string>{"", "B", "a", "b", "\xC3\xA9"}));
  EXPECT_EQ(s->codes, (std::vector<int32_t>{3, 4, 2, 3, 1, 0}));
}

// A spreadsheet export's byte order mark does not hide the first column.
TEST(DatasetTest, FromCsvFindsFirstColumnBehindBom) {
  auto csv = ParseCsv("\xEF\xBB\xBFgender,x\nM,1\nF,2\n");
  ASSERT_TRUE(csv.ok());
  auto d = Dataset::FromCsv(csv.ValueOrDie());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.ValueOrDie().FindCategorical("gender").ok());
}

}  // namespace
}  // namespace data
}  // namespace fairkm
