#include "common/csv.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "testlib/csv_oracle.h"

namespace fairkm {
namespace {

TEST(CsvParseTest, SimpleTable) {
  auto r = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(r.ok());
  const CsvTable& t = r.ValueOrDie();
  EXPECT_EQ(t.header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(t.rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto r = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_rows(), 1u);
}

TEST(CsvParseTest, QuotedFieldsWithDelimiters) {
  auto r = ParseCsv("name,notes\nalice,\"likes, commas\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows[0][1], "likes, commas");
}

TEST(CsvParseTest, EscapedQuotes) {
  auto r = ParseCsv("a\n\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows[0][0], "she said \"hi\"");
}

TEST(CsvParseTest, EmbeddedNewlines) {
  auto r = ParseCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows[0][0], "line1\nline2");
}

TEST(CsvParseTest, CrLfLineEndings) {
  auto r = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParseTest, NoHeaderSynthesizesColumnNames) {
  auto r = ParseCsv("1,2\n3,4\n", ',', /*has_header=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().header, (std::vector<std::string>{"c0", "c1"}));
  EXPECT_EQ(r.ValueOrDie().num_rows(), 2u);
}

TEST(CsvParseTest, RaggedRowRejected) {
  auto r = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvParseTest, UnterminatedQuoteRejected) {
  auto r = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvParseTest, EmptyInput) {
  auto r = ParseCsv("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_rows(), 0u);
  EXPECT_EQ(r.ValueOrDie().num_cols(), 0u);
}

TEST(CsvParseTest, AlternateDelimiter) {
  auto r = ParseCsv("a;b\n1;2\n", ';');
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows[0][1], "2");
}

TEST(CsvWriteTest, RoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"plain", "with, comma"}, {"with \"quote\"", "multi\nline"}};
  std::string text = WriteCsv(t);
  auto r = ParseCsv(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().header, t.header);
  EXPECT_EQ(r.ValueOrDie().rows, t.rows);
}

TEST(CsvColumnIndexTest, FindsAndRejects) {
  CsvTable t;
  t.header = {"x", "y"};
  auto idx = t.ColumnIndex("y");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.ValueOrDie(), 1u);
  EXPECT_EQ(t.ColumnIndex("z").status().code(), StatusCode::kNotFound);
}

TEST(CsvFileTest, WriteAndReadBack) {
  CsvTable t;
  t.header = {"a"};
  t.rows = {{"1"}, {"2"}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "fairkm_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows, t.rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// A UTF-8 byte order mark at offset 0 (spreadsheet exports write one) is not
// part of the first header name; anywhere else it is field content.
TEST(CsvParseTest, LeadingUtf8BomStripped) {
  auto r = ParseCsv("\xEF\xBB\xBFgender,x\nM,1\n");
  ASSERT_TRUE(r.ok());
  const CsvTable& t = r.ValueOrDie();
  EXPECT_EQ(t.header, (std::vector<std::string>{"gender", "x"}));
  auto idx = t.ColumnIndex("gender");
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx.ValueOrDie(), 0u);

  auto no_header = ParseCsv("\xEF\xBB\xBF" "1,2\n", ',', /*has_header=*/false);
  ASSERT_TRUE(no_header.ok());
  EXPECT_EQ(no_header.ValueOrDie().rows[0][0], "1");

  auto inner = ParseCsv("a,b\n\xEF\xBB\xBFx,y\n");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner.ValueOrDie().rows[0][0], "\xEF\xBB\xBFx");

  auto only = ParseCsv("\xEF\xBB\xBF");
  ASSERT_TRUE(only.ok());
  EXPECT_EQ(only.ValueOrDie().num_cols(), 0u);
}

TEST(CsvFileTest, LeadingUtf8BomStrippedOnRead) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "fairkm_csv_bom_test.csv").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBFs0,f0\r\nv1,0.5\r\n";
  }
  auto r = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().ColumnIndex("s0").ok());
  EXPECT_EQ(r.ValueOrDie().rows[0], (std::vector<std::string>{"v1", "0.5"}));
}

// -- Differential tests against the char-by-char oracle --------------------

// A random field drawn from bytes that exercise every branch of the state
// machine: delimiters of both dialects, quotes, CR, LF and plain text.
std::string RandomField(Rng* rng) {
  static const char* const kPieces[] = {"a", "bc", "1.5", " ", ",", ";",
                                        "\"", "\"\"", "\n", "\r\n", "\r", "x y"};
  std::string field;
  const uint64_t pieces = rng->UniformInt(4);
  for (uint64_t p = 0; p < pieces; ++p) {
    field += kPieces[rng->UniformInt(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return field;
}

CsvTable RandomTable(Rng* rng) {
  CsvTable t;
  const size_t cols = 1 + rng->UniformInt(5);
  const size_t rows = rng->UniformInt(6);
  for (size_t j = 0; j < cols; ++j) t.header.push_back(RandomField(rng));
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (size_t j = 0; j < cols; ++j) row.push_back(RandomField(rng));
    t.rows.push_back(std::move(row));
  }
  return t;
}

// CSV text that is not always well formed: a written table, then edits that
// add CRLF or bare CR line ends, drop the final newline, put a quote in the
// middle of a field, cut a quoted field open, or drop a field (ragged row).
std::string RandomText(Rng* rng, char delim) {
  std::string text = WriteCsv(RandomTable(rng), delim);
  const uint64_t edits = rng->UniformInt(4);
  for (uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = rng->UniformInt(text.size());
    switch (rng->UniformInt(7)) {
      case 0: {
        const size_t nl = text.find('\n', at);
        if (nl != std::string::npos) text.insert(nl, "\r");
        break;
      }
      case 1:
        text.insert(at, "\r");
        break;
      case 2:
        if (text.back() == '\n') text.pop_back();
        break;
      case 3:
        text.insert(at, "\"");
        break;
      case 4:
        text.erase(at);
        break;
      case 5: {
        const size_t d = text.find(delim, at);
        if (d != std::string::npos) text.erase(d, 1);
        break;
      }
      default:
        text.insert(at, std::string(1, delim));
        break;
    }
  }
  return text;
}

void ExpectSameParse(const std::string& text, char delim, bool has_header) {
  const Result<CsvTable> want = testutil::OracleParseCsv(text, delim, has_header);
  const Result<CsvTable> got = ParseCsv(text, delim, has_header);
  ASSERT_EQ(got.ok(), want.ok()) << "text: " << text;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "text: " << text;
    EXPECT_EQ(got.status().message(), want.status().message()) << "text: " << text;
    return;
  }
  EXPECT_EQ(got.ValueOrDie().header, want.ValueOrDie().header) << "text: " << text;
  EXPECT_EQ(got.ValueOrDie().rows, want.ValueOrDie().rows) << "text: " << text;
}

TEST(CsvDifferentialTest, ParseMatchesOracle) {
  Rng rng(0xC5F);
  int failures = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const char delim = iter % 2 == 0 ? ',' : ';';
    const std::string text = RandomText(&rng, delim);
    if (!testutil::OracleParseCsv(text, delim).ok()) ++failures;
    ExpectSameParse(text, delim, /*has_header=*/true);
    ExpectSameParse(text, delim, /*has_header=*/false);
    if (HasFatalFailure()) return;
  }
  // Both outcomes are well covered.
  EXPECT_GT(failures, 400);
  EXPECT_LT(failures, 3600);
}

TEST(CsvDifferentialTest, ParseMatchesOracleOnEdgeTexts) {
  for (const char* text :
       {"", "\n", "\r", "\r\n", ",", "a", "a,", ",a", "\"\"", "\"", "\"a",
        "a\"b", "\"a\"b", "\"a\"\"", "\"a\"\"b\"", "a\rb", "a,b\n\n",
        "a,b\n1,2\r", "a,b\n1,2\n3", "a\n\"x\ny\nz", "\"\n\"\"\n\"",
        "a,b\r\n1,\"2\r\n3\"\r\n", "a;b\n1;2\n", "a,b\n\"1,2\",3\n"}) {
    for (const char delim : {',', ';', '\t', '"', '\r', '\n'}) {
      ExpectSameParse(text, delim, /*has_header=*/true);
      ExpectSameParse(text, delim, /*has_header=*/false);
    }
  }
}

// A pipe or FIFO (fairkm_cli --input /dev/stdin) cannot report its size, so
// ReadCsvFile grows its buffer by doubling until a read comes up short; a
// text of a few hundred KB takes it through many doublings.
TEST(CsvFileTest, FifoReadMatchesOracle) {
  Rng rng(0xF1F0);
  CsvTable t;
  t.header = {"a", "b", "c", "d"};
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::string> row;
    for (size_t j = 0; j < t.header.size(); ++j) row.push_back(RandomField(&rng));
    t.rows.push_back(std::move(row));
  }
  const std::string text = WriteCsv(t);
  ASSERT_GT(text.size(), 64u * 1024u);

  const std::string path = (std::filesystem::temp_directory_path() /
                            ("fairkm_csv_fifo_" + std::to_string(getpid())))
                               .string();
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  // Opening either end of a FIFO blocks until the other end is opened.
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
  const Result<CsvTable> got = ReadCsvFile(path);
  writer.join();
  std::remove(path.c_str());

  const Result<CsvTable> want = testutil::OracleParseCsv(text);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().header, want.ValueOrDie().header);
  EXPECT_EQ(got.ValueOrDie().rows, want.ValueOrDie().rows);
  EXPECT_EQ(got.ValueOrDie().rows, t.rows);
}

}  // namespace
}  // namespace fairkm
