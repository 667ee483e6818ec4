#include "testlib/csv_oracle.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace fairkm {
namespace testutil {
namespace {

Status ParseBody(const std::string& text, char delim,
                 std::vector<std::vector<std::string>>* out) {
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t line = 1;

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    out->push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
      continue;
    }
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
    } else if (c == delim) {
      end_field();
    } else if (c == '\r') {
      // Swallowed; a bare CR is ignored.
    } else if (c == '\n') {
      ++line;
      end_row();
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) {
    return Status::IOError("unterminated quoted CSV field (line " +
                           std::to_string(line) + ")");
  }
  // Trailing row without final newline.
  if (field_started || !field.empty() || !row.empty()) end_row();
  return Status::OK();
}

}  // namespace

Result<CsvTable> OracleParseCsv(const std::string& text, char delim,
                                bool has_header) {
  std::vector<std::vector<std::string>> raw;
  FAIRKM_RETURN_NOT_OK(ParseBody(text, delim, &raw));
  CsvTable table;
  if (raw.empty()) return table;
  size_t start = 0;
  if (has_header) {
    table.header = raw[0];
    start = 1;
  } else {
    for (size_t i = 0; i < raw[0].size(); ++i) {
      table.header.push_back("c" + std::to_string(i));
    }
  }
  const size_t width = table.header.size();
  for (size_t r = start; r < raw.size(); ++r) {
    if (raw[r].size() != width) {
      return Status::IOError("CSV row " + std::to_string(r) + " has " +
                             std::to_string(raw[r].size()) + " fields, expected " +
                             std::to_string(width));
    }
    table.rows.push_back(std::move(raw[r]));
  }
  return table;
}

Result<CsvTable> OracleReadCsvFile(const std::string& path, char delim,
                                   bool has_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return OracleParseCsv(buf.str(), delim, has_header);
}

bool OracleParseDouble(const std::string& s, double* out) {
  const std::string buf = Trim(s);
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (errno == ERANGE && std::fabs(v) == HUGE_VAL) return false;
  *out = v;
  return true;
}

Result<data::Dataset> OracleFromCsv(const CsvTable& table) {
  data::Dataset out;
  const size_t n = table.num_rows();
  for (size_t j = 0; j < table.num_cols(); ++j) {
    bool numeric = n > 0;
    std::vector<double> values;
    for (size_t i = 0; numeric && i < n; ++i) {
      double v = 0;
      numeric = OracleParseDouble(table.rows[i][j], &v);
      values.push_back(v);
    }
    if (numeric) {
      FAIRKM_RETURN_NOT_OK(out.AddNumeric(table.header[j], std::move(values)));
      continue;
    }
    std::map<std::string, int32_t> dict;
    for (size_t i = 0; i < n; ++i) dict.emplace(table.rows[i][j], 0);
    std::vector<std::string> labels;
    for (auto& [label, code] : dict) {
      code = static_cast<int32_t>(labels.size());
      labels.push_back(label);
    }
    std::vector<int32_t> codes;
    for (size_t i = 0; i < n; ++i) codes.push_back(dict[table.rows[i][j]]);
    FAIRKM_RETURN_NOT_OK(
        out.AddCategorical(table.header[j], std::move(codes), std::move(labels)));
  }
  return out;
}

}  // namespace testutil
}  // namespace fairkm
