#include "common/csv.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <string_view>

namespace fairkm {
namespace {

// Parses the CSV body into rows of fields. Returns an error on an unterminated
// quoted field. A run of plain bytes, inside or outside quotes, is copied
// with one append; the delimiter, quote, CR and LF take one state step each.
Status ParseBody(std::string_view text, char delim,
                 std::vector<std::vector<std::string>>* out) {
  // Bytes that end a plain run outside quotes.
  std::array<bool, 256> special{};
  for (char c : {delim, '"', '\n', '\r'}) special[static_cast<unsigned char>(c)] = true;
  const char* p = text.data();
  const char* const end = p + text.size();
  out->reserve(static_cast<size_t>(std::count(p, end, '\n')) + 1);
  size_t line = 1;
  size_t width = 0;  // The previous row's width, to size the next one.
  bool in_quotes = false;
  bool field_started = false;
  std::vector<std::string> row;
  row.emplace_back();

  while (p < end) {
    if (in_quotes) {
      const char* q = static_cast<const char*>(std::memchr(p, '"', end - p));
      const char* run_end = q ? q : end;
      line += static_cast<size_t>(std::count(p, run_end, '\n'));
      row.back().append(p, run_end);
      p = run_end;
      if (p == end) break;
      if (p + 1 < end && p[1] == '"') {
        row.back() += '"';
        p += 2;
      } else {
        in_quotes = false;
        ++p;
      }
      continue;
    }
    const char* run_end = p;
    while (run_end < end && !special[static_cast<unsigned char>(*run_end)]) ++run_end;
    if (run_end != p) {
      row.back().append(p, run_end);
      field_started = true;
      p = run_end;
      continue;
    }
    const char c = *p++;
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
    } else if (c == delim) {
      row.emplace_back();
      field_started = false;
    } else if (c == '\r') {
      // Swallowed; handled with the following '\n' (or ignored if bare).
    } else if (c == '\n') {
      ++line;
      width = row.size();
      out->push_back(std::move(row));
      row = std::vector<std::string>();
      // One slot more than the previous row: a caller appending a column
      // (the CLI's cluster id) does not reallocate every row.
      row.reserve(width + 1);
      row.emplace_back();
      field_started = false;
    } else {
      row.back() += c;
      field_started = true;
    }
  }
  if (in_quotes) {
    return Status::IOError("unterminated quoted CSV field (line " +
                           std::to_string(line) + ")");
  }
  // Trailing row without final newline.
  if (field_started || !row.back().empty() || row.size() > 1) {
    out->push_back(std::move(row));
  }
  return Status::OK();
}

bool NeedsQuoting(const std::string& s, char delim) {
  for (char c : s) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

Result<size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return Status::NotFound("CSV column not found: " + name);
}

Result<CsvTable> ParseCsv(const std::string& text, char delim, bool has_header) {
  std::string_view body(text);
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (body.substr(0, kUtf8Bom.size()) == kUtf8Bom) body.remove_prefix(kUtf8Bom.size());
  CsvTable table;
  FAIRKM_RETURN_NOT_OK(ParseBody(body, delim, &table.rows));
  if (table.rows.empty()) return table;
  size_t start = 0;
  if (has_header) {
    table.header = std::move(table.rows.front());
    table.rows.erase(table.rows.begin());
    start = 1;
  } else {
    table.header.reserve(table.rows[0].size());
    for (size_t i = 0; i < table.rows[0].size(); ++i) {
      table.header.push_back("c" + std::to_string(i));
    }
  }
  const size_t width = table.header.size();
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].size() != width) {
      return Status::IOError("CSV row " + std::to_string(r + start) + " has " +
                             std::to_string(table.rows[r].size()) +
                             " fields, expected " + std::to_string(width));
    }
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path, char delim, bool has_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file for reading: " + path);
  // One read of the file's size; a stream that cannot seek (or a file that
  // grew) keeps doubling the buffer until a read comes up short.
  const std::streamoff size = in.rdbuf()->pubseekoff(0, std::ios::end, std::ios::in);
  in.rdbuf()->pubseekpos(0, std::ios::in);
  std::string text(static_cast<size_t>(std::max<std::streamoff>(size, 0)) + 1, '\0');
  size_t len = 0;
  for (;;) {
    in.read(&text[len], static_cast<std::streamsize>(text.size() - len));
    len += static_cast<size_t>(in.gcount());
    if (len < text.size()) break;
    text.resize(text.size() * 2);
  }
  if (in.bad()) return Status::IOError("read failed: " + path);
  text.resize(len);
  return ParseCsv(text, delim, has_header);
}

std::string WriteCsv(const CsvTable& table, char delim) {
  // Reserving the unquoted size (one delimiter or newline per field, one
  // newline for an empty row) keeps the buffer from doubling past the
  // output's size; quoted fields are rare.
  size_t size = 0;
  auto add_size = [&](const std::vector<std::string>& row) {
    size += std::max<size_t>(row.size(), 1);
    for (const std::string& f : row) size += f.size();
  };
  add_size(table.header);
  for (const auto& row : table.rows) add_size(row);
  std::string out;
  out.reserve(size);
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += delim;
      if (NeedsQuoting(row[i], delim)) {
        out += '"';
        for (char c : row[i]) {
          if (c == '"') out += '"';
          out += c;
        }
        out += '"';
      } else {
        out += row[i];
      }
    }
    out += '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) write_row(row);
  return out;
}

Status WriteCsvFile(const CsvTable& table, const std::string& path, char delim) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open file for writing: " + path);
  out << WriteCsv(table, delim);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace fairkm
