// Minimal RFC-4180-ish CSV codec for dataset import/export.
//
// Supports quoted fields with embedded delimiters, escaped quotes ("") and
// embedded newlines. ReadCsvFile reads the whole file into one buffer and
// parses it into a CsvTable of string cells; a UTF-8 byte order mark at
// offset 0 is dropped.

#ifndef FAIRKM_COMMON_CSV_H_
#define FAIRKM_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace fairkm {

/// \brief In-memory CSV table: a header row plus data rows.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_cols() const { return header.size(); }

  /// \brief Index of a header column, or error if absent.
  Result<size_t> ColumnIndex(const std::string& name) const;
};

/// \brief Parses CSV text. When `has_header` is false a synthetic header
/// c0..c{n-1} is created from the first row's width.
Result<CsvTable> ParseCsv(const std::string& text, char delim = ',',
                          bool has_header = true);

/// \brief Reads and parses a CSV file.
Result<CsvTable> ReadCsvFile(const std::string& path, char delim = ',',
                             bool has_header = true);

/// \brief Serializes a table, quoting fields only when necessary.
std::string WriteCsv(const CsvTable& table, char delim = ',');

/// \brief Writes a table to a file.
Status WriteCsvFile(const CsvTable& table, const std::string& path, char delim = ',');

}  // namespace fairkm

#endif  // FAIRKM_COMMON_CSV_H_
