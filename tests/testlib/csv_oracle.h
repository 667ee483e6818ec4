// Straightforward reference versions of the CSV ingest path: the parser in
// common/csv.cc, ParseDouble and Dataset::FromCsv.
//
// The parser takes one state machine step per byte: the plain reading of the
// dialect common/csv.h documents (quoted fields, "" escapes, embedded
// newlines, CR swallowed outside quotes, ragged rows rejected). It does not
// strip a UTF-8 byte order mark; that rule is tested on its own. Cells parse
// with Trim + strtod, and FromCsv types one column at a time with a std::map
// label dictionary. The differential tests require the library to agree with
// these on every generated input, and bench_scaling times them as the
// baseline of its ingest pair.

#ifndef FAIRKM_TESTS_TESTLIB_CSV_ORACLE_H_
#define FAIRKM_TESTS_TESTLIB_CSV_ORACLE_H_

#include <string>

#include "common/csv.h"
#include "common/status.h"
#include "data/dataset.h"

namespace fairkm {
namespace testutil {

/// \brief Reference ParseCsv: same CsvTable or the same Status.
Result<CsvTable> OracleParseCsv(const std::string& text, char delim = ',',
                                bool has_header = true);

/// \brief Reads the whole file through a string stream, then OracleParseCsv.
Result<CsvTable> OracleReadCsvFile(const std::string& path, char delim = ',',
                                   bool has_header = true);

/// \brief Reference ParseDouble: strtod on the trimmed text, whole text
/// consumed, overflow rejected, underflow accepted.
bool OracleParseDouble(const std::string& s, double* out);

/// \brief Reference Dataset::FromCsv over OracleParseDouble.
Result<data::Dataset> OracleFromCsv(const CsvTable& table);

}  // namespace testutil
}  // namespace fairkm

#endif  // FAIRKM_TESTS_TESTLIB_CSV_ORACLE_H_
