// String helpers used by the CSV codec, arg parsing and table printing.

#ifndef FAIRKM_COMMON_STRING_UTIL_H_
#define FAIRKM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairkm {

/// \brief Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Strips ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// \brief Joins parts with the given separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief ASCII lower-casing.
std::string ToLower(std::string_view s);

/// \brief Fixed-precision formatting (printf "%.*f").
std::string FormatDouble(double value, int precision);

/// \brief Left-pads `s` with spaces to `width` (no-op if already wider).
std::string PadLeft(std::string_view s, size_t width);

/// \brief Right-pads `s` with spaces to `width`.
std::string PadRight(std::string_view s, size_t width);

/// \brief Parses a double; returns false on malformed or trailing input and
/// on overflow. Underflow to a subnormal (or zero) parses.
bool ParseDouble(std::string_view s, double* out);

/// \brief Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

}  // namespace fairkm

#endif  // FAIRKM_COMMON_STRING_UTIL_H_
