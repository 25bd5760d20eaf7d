#ifndef GALVATRON_UTIL_STRING_UTIL_H_
#define GALVATRON_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace galvatron {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Formats a byte count with a binary-unit suffix, e.g. "3.08GB", "512.00MB".
std::string HumanBytes(double bytes);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses the value of command-line flag `flag` as a whole decimal integer
/// in [min_value, max_value]. Empty text, leading whitespace, trailing
/// characters ("8080x") and out-of-range values are InvalidArgument errors
/// naming the flag — never a silent 0 the way atoi reads "abc".
Result<int> ParseIntFlag(const std::string& flag, const std::string& text,
                         int min_value, int max_value);

/// Same for a finite decimal floating-point value in [min_value,
/// max_value]; "nan", "inf" and trailing characters are rejected.
Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& text, double min_value,
                               double max_value);

}  // namespace galvatron

#endif  // GALVATRON_UTIL_STRING_UTIL_H_
