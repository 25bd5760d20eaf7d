#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace galvatron {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string HumanBytes(double bytes) {
  static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  double v = bytes;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f%s", v, kUnits[unit]);
}

std::string FormatDouble(double v, int digits) {
  return StrFormat("%.*f", digits, v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

Status BadFlagValue(const std::string& flag, const std::string& text,
                    const std::string& expected) {
  return Status::InvalidArgument(StrFormat(
      "%s expects %s, got '%s'", flag.c_str(), expected.c_str(),
      text.c_str()));
}

}  // namespace

Result<int> ParseIntFlag(const std::string& flag, const std::string& text,
                         int min_value, int max_value) {
  const std::string expected =
      StrFormat("an integer in [%d, %d]", min_value, max_value);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return BadFlagValue(flag, text, expected);
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || value < min_value ||
      value > max_value) {
    return BadFlagValue(flag, text, expected);
  }
  return static_cast<int>(value);
}

Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& text, double min_value,
                               double max_value) {
  const std::string expected =
      StrFormat("a number in [%g, %g]", min_value, max_value);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return BadFlagValue(flag, text, expected);
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < min_value || value > max_value) {
    return BadFlagValue(flag, text, expected);
  }
  return value;
}

}  // namespace galvatron
