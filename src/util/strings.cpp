#include "util/strings.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace rsp::util {

std::string format_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string format_trimmed(double value, int max_digits) {
  std::string s = format_fixed(value, max_digits);
  if (s.find('.') == std::string::npos) return s;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  if (s == "-0") s = "0";
  return s;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) os << sep;
    os << parts[i];
  }
  return os.str();
}

}  // namespace rsp::util
