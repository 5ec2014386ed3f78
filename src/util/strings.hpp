// Small string/number formatting helpers: fixed and trimmed numbers,
// joins and splits.
#pragma once

#include <string>
#include <vector>

namespace rsp::util {

/// Formats `value` with exactly `digits` digits after the decimal point
/// (round-half-away-from-zero, like the paper's tables).
std::string format_fixed(double value, int digits);

/// Formats `value` trimming trailing zeros ("26.85", "26", "16.72").
std::string format_trimmed(double value, int max_digits = 2);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Returns true if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace rsp::util
