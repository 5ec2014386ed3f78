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

}  // namespace rsp::util
