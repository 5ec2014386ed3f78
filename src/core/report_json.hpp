// JSON export of evaluation results, so downstream tooling (plots,
// regression dashboards) consumes structured data instead of scraping the
// bench tables.
#pragma once

#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "util/json.hpp"

namespace rsp::core {

/// One kernel's evaluation across a suite of architectures.
util::Json to_json(const std::string& kernel_name,
                   const std::vector<EvalResult>& rows);

}  // namespace rsp::core
