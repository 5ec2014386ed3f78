// CSV emission for machine-readable experiment outputs; every bench binary
// can dump its table as CSV next to the pretty-printed version so downstream
// plotting does not have to scrape ASCII art.
#pragma once

#include <string>
#include <vector>

namespace rsp::util {

/// Accumulates rows and renders RFC-4180-ish CSV (quotes fields containing
/// commas, quotes or newlines).
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Full document including header line.
  std::string render() const;

  /// Writes to `path`; throws rsp::Error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quotes a single CSV field if needed.
std::string csv_escape(const std::string& field);

}  // namespace rsp::util
