// Plain-text table formatting used by the CLI and the campaign report sink
// so that every reproduced paper table/figure prints in a uniform,
// diff-friendly layout.
#pragma once

#include <string>
#include <vector>

namespace pwcet {

/// Column-aligned ASCII table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with right-aligned numeric-looking cells.
  std::string to_string() const;

  /// Renders as RFC-4180-style CSV (header row first; cells containing
  /// commas, quotes or newlines are quoted). Used by the campaign report
  /// sink so every table the engine emits is also machine-readable.
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (no trailing stream state games).
std::string fmt_double(double value, int precision);

/// Formats a probability in scientific notation (e.g. "1.0e-15").
std::string fmt_prob(double value);

}  // namespace pwcet
