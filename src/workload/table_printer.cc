#include "workload/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace lbr {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  size_t total = 0;
  for (size_t w : widths) total += w + 3;

  std::cout << "\n" << title << "\n" << std::string(total, '-') << "\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::cout << ' ' << cells[i]
                << std::string(widths[i] - cells[i].size() + 2, ' ');
    }
    std::cout << "\n";
  };
  print_row(headers_);
  std::cout << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
  std::cout << std::string(total, '-') << "\n";
}

std::string TablePrinter::Seconds(double sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", sec);
  return buf;
}

std::string TablePrinter::Count(uint64_t n) {
  // Thousands separators for readability, as the paper's tables use.
  std::string digits = std::to_string(n);
  std::string out;
  int c = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (c != 0 && c % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++c;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string TablePrinter::YesNo(bool b) { return b ? "Yes" : "No"; }

}  // namespace lbr
