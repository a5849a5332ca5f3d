#ifndef LBR_WORKLOAD_TABLE_PRINTER_H_
#define LBR_WORKLOAD_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace lbr {

/// Fixed-width console table writer for the bench binaries that regenerate
/// the paper's Tables 6.1-6.4.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Renders to stdout with a title line.
  void Print(const std::string& title) const;

  /// Formats seconds, as the paper's tables do, with 6 decimals: the
  /// microsecond resolution keeps sub-millisecond queries apart.
  static std::string Seconds(double sec);
  static std::string Count(uint64_t n);
  static std::string YesNo(bool b);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lbr

#endif  // LBR_WORKLOAD_TABLE_PRINTER_H_
