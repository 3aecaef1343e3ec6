// Fixed-width table printer for bench output.
//
// The bench binaries print their rows as text tables through this; it keeps
// their formatting uniform.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace multiedge::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; cells beyond the header count are dropped, missing cells
  /// render empty.
  void add_row(std::vector<std::string> cells);

  /// Convenience for mixed numeric rows.
  class RowBuilder {
   public:
    explicit RowBuilder(Table& t) : table_(t) {}
    RowBuilder& cell(const std::string& s);
    RowBuilder& cell(double v, int precision = 2);
    RowBuilder& cell(std::uint64_t v);
    RowBuilder& cell(std::int64_t v);
    RowBuilder& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
    ~RowBuilder();

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };
  RowBuilder row() { return RowBuilder(*this); }

  void print(std::ostream& os) const;

  const std::vector<std::string>& headers() const { return headers_; }
  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers shared by benches.
std::string fmt_double(double v, int precision = 2);
std::string fmt_percent(double fraction, int precision = 1);

}  // namespace multiedge::stats
