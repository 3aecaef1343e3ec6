#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace multiedge::stats {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(const std::string& s) {
  cells_.push_back(s);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double v, int precision) {
  cells_.push_back(fmt_double(v, precision));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::uint64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::int64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder::~RowBuilder() { table_.add_row(std::move(cells_)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace multiedge::stats
