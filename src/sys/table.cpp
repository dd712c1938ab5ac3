#include "sys/table.hpp"

#include <cassert>
#include <cstdio>
#include <sstream>
#include <iomanip>

namespace dnnd::sys {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() <= headers_.size());
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out << ' ' << std::left << std::setw(static_cast<int>(widths[c])) << row[c] << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

std::string fmt(double v, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << v;
  return out.str();
}

std::string fmt_count(unsigned long long v) {
  const std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string fmt_count(long long v) {
  // Negate in unsigned space: -LLONG_MIN does not exist as a long long, so
  // the naive `-v` is UB exactly at the value most likely to appear after a
  // counter wrap. 0 - (unsigned)v is well-defined modular arithmetic and
  // yields the magnitude for every negative input including LLONG_MIN.
  if (v >= 0) return fmt_count(static_cast<unsigned long long>(v));
  std::string s = "-";
  s += fmt_count(0ULL - static_cast<unsigned long long>(v));
  return s;
}

}  // namespace dnnd::sys
