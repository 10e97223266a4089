#include "base/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace wcrt {

std::string
formatFixed(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

Table::Table(std::vector<std::string> header) : header(std::move(header))
{
    if (this->header.empty())
        wcrt_panic("Table needs at least one column");
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header.size())
        wcrt_panic("row width ", row.size(), " != header width ",
                   header.size());
    body.push_back(std::move(row));
}

Table &
Table::cell(const std::string &value)
{
    pending.push_back(value);
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    return cell(formatFixed(value, precision));
}

Table &
Table::cell(uint64_t value)
{
    return cell(std::to_string(value));
}

void
Table::endRow()
{
    pending.resize(header.size());
    addRow(std::move(pending));
    pending.clear();
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> width(header.size());
    for (size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &row : body)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "") << std::left
               << std::setw(static_cast<int>(width[c])) << row[c];
        }
        os << '\n';
    };

    print_row(header);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : body)
        print_row(row);
}

} // namespace wcrt
