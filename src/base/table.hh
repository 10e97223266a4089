/**
 * @file
 * Column-aligned text tables.
 *
 * Every bench binary prints its paper table/figure series through this
 * class so the output style is uniform and machine-parseable.
 */

#ifndef WCRT_BASE_TABLE_HH
#define WCRT_BASE_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace wcrt {

/**
 * An in-memory table with a header row and uniform-width columns.
 */
class Table
{
  public:
    /** Construct with a header; the column count is fixed from it. */
    explicit Table(std::vector<std::string> header);

    /** Append a fully-formed row; must match the column count. */
    void addRow(std::vector<std::string> row);

    /** Begin building a row cell by cell. */
    Table &cell(const std::string &value);

    /** Numeric cell with fixed decimal places. */
    Table &cell(double value, int precision = 2);

    /** Integer cell. */
    Table &cell(uint64_t value);

    /** Finish the row started with cell(); pads missing cells. */
    void endRow();

    /** Number of data rows. */
    size_t rows() const { return body.size(); }

    /** Render as an aligned text table. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> body;
    std::vector<std::string> pending;
};

/** Format a double with fixed precision into a string. */
std::string formatFixed(double value, int precision);

} // namespace wcrt

#endif // WCRT_BASE_TABLE_HH
