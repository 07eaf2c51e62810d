/**
 * @file
 * Tabular result export: a simple header + rows table with CSV and JSON
 * writers and a CSV reader.  The sweep engine (src/exec/) renders SweepResults through
 * this so every bench/example can dump machine-readable curves next to
 * its human-readable output (see `pdr sweep --csv` in tools/pdr_main.cc).
 *
 * Cells are stored as strings; the JSON writer emits cells that parse
 * as finite numbers without quotes so downstream tooling gets real
 * numeric fields.
 */

#ifndef PDR_STATS_EXPORT_HH
#define PDR_STATS_EXPORT_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace pdr::stats {

/** A rectangular table of result cells. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    const std::vector<std::string> &header() const { return header_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }
    std::size_t numRows() const { return rows_.size(); }

    /** Append a row; must have exactly one cell per header column. */
    void addRow(std::vector<std::string> cells);

    /** Format helpers for building cells. */
    static std::string cell(double v);
    static std::string cell(std::uint64_t v);
    static std::string cell(bool v);

    /** RFC-4180-style CSV (cells quoted only when needed). */
    void writeCsv(std::ostream &os) const;

    /**
     * The inverse of writeCsv: quoted cells may hold commas, doubled
     * quotes and line breaks, and rows may end in CRLF.  The first
     * record is the header.  Throws std::invalid_argument naming
     * `what` (the file) and the line on an empty input, an
     * unterminated or stray quote, or a row whose cell count differs
     * from the header's.
     */
    static Table readCsv(std::istream &is, const std::string &what);

    /** JSON array of one object per row, keyed by header. */
    void writeJson(std::ostream &os) const;

    std::string toCsv() const;
    std::string toJson() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pdr::stats

#endif // PDR_STATS_EXPORT_HH
