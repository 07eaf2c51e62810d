#include "stats/export.hh"

#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace pdr::stats {

namespace {

/**
 * Is the cell a valid JSON number (so writeJson can emit it raw)?
 * Deliberately stricter than strtod: hex, inf/nan, "+5", ".5" and
 * "5." all parse as C doubles but are not JSON numbers.
 */
bool
looksNumeric(const std::string &s)
{
    std::size_t i = 0;
    const std::size_t n = s.size();
    if (i < n && s[i] == '-')
        i++;
    std::size_t int_start = i;
    while (i < n && s[i] >= '0' && s[i] <= '9')
        i++;
    std::size_t int_len = i - int_start;
    if (int_len == 0 || (int_len > 1 && s[int_start] == '0'))
        return false;
    if (i < n && s[i] == '.') {
        i++;
        std::size_t frac_start = i;
        while (i < n && s[i] >= '0' && s[i] <= '9')
            i++;
        if (i == frac_start)
            return false;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        i++;
        if (i < n && (s[i] == '+' || s[i] == '-'))
            i++;
        std::size_t exp_start = i;
        while (i < n && s[i] >= '0' && s[i] <= '9')
            i++;
        if (i == exp_start)
            return false;
    }
    return i == n;
}

void
writeCsvCell(std::ostream &os, const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
        os << s;
        return;
    }
    os << '"';
    for (char c : s) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default: os << c;
        }
    }
    os << '"';
}

} // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    pdr_assert(!header_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    pdr_assert(cells.size() == header_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::cell(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
Table::cell(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
Table::cell(bool v)
{
    return v ? "true" : "false";
}

void
Table::writeCsv(std::ostream &os) const
{
    for (std::size_t c = 0; c < header_.size(); c++) {
        if (c)
            os << ',';
        writeCsvCell(os, header_[c]);
    }
    os << '\n';
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); c++) {
            if (c)
                os << ',';
            writeCsvCell(os, row[c]);
        }
        os << '\n';
    }
}

Table
Table::readCsv(std::istream &is, const std::string &what)
{
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    auto fail = [&](int line, const char *msg) {
        throw std::invalid_argument(
            csprintf("'%s' line %d: %s", what.c_str(), line, msg));
    };

    std::vector<std::vector<std::string>> records;
    std::vector<int> lines;     // First line of each record.
    const std::size_t n = text.size();
    std::size_t i = 0;
    int line = 1;
    while (i < n) {
        lines.push_back(line);
        std::vector<std::string> cells;
        while (true) {
            std::string cell;
            if (i < n && text[i] == '"') {
                const int open = line;
                for (i++;; i++) {
                    if (i == n)
                        fail(open, "unterminated quoted cell");
                    if (text[i] == '"') {
                        if (i + 1 < n && text[i + 1] == '"')
                            i++;    // A doubled quote is one quote.
                        else
                            break;
                    }
                    if (text[i] == '\n')
                        line++;
                    cell += text[i];
                }
                i++;
                if (i + 1 < n && text[i] == '\r' && text[i + 1] == '\n')
                    i++;
                if (i < n && text[i] != ',' && text[i] != '\n')
                    fail(line, "stray quote: text after a closing quote");
            } else {
                for (; i < n && text[i] != ',' && text[i] != '\n'; i++) {
                    if (text[i] == '"')
                        fail(line, "stray quote in an unquoted cell");
                    cell += text[i];
                }
                if (i < n && text[i] == '\n' && !cell.empty() &&
                    cell.back() == '\r')
                    cell.pop_back();    // CRLF row end.
            }
            cells.push_back(std::move(cell));
            if (i < n && text[i] == ',') {
                i++;
                continue;
            }
            if (i < n) {    // The row's line break.
                i++;
                line++;
            }
            break;
        }
        records.push_back(std::move(cells));
    }

    if (records.empty()) {
        throw std::invalid_argument("'" + what + "' is empty");
    }
    Table table(std::move(records.front()));
    for (std::size_t r = 1; r < records.size(); r++) {
        if (records[r].size() != table.header().size()) {
            fail(lines[r], csprintf("%zu cells, header has %zu",
                                    records[r].size(),
                                    table.header().size())
                               .c_str());
        }
        table.addRow(std::move(records[r]));
    }
    return table;
}

void
Table::writeJson(std::ostream &os) const
{
    os << "[\n";
    for (std::size_t r = 0; r < rows_.size(); r++) {
        os << "  {";
        for (std::size_t c = 0; c < header_.size(); c++) {
            if (c)
                os << ", ";
            writeJsonString(os, header_[c]);
            os << ": ";
            // "true"/"false" stay quoted: cell(bool) targets CSV
            // friendliness, and a quoted literal is unambiguous.
            if (looksNumeric(rows_[r][c]))
                os << rows_[r][c];
            else
                writeJsonString(os, rows_[r][c]);
        }
        os << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

std::string
Table::toCsv() const
{
    std::ostringstream os;
    writeCsv(os);
    return os.str();
}

std::string
Table::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace pdr::stats
