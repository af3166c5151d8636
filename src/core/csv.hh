/**
 * @file
 * Column tables for the result CSVs. Each CSV (sweep, chaos,
 * robustness) is one array of CsvColumn entries; its header line and
 * every row are both derived from that array, so a column can never
 * drift from its name or position.
 */

#ifndef TMI_CORE_CSV_HH
#define TMI_CORE_CSV_HH

#include <string>

#include "common/logging.hh" // strprintf, for formatted cells
#include "sched/scheduler.hh"

namespace tmi
{

/** One CSV column: its header name and how to render its cell. */
template <class Row>
struct CsvColumn
{
    const char *name;
    std::string (*cell)(const Row &row);
};

/** The header line of @p columns (no trailing newline). */
template <class Row, std::size_t N>
std::string
csvHeader(const CsvColumn<Row> (&columns)[N])
{
    std::string line;
    for (const CsvColumn<Row> &col : columns)
        line += (&col == columns ? "" : ",") + std::string(col.name);
    return line;
}

/** @p row rendered through @p columns (no trailing newline). */
template <class Row, std::size_t N>
std::string
csvRow(const CsvColumn<Row> (&columns)[N], const Row &row)
{
    std::string line;
    for (const CsvColumn<Row> &col : columns)
        line += (&col == columns ? "" : ",") + col.cell(row);
    return line;
}

/** @p cell, or the "-" placeholder when it does not apply. */
inline std::string
dashUnless(bool applies, std::string cell)
{
    return applies ? cell : "-";
}

/** CSV cells must not sprout new columns or rows. */
inline std::string
csvSanitize(std::string s)
{
    for (char &c : s) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ';';
    }
    return s;
}

/** Lower-case outcome name as written to the result CSVs. */
inline const char *
outcomeName(RunOutcome outcome)
{
    static const char *const names[] = {"completed", "timeout",
                                        "deadlock"};
    return names[static_cast<int>(outcome)];
}

} // namespace tmi

#endif // TMI_CORE_CSV_HH
