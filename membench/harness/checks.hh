/**
 * @file
 * Output checks behind the benchmark's failure count: golden CSV
 * comparison for the sweeps and byte-for-byte reply comparison for
 * the server.
 */

#ifndef MEMBENCH_CHECKS_HH
#define MEMBENCH_CHECKS_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace membench
{

/** One numeric CSV table: a header row plus data rows. */
struct Csv
{
    std::vector<std::string> columns;
    std::vector<std::vector<double>> rows;
};

/** Parse CSV text; nullopt when a data cell is not a number. */
std::optional<Csv> parseCsv(const std::string &text);

/** Read and parse a CSV file; nullopt when unreadable or malformed. */
std::optional<Csv> readCsv(const std::string &path);

/** A cell matches when |a - g| <= abs + rel * max(|a|, |g|). */
struct Tolerance
{
    double rel = 0.0;
    double abs = 0.0;
};

/** Outcome of comparing a table against its golden. */
struct CsvMatch
{
    bool shapeOk = false;            ///< same columns and row count
    std::vector<std::size_t> badRows; ///< rows with a cell out of bounds
    std::string firstDiff;           ///< first mismatch, for the log

    bool ok() const { return shapeOk && badRows.empty(); }
};

/**
 * Compare @p actual against @p golden cell by cell: columns named in
 * @p exact must be equal, the rest within @p tol. A shape mismatch
 * fails the whole table.
 */
CsvMatch compareCsv(const Csv &golden, const Csv &actual,
                    const std::vector<std::string> &exact, Tolerance tol);

/**
 * Compare a server reply with its reference line byte for byte.
 * Returns an empty string on a match, else where they first differ.
 */
std::string compareReply(std::string_view got, std::string_view want);

/**
 * The value of the leading "id" field of a JSON reply line
 * ({"id":"...",...}); empty when the line does not start that way.
 */
std::string_view replyId(std::string_view line);

/** True when a reply line reports success ("ok":true after the id). */
bool replyOk(std::string_view line);

} // namespace membench

#endif // MEMBENCH_CHECKS_HH
