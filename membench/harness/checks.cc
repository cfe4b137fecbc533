#include "harness/checks.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace membench
{

namespace
{

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ','))
        cells.push_back(cell);
    return cells;
}

std::optional<double>
parseNumber(const std::string &cell)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(cell, &used);
        if (used != cell.size())
            return std::nullopt;
        return v;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

} // anonymous namespace

std::optional<Csv>
parseCsv(const std::string &text)
{
    Csv out;
    std::stringstream in(text);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::vector<std::string> cells = splitCells(line);
        if (header) {
            out.columns = std::move(cells);
            header = false;
            continue;
        }
        std::vector<double> row;
        row.reserve(cells.size());
        for (const std::string &c : cells) {
            std::optional<double> v = parseNumber(c);
            if (!v)
                return std::nullopt;
            row.push_back(*v);
        }
        out.rows.push_back(std::move(row));
    }
    return out;
}

std::optional<Csv>
readCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::stringstream text;
    text << in.rdbuf();
    return parseCsv(text.str());
}

CsvMatch
compareCsv(const Csv &golden, const Csv &actual,
           const std::vector<std::string> &exact, Tolerance tol)
{
    CsvMatch m;
    if (golden.columns != actual.columns ||
        golden.rows.size() != actual.rows.size()) {
        m.firstDiff = "table shape differs from the golden";
        return m;
    }
    m.shapeOk = true;
    for (std::size_t r = 0; r < golden.rows.size(); ++r) {
        const std::vector<double> &g_row = golden.rows[r];
        const std::vector<double> &a_row = actual.rows[r];
        bool row_ok = g_row.size() == golden.columns.size() &&
                      a_row.size() == golden.columns.size();
        for (std::size_t c = 0; row_ok && c < g_row.size(); ++c) {
            const bool is_exact =
                std::find(exact.begin(), exact.end(), golden.columns[c]) !=
                exact.end();
            const double g = g_row[c];
            const double a = a_row[c];
            const double bound =
                is_exact ? 0.0
                         : tol.abs + tol.rel * std::max(std::fabs(g),
                                                        std::fabs(a));
            if (!(std::fabs(a - g) <= bound)) {
                row_ok = false;
                if (m.firstDiff.empty()) {
                    char buf[160];
                    std::snprintf(buf, sizeof buf,
                                  "row %zu column '%s': golden %.9g, "
                                  "got %.9g",
                                  r, golden.columns[c].c_str(), g, a);
                    m.firstDiff = buf;
                }
            }
        }
        if (!row_ok) {
            m.badRows.push_back(r);
            if (m.firstDiff.empty())
                m.firstDiff = "row " + std::to_string(r) +
                              " has the wrong number of cells";
        }
    }
    return m;
}

std::string
compareReply(std::string_view got, std::string_view want)
{
    if (got == want)
        return {};
    const std::size_t n = std::min(got.size(), want.size());
    std::size_t i = 0;
    while (i < n && got[i] == want[i])
        ++i;
    const std::size_t from = i > 20 ? i - 20 : 0;
    return "differs at byte " + std::to_string(i) + ": got '" +
           std::string(got.substr(from, 60)) + "', want '" +
           std::string(want.substr(from, 60)) + "'";
}

std::string_view
replyId(std::string_view line)
{
    constexpr std::string_view kPrefix = "{\"id\":\"";
    if (line.substr(0, kPrefix.size()) != kPrefix)
        return {};
    const std::size_t end = line.find('"', kPrefix.size());
    if (end == std::string_view::npos)
        return {};
    return line.substr(kPrefix.size(), end - kPrefix.size());
}

bool
replyOk(std::string_view line)
{
    const std::string_view id = replyId(line);
    if (id.empty())
        return false;
    // {"id":"<id>","ok":true,...; a degraded stale answer does not count
    const std::size_t after = 7 + id.size() + 2;
    const std::string_view rest = line.substr(std::min(after, line.size()));
    return rest.substr(0, 10) == "\"ok\":true,";
}

} // namespace membench
