/**
 * @file
 * The memsense-lint rule catalog.
 *
 * Rules are data-driven: each is an id + summary + check function over
 * a FileContext, and the driver iterates whatever allRules() returns.
 * Adding a rule means appending one entry and one fixture (see
 * docs/static_analysis.md). Rules never see comments or string
 * contents — the lexer already dropped them — so they cannot be
 * fooled by prose that mentions rand() or `==`.
 *
 * Path-derived exemptions are part of a rule's contract (e.g. util/rng
 * is the one sanctioned randomness source), so FileContext carries the
 * classification flags rather than each rule re-parsing the path.
 */

#ifndef MEMSENSE_LINT_RULES_HH
#define MEMSENSE_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lexer.hh"
#include "symbols.hh"

namespace memsense::lint
{

/** One diagnostic produced by a rule. */
struct Finding
{
    Finding() = default;
    Finding(std::string file_, int line_, std::string rule_,
            std::string message_, std::string symbol_ = "")
        : file(std::move(file_)), line(line_), rule(std::move(rule_)),
          message(std::move(message_)), symbol(std::move(symbol_))
    {
    }

    std::string file;    ///< path as given to the linter
    int line = 0;        ///< 1-based line of the offending token
    std::string rule;    ///< rule id (e.g. "float-equal")
    std::string message; ///< human-readable explanation
    std::string symbol;  ///< enclosing function/symbol ("" = file scope)
};

/** Everything a rule may consult about one source file. */
struct FileContext
{
    std::string path;                    ///< path used in diagnostics
    std::vector<Token> toks;             ///< lexed token stream
    std::map<int, std::string> comments; ///< line -> comment text
    std::set<std::string> floatIdents;   ///< idents declared double/float
    Symbols syms;                        ///< per-file symbol table
    const SymbolIndex *index = nullptr;  ///< cross-file index (may be null)
    bool inHotPath = false; ///< src/sim/ or src/serve/ (perf-critical)
    bool inModelOrSim = false; ///< src/model/ or src/sim/ (contract scope)
    bool rngExempt = false; ///< util/rng.* (sanctioned randomness)
    bool logExempt = false; ///< util/log.* (sanctioned global state)
    bool quarantineExempt = false; ///< util/retry.* / measure/resilience.*
};

/** A project rule: id, one-line summary, and the check itself. */
struct Rule
{
    std::string id;      ///< stable kebab-case id used in allow(...)
    std::string summary; ///< one-line description for --list-rules
    void (*check)(const FileContext &ctx, std::vector<Finding> &out);
};

/** The full rule catalog, in reporting order. */
const std::vector<Rule> &allRules();

/**
 * Build a FileContext (classification flags, float-ident table, symbol
 * table). @p index, when non-null, supplies cross-file signatures and
 * guarded_by annotations from the whole analyzed tree.
 */
FileContext makeContext(const std::string &path, const LexResult &lexed,
                        const SymbolIndex *index = nullptr);

} // namespace memsense::lint

#endif // MEMSENSE_LINT_RULES_HH
