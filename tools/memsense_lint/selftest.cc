/**
 * @file
 * Rule-by-rule selftest for memsense-lint.
 *
 * Each rule has a fixture source asserting it fires at the expected
 * sites, plus negative fixtures (suppressions, the util/rng
 * exemption, and an idiomatic clean file) asserting it stays quiet.
 * Fixtures are real files under fixtures/ — never compiled, only
 * linted — so the corpus also documents what each rule means.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline.hh"
#include "lexer.hh"
#include "lint.hh"
#include "sarif.hh"

namespace
{

using memsense::lint::Baseline;
using memsense::lint::Finding;
using memsense::lint::formatFinding;
using memsense::lint::LintOptions;
using memsense::lint::lintFile;
using memsense::lint::lintPaths;
using memsense::lint::parseBaseline;
using memsense::lint::TokKind;
using memsense::lint::tokenize;

std::string
fixture(const std::string &rel)
{
    return std::string(MEMSENSE_LINT_FIXTURE_DIR) + "/" + rel;
}

/** Findings for one fixture with only @p rule enabled. */
std::vector<Finding>
runRule(const std::string &rel, const std::string &rule)
{
    LintOptions opts;
    opts.ruleFilter = {rule};
    return lintFile(fixture(rel), opts);
}

int
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&rule](const Finding &f) { return f.rule == rule; }));
}

TEST(LintSelftest, NoNondeterminismFires)
{
    auto fs = runRule("src/no_nondeterminism.cc", "no-nondeterminism");
    EXPECT_EQ(countRule(fs, "no-nondeterminism"), 5)
        << "random_device, rand, srand, time, steady_clock";
}

TEST(LintSelftest, FloatEqualFires)
{
    auto fs = runRule("src/float_equal.cc", "float-equal");
    EXPECT_EQ(countRule(fs, "float-equal"), 3);
}

TEST(LintSelftest, CStyleCastFires)
{
    auto fs = runRule("src/c_style_cast.cc", "c-style-cast");
    EXPECT_EQ(countRule(fs, "c-style-cast"), 4);
}

TEST(LintSelftest, UnclampedDoubleToIntFires)
{
    auto fs =
        runRule("src/unclamped_double_to_int.cc", "unclamped-double-to-int");
    EXPECT_EQ(countRule(fs, "unclamped-double-to-int"), 2)
        << "the clamped/lround/integer-source casts must not fire";
}

TEST(LintSelftest, MutableGlobalStateFires)
{
    auto fs = runRule("src/mutable_global.cc", "mutable-global-state");
    EXPECT_EQ(countRule(fs, "mutable-global-state"), 3)
        << "two globals and one static local; const/constexpr/functions "
           "must not fire";
}

TEST(LintSelftest, HotLoopAllocFires)
{
    auto fs = runRule("src/sim/hot_loop_alloc.cc", "no-hot-loop-alloc");
    EXPECT_EQ(countRule(fs, "no-hot-loop-alloc"), 4)
        << "unreserved push_back, new-per-iteration, string decl, "
           "to_string; the reserved/reused/straight-line patterns "
           "must not fire";
}

TEST(LintSelftest, HotLoopAllocIsScopedToHotPaths)
{
    auto fs = runRule("src/model/cold_loop_alloc.cc",
                      "no-hot-loop-alloc");
    EXPECT_EQ(countRule(fs, "no-hot-loop-alloc"), 0)
        << "the rule covers src/sim and src/serve only";
}

TEST(LintSelftest, UnitSuffixFires)
{
    auto fs = runRule("src/unit_suffix.cc", "unit-suffix");
    EXPECT_EQ(countRule(fs, "unit-suffix"), 4)
        << "latency, bandwidthTotal, bandwidth param, qdelay local";
}

TEST(LintSelftest, NoBareCatchFires)
{
    auto fs = runRule("src/bare_catch.cc", "no-bare-catch");
    EXPECT_EQ(countRule(fs, "no-bare-catch"), 2)
        << "the swallowing handlers; rethrow / current_exception / "
           "typed catch must not fire";
}

TEST(LintSelftest, SuppressionsSilenceEveryFinding)
{
    auto fs = lintFile(fixture("src/suppressed.cc"));
    EXPECT_TRUE(fs.empty()) << "first leak: "
                            << (fs.empty() ? ""
                                           : formatFinding(fs.front()));
}

TEST(LintSelftest, UtilRngIsExemptFromNondeterminism)
{
    auto fs = lintFile(fixture("src/util/rng.cc"));
    EXPECT_TRUE(fs.empty());
}

TEST(LintSelftest, CleanFileHasNoFindings)
{
    auto fs = lintFile(fixture("src/clean.cc"));
    EXPECT_TRUE(fs.empty()) << "first finding: "
                            << (fs.empty() ? ""
                                           : formatFinding(fs.front()));
}

TEST(LintSelftest, FindingFormatIsGrepable)
{
    auto fs = runRule("src/float_equal.cc", "float-equal");
    ASSERT_FALSE(fs.empty());
    std::string line = memsense::lint::formatFinding(fs.front());
    // file:line: rule: message
    EXPECT_NE(line.find("float_equal.cc:"), std::string::npos);
    EXPECT_NE(line.find(": float-equal: "), std::string::npos);
}

TEST(LintSelftest, JsonReportCarriesCountsAndEscapes)
{
    auto fs = runRule("src/float_equal.cc", "float-equal");
    std::string json = memsense::lint::jsonReport(fs, 1);
    EXPECT_NE(json.find("\"filesScanned\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"float-equal\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
}

TEST(LintSelftest, RuleCatalogIsStable)
{
    // Every rule documented in docs/static_analysis.md exists, keyed
    // by id; adding a rule must extend the fixtures and this list.
    std::vector<std::string> ids;
    for (const auto &r : memsense::lint::allRules())
        ids.push_back(r.id);
    std::vector<std::string> expected = {
        "no-nondeterminism",    "float-equal",
        "c-style-cast",         "unclamped-double-to-int",
        "mutable-global-state", "no-hot-loop-alloc",
        "unit-suffix",          "no-bare-catch",
        "unit-mismatch",        "unguarded-shared-state",
        "contract-coverage",
    };
    EXPECT_EQ(ids, expected);
}

// ------------------------------------------------------------------
// Semantic rules
// ------------------------------------------------------------------

TEST(LintSelftest, UnitMismatchFires)
{
    auto fs = runRule("src/unit_mismatch.cc", "unit-mismatch");
    for (const auto &f : fs)
        SCOPED_TRACE(formatFinding(f));
    EXPECT_EQ(countRule(fs, "unit-mismatch"), 9)
        << "arith x2, cmp x2, assign, compound, return, typed Picos, "
           "subscript; same-unit/literal/conversion/product sites must "
           "not fire";
}

TEST(LintSelftest, UnitMismatchAllowStaysQuiet)
{
    auto fs = runRule("src/unit_mismatch_allow.cc", "unit-mismatch");
    EXPECT_TRUE(fs.empty())
        << "first leak: "
        << (fs.empty() ? "" : formatFinding(fs.front()));
}

TEST(LintSelftest, UnitMismatchChecksCallArgsAcrossFiles)
{
    LintOptions opts;
    opts.ruleFilter = {"unit-mismatch"};
    auto fs = lintPaths({fixture("src/units")}, opts);
    EXPECT_EQ(countRule(fs, "unit-mismatch"), 2)
        << "both swapped arguments of applyPenalty, checked against "
           "the signature declared in timing.hh";
    for (const auto &f : fs)
        EXPECT_NE(f.file.find("callsite.cc"), std::string::npos)
            << formatFinding(f);
}

TEST(LintSelftest, UnguardedSharedStateFiresAcrossSiblingFiles)
{
    LintOptions opts;
    opts.ruleFilter = {"unguarded-shared-state"};
    auto fs = lintPaths({fixture("src/guarded")}, opts);
    ASSERT_EQ(countRule(fs, "unguarded-shared-state"), 2)
        << "entries.push_back and total += in addUnlocked; the locked, "
           "constructor, allow(), and mu.lock() sites must not fire";
    for (const auto &f : fs)
        EXPECT_EQ(f.symbol, "SharedRegistry::addUnlocked")
            << formatFinding(f);
}

TEST(LintSelftest, UnguardedSharedStateWorksSingleFile)
{
    auto fs = runRule("src/guarded_single.cc", "unguarded-shared-state");
    ASSERT_EQ(countRule(fs, "unguarded-shared-state"), 1);
    EXPECT_EQ(fs.front().symbol, "Counter::recordRacy");
}

TEST(LintSelftest, ContractCoverageFires)
{
    auto fs = runRule("src/model/contract_coverage.cc",
                      "contract-coverage");
    ASSERT_EQ(countRule(fs, "contract-coverage"), 2)
        << "uncheckedBlend and PhaseModel::blendNs; contracted, "
           "integer-only, static, and allow() functions must not fire";
    EXPECT_EQ(fs[0].symbol, "uncheckedBlend");
    EXPECT_EQ(fs[1].symbol, "PhaseModel::blendNs");
}

TEST(LintSelftest, ContractCoverageIsScopedToModelAndSim)
{
    auto fs = runRule("src/unit_suffix.cc", "contract-coverage");
    EXPECT_TRUE(fs.empty())
        << "the rule covers src/model and src/sim only";
}

// ------------------------------------------------------------------
// SARIF + baseline
// ------------------------------------------------------------------

TEST(LintSelftest, SarifReportShape)
{
    auto fs = runRule("src/float_equal.cc", "float-equal");
    ASSERT_FALSE(fs.empty());
    std::string s = memsense::lint::sarifReport(fs);
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"memsense-lint\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\": \"float-equal\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\": "), std::string::npos);
    // The full catalog rides along so viewers can show descriptions.
    EXPECT_NE(s.find("\"id\": \"unit-mismatch\""), std::string::npos);
}

TEST(LintSelftest, BaselineRoundTripsAndKeysOnSymbolNotLine)
{
    auto fs = runRule("src/model/contract_coverage.cc",
                      "contract-coverage");
    ASSERT_FALSE(fs.empty());
    Baseline b =
        parseBaseline("inline", memsense::lint::writeBaseline(fs));
    for (const auto &f : fs)
        EXPECT_TRUE(b.covers(f)) << formatFinding(f);

    Finding moved = fs.front();
    moved.line += 500; // unrelated edits shift lines, not coverage
    EXPECT_TRUE(b.covers(moved));

    Finding other_rule = fs.front();
    other_rule.rule = "float-equal";
    EXPECT_FALSE(b.covers(other_rule));

    Finding other_symbol = fs.front();
    other_symbol.symbol = "someOtherFunction";
    EXPECT_FALSE(b.covers(other_symbol));
}

TEST(LintSelftest, BaselinePathsMatchAtSlashBoundary)
{
    Baseline b = parseBaseline(
        "inline",
        "{\"entries\": [{\"rule\": \"float-equal\", "
        "\"file\": \"src/model/solver.cc\", \"symbol\": \"solve\"}]}");
    Finding abs{"/checkout/src/model/solver.cc", 10, "float-equal", "m",
                "solve"};
    EXPECT_TRUE(b.covers(abs));
    Finding partial{"other_src/model/solver.cc", 10, "float-equal", "m",
                    "solve"};
    EXPECT_FALSE(b.covers(partial)) << "suffix must bind at a '/'";
}

TEST(LintSelftest, MalformedBaselineIsAHardError)
{
    EXPECT_THROW(parseBaseline("p", ""), std::runtime_error);
    EXPECT_THROW(parseBaseline("p", "{\"entries\": [{\"rule\": 12}]}"),
                 std::runtime_error);
    EXPECT_THROW(parseBaseline("p", "{\"entries\": []} x"),
                 std::runtime_error);
    EXPECT_THROW(parseBaseline("p", "{\"entries\": [{\"rule\": \"r\"}]}"),
                 std::runtime_error)
        << "entries missing file/symbol keys must not half-load";
    EXPECT_NO_THROW(parseBaseline("p", "{\"entries\": []}"));
}

// ------------------------------------------------------------------
// Driver hard errors
// ------------------------------------------------------------------

TEST(LintSelftest, MissingRootIsAnError)
{
    EXPECT_THROW(lintPaths({fixture("does_not_exist")}),
                 std::runtime_error);
}

TEST(LintSelftest, RootWithNoLintableFilesIsAnError)
{
    namespace fs = std::filesystem;
    fs::path d =
        fs::temp_directory_path() / "memsense_lint_empty_root_test";
    fs::create_directories(d);
    EXPECT_THROW(lintPaths({d.string()}), std::runtime_error)
        << "an empty root passes vacuously; that must be loud";
    fs::remove_all(d);

    LintOptions opts;
    opts.excludes = {"/"};
    EXPECT_THROW(lintPaths({fixture("src")}, opts), std::runtime_error)
        << "excluding every file is the same silent-pass hazard";
}

// ------------------------------------------------------------------
// Lexer regressions
// ------------------------------------------------------------------

TEST(LexerTest, PrefixedRawStringsAreOpaque)
{
    auto lx = tokenize("auto a = u8R\"(a \"quoted\" == b)\";\n"
                       "auto b = LR\"sep(time(0))sep\";\n"
                       "auto c = uR\"(std::rand())\";\n"
                       "auto d = UR\"(x != y)\";\n");
    int strs = 0;
    for (const auto &t : lx.tokens) {
        if (t.kind == TokKind::Str)
            ++strs;
        EXPECT_NE(t.text, "quoted") << "leaked out of a raw string";
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "time");
        EXPECT_NE(t.text, "==");
        EXPECT_NE(t.text, "!=");
    }
    EXPECT_EQ(strs, 4);
}

TEST(LexerTest, UnprefixedIdentifiersStillLexNormally)
{
    auto lx = tokenize("int uR2 = 0; int LRx = R2;");
    std::vector<std::string> idents;
    for (const auto &t : lx.tokens) {
        if (t.kind == TokKind::Ident)
            idents.push_back(t.text);
    }
    std::vector<std::string> expected = {"int", "uR2", "int", "LRx", "R2"};
    EXPECT_EQ(idents, expected);
}

TEST(LexerTest, LineCommentContinuationStaysComment)
{
    auto lx = tokenize("// part one \\\npart two == something\nint x;\n");
    ASSERT_EQ(lx.tokens.size(), 3u)
        << "the spliced second line is comment, not code";
    EXPECT_EQ(lx.tokens[0].text, "int");
    EXPECT_EQ(lx.tokens[0].line, 3);
    EXPECT_NE(lx.comments.count(1), 0u);
    EXPECT_NE(lx.comments.count(2), 0u);
    EXPECT_NE(lx.comments.at(2).find("part two"), std::string::npos);
}

TEST(LexerTest, DigitSeparatorsCollapse)
{
    auto lx = tokenize("long big = 1'000'000; int hex = 0xFF'FF;");
    std::vector<std::string> nums;
    for (const auto &t : lx.tokens) {
        if (t.kind == TokKind::Number)
            nums.push_back(t.text);
    }
    std::vector<std::string> expected = {"1000000", "0xFFFF"};
    EXPECT_EQ(nums, expected);
}

TEST(LexerTest, SeparatorQuoteRequiresFollowingAlnum)
{
    // A quote after a digit that does not introduce another digit
    // group ends the number instead of being swallowed into it.
    auto lx = tokenize("int a = 1'';");
    ASSERT_GE(lx.tokens.size(), 4u);
    EXPECT_EQ(lx.tokens[3].kind, TokKind::Number);
    EXPECT_EQ(lx.tokens[3].text, "1");
    EXPECT_EQ(lx.tokens[4].kind, TokKind::Chr);
}

} // anonymous namespace
