/**
 * @file
 * Tests for the memoizing batch evaluator and the JSON-lines service:
 * cached solves must be bit-identical to the analytic solver, batches
 * must deduplicate and capture per-request failures, and the emitted
 * result stream must be byte-identical across worker counts and cache
 * temperature (the serving determinism contract, docs/serving.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "json_test_support.hh"
#include "model/equivalence.hh"
#include "model/paper_data.hh"
#include "model/sensitivity.hh"
#include "serve/evaluator.hh"
#include "serve/json.hh"
#include "serve/service.hh"
#include "util/fault_injection.hh"
#include "util/rng.hh"

namespace memsense::serve
{
namespace
{

using memsense::testjson::parseJson;

/** Split a result stream into its lines (no trailing blank). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(ServeEvaluator, SolveIsBitIdenticalToAnalyticSolver)
{
    model::Solver solver;
    Evaluator eval;
    model::Platform base = model::Platform::paperBaseline();
    for (const auto &p : model::paper::classParams()) {
        model::OperatingPoint direct = solver.solve(p, base);
        model::OperatingPoint cold = eval.solve(p, base);
        model::OperatingPoint warm = eval.solve(p, base);
        for (const auto &op : {cold, warm}) {
            EXPECT_DOUBLE_EQ(op.cpiEff, direct.cpiEff) << p.name;
            EXPECT_DOUBLE_EQ(op.missPenaltyNs, direct.missPenaltyNs)
                << p.name;
            EXPECT_DOUBLE_EQ(op.queuingDelayNs, direct.queuingDelayNs)
                << p.name;
            EXPECT_DOUBLE_EQ(op.bandwidthTotalBps,
                             direct.bandwidthTotalBps)
                << p.name;
            EXPECT_DOUBLE_EQ(op.utilization, direct.utilization)
                << p.name;
            EXPECT_EQ(op.bandwidthBound, direct.bandwidthBound)
                << p.name;
        }
    }
    CacheStats s = eval.cacheStats();
    EXPECT_EQ(s.inserts, 3u);
    EXPECT_EQ(s.hits, 3u);
}

TEST(ServeEvaluator, BatchDeduplicatesIdenticalRequests)
{
    Evaluator eval;
    model::Platform base = model::Platform::paperBaseline();
    model::WorkloadParams bd =
        model::paper::classParams(model::WorkloadClass::BigData);
    model::WorkloadParams hpc =
        model::paper::classParams(model::WorkloadClass::Hpc);

    std::vector<EvalRequest> batch = {
        {"first", bd, base},
        {"dup-of-first", bd, base},
        {"other", hpc, base},
    };
    auto outcomes = eval.evaluateBatch(batch);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].id, "first");
    EXPECT_EQ(outcomes[1].id, "dup-of-first");
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.result.ok()) << o.id;
    EXPECT_DOUBLE_EQ(outcomes[0].result.value->cpiEff,
                     outcomes[1].result.value->cpiEff);
    // Two unique operating points solved; the duplicate solved zero.
    EXPECT_EQ(eval.cacheStats().inserts, 2u);

    // The same batch again is served entirely from the warm cache.
    auto warm = eval.evaluateBatch(batch);
    EXPECT_EQ(eval.cacheStats().inserts, 2u);
    EXPECT_EQ(eval.cacheStats().hits, 3u);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].cacheHit) << warm[i].id;
        EXPECT_DOUBLE_EQ(warm[i].result.value->cpiEff,
                         outcomes[i].result.value->cpiEff);
    }
}

TEST(ServeEvaluator, AnalyzersProduceIdenticalResultsThroughTheCache)
{
    model::Platform base = model::Platform::paperBaseline();
    model::WorkloadParams bd =
        model::paper::classParams(model::WorkloadClass::BigData);

    model::EquivalenceAnalyzer direct(model::Solver(), base);
    Evaluator eval;
    model::EquivalenceAnalyzer cached(eval, base);

    model::TradeoffSummary a = direct.summarize(bd);
    model::TradeoffSummary b = cached.summarize(bd);
    EXPECT_DOUBLE_EQ(a.baselineCpi, b.baselineCpi);
    EXPECT_DOUBLE_EQ(a.perfGainBandwidthPct, b.perfGainBandwidthPct);
    EXPECT_DOUBLE_EQ(a.perfGainLatencyPct, b.perfGainLatencyPct);
    EXPECT_DOUBLE_EQ(a.bandwidthEquivalentGBps,
                     b.bandwidthEquivalentGBps);
    EXPECT_DOUBLE_EQ(a.latencyEquivalentNs, b.latencyEquivalentNs);
    // The bisections revisit baselines and probe points; the cache
    // must have absorbed some of those repeats.
    EXPECT_GT(eval.cacheStats().hits, 0u);
}

/** The JSON-lines stream the service tests drive. Line 4 is
 *  malformed on purpose; "bad" has an out-of-domain mpki. */
const char *const kRequestStream =
    R"({"id": "a", "workload": {"class": "bigdata"}})"
    "\n"
    R"({"id": "b", "workload": {"class": "hpc"}})"
    "\n"
    R"({"id": "dup-of-a", "workload": {"class": "bigdata"}})"
    "\n"
    "this is not json\n"
    R"({"id": "bad", "workload": {"class": "bigdata", "mpki": -3}})"
    "\n"
    R"({"id": "c", "workload": {"class": "enterprise"},)"
    R"( "platform": {"latency_ns": 95}})"
    "\n";

std::string
runService(int jobs, int repeat)
{
    std::istringstream in(kRequestStream);
    std::ostringstream out;
    ServiceOptions opts;
    opts.eval.jobs = jobs;
    opts.repeat = repeat;
    runEvalService(in, out, opts);
    return out.str();
}

TEST(ServeService, OutputIsByteIdenticalAcrossJobsAndRepeat)
{
    std::string serial = runService(1, 1);
    EXPECT_EQ(serial, runService(8, 1))
        << "worker count changed the result stream";
    EXPECT_EQ(serial, runService(4, 3))
        << "a warm cache changed the result stream";
}

TEST(ServeService, ResultLinesPreserveOrderAndCaptureErrors)
{
    std::istringstream in(kRequestStream);
    std::ostringstream out;
    ServiceSummary summary = runEvalService(in, out, {});

    auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 6u);

    const char *const ids[] = {"a", "b", "dup-of-a", "line-4", "bad",
                               "c"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        auto v = parseJson(lines[i]);
        EXPECT_EQ(v.at("id").str, ids[i]) << "line " << i + 1;
    }

    // The malformed line: a ConfigError result with attempts = 0
    // (it never became a request, so nothing was ever attempted).
    auto malformed = parseJson(lines[3]);
    EXPECT_FALSE(malformed.at("ok").boolean);
    EXPECT_EQ(malformed.at("error").at("type").str, "ConfigError");
    EXPECT_EQ(malformed.at("error").at("attempts").number, 0.0);

    // The out-of-domain request: captured, not thrown, batch intact.
    auto bad = parseJson(lines[4]);
    EXPECT_FALSE(bad.at("ok").boolean);
    EXPECT_EQ(bad.at("error").at("type").str, "ConfigError");

    // Healthy lines carry a full operating point.
    auto ok_line = parseJson(lines[0]);
    EXPECT_TRUE(ok_line.at("ok").boolean);
    EXPECT_GT(ok_line.at("op").at("cpi_eff").number, 0.0);
    EXPECT_GT(ok_line.at("op").at("miss_penalty_ns").number, 0.0);

    // The duplicate of "a" must carry the identical operating point.
    auto dup = parseJson(lines[2]);
    EXPECT_EQ(dup.at("op").at("cpi_eff").number,
              ok_line.at("op").at("cpi_eff").number);

    EXPECT_EQ(summary.lines, 6u);
    EXPECT_EQ(summary.parseErrors, 1u);
    EXPECT_EQ(summary.solved, 4u);
    EXPECT_EQ(summary.failed, 1u);
}

/**
 * A one-char streambuf that flips an atomic flag the moment the Nth
 * newline is served, so the service's between-lines stop poll sees the
 * flag with a deterministic number of lines already ingested — exactly
 * what a signal landing mid-stream looks like to runEvalService().
 */
class FlagAfterLinesBuf : public std::streambuf
{
  public:
    FlagAfterLinesBuf(std::string text_in, int lines,
                      std::atomic<bool> &flag_in)
        : text(std::move(text_in)), linesLeft(lines), flag(flag_in)
    {
    }

  protected:
    int_type
    underflow() override
    {
        if (pos >= text.size())
            return traits_type::eof();
        ch = text[pos++];
        if (ch == '\n' && --linesLeft == 0)
            flag.store(true);
        setg(&ch, &ch, &ch + 1);
        return traits_type::to_int_type(ch);
    }

  private:
    std::string text;
    std::size_t pos = 0;
    char ch = 0;
    int linesLeft;
    std::atomic<bool> &flag;
};

TEST(ServeService, PresetStopFlagInterruptsBeforeReadingAnything)
{
    std::istringstream in(kRequestStream);
    std::ostringstream out;
    ServiceOptions opts;
    std::atomic<bool> stop{true};
    opts.stop = &stop;
    ServiceSummary summary = runEvalService(in, out, opts);
    EXPECT_TRUE(summary.interrupted);
    EXPECT_EQ(summary.lines, 0u);
    EXPECT_EQ(out.str(), "");
}

TEST(ServeService, StopMidStreamFlushesTheIngestedPrefix)
{
    // This is the memsense_eval Ctrl-C contract: stop reading, still
    // evaluate and emit everything ingested before the signal.
    std::atomic<bool> stop{false};
    FlagAfterLinesBuf buf(kRequestStream, 2, stop);
    std::istream in(&buf);
    std::ostringstream out;
    ServiceOptions opts;
    opts.stop = &stop;
    ServiceSummary summary = runEvalService(in, out, opts);
    EXPECT_TRUE(summary.interrupted);
    EXPECT_EQ(summary.lines, 2u);
    auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(parseJson(lines[0]).at("id").str, "a");
    EXPECT_EQ(parseJson(lines[1]).at("id").str, "b");
    EXPECT_EQ(summary.solved, 2u);
}

class EvaluatorFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::reset(); }

    model::Platform base = model::Platform::paperBaseline();
    model::WorkloadParams bd =
        model::paper::classParams(model::WorkloadClass::BigData);
    model::WorkloadParams hpc =
        model::paper::classParams(model::WorkloadClass::Hpc);
};

TEST_F(EvaluatorFaultTest, PersistentSolveFaultIsQuarantinedPerRequest)
{
    Evaluator eval;
    eval.solve(bd, base); // warm the cache before the faults start
    fault::configure("evaluator.solve:throw:nth=1");

    std::vector<EvalRequest> batch = {
        {"cached", bd, base},
        {"cold", hpc, base},
    };
    auto outcomes = eval.evaluateBatch(batch);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].result.ok());
    EXPECT_TRUE(outcomes[0].cacheHit);
    ASSERT_FALSE(outcomes[1].result.ok());
    EXPECT_EQ(outcomes[1].result.failure->errorType, "FaultInjected");
    EXPECT_EQ(outcomes[1].result.attempts, 1);
}

TEST_F(EvaluatorFaultTest, TransientSolveFaultIsRetriedToSuccess)
{
    EvaluatorOptions opts;
    opts.resilience.retry.maxAttempts = 3;
    opts.resilience.retry.baseDelayMs = 1.0;
    Evaluator eval(model::Solver(), opts);
    fault::configure("evaluator.solve:throw:count=1");

    std::vector<EvalRequest> batch = {{"r", bd, base}};
    auto outcomes = eval.evaluateBatch(batch);
    ASSERT_TRUE(outcomes[0].result.ok());
    EXPECT_EQ(outcomes[0].result.attempts, 2);
    EXPECT_EQ(fault::fireCount("evaluator.solve"), 1u);
}

TEST_F(EvaluatorFaultTest, ProbeFaultAbortsTheBatchWithACleanThrow)
{
    // The serial probe pass is unprotected by design: a fault there is
    // a clean typed throw out of evaluateBatch, never a crash.
    Evaluator eval;
    fault::configure("evaluator.probe:throw:nth=1");
    std::vector<EvalRequest> batch = {{"r", bd, base}};
    EXPECT_THROW(eval.evaluateBatch(batch), fault::FaultInjected);
}

TEST_F(EvaluatorFaultTest, InsertFaultAbortsTheCachePassCleanly)
{
    Evaluator eval;
    fault::configure("evaluator.insert:throw:nth=1");
    std::vector<EvalRequest> batch = {{"r", bd, base}};
    EXPECT_THROW(eval.evaluateBatch(batch), fault::FaultInjected);
}

TEST(ServeService, NoResultFieldLeaksCacheState)
{
    // docs/serving.md promises cold and warm result lines are
    // byte-identical, which requires that no serialized field depend
    // on cache state. Check the field inventory of one line.
    std::istringstream in(R"({"id": "x"})" "\n");
    std::ostringstream out;
    runEvalService(in, out, {});
    auto v = parseJson(splitLines(out.str()).at(0));
    EXPECT_EQ(v.object.size(), 3u) << "id, ok, op — nothing else";
    EXPECT_TRUE(v.has("id"));
    EXPECT_TRUE(v.has("ok"));
    EXPECT_TRUE(v.has("op"));
    EXPECT_FALSE(v.has("cache_hit"));
}

// -- jsonNumber / appendJsonNumber: the "%.17g" contract -------------
//
// Every double in a result line goes through appendJsonNumber, and the
// serve golden pins those bytes. The formatter has an exact integer
// path and a std::to_chars(general, 17) fallback; these tests hold both
// to printf("%.17g") bit pattern by bit pattern, so the golden can only
// move when a solver answer does.

std::string
printf17g(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
expectPrintf17g(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::string want = printf17g(v);
    EXPECT_EQ(jsonNumber(v), want) << "bits 0x" << std::hex << bits;
    std::string appended = "x:";
    appendJsonNumber(appended, v);
    EXPECT_EQ(appended, "x:" + want) << "bits 0x" << std::hex << bits;
}

TEST(JsonNumber, MatchesPrintf17gOnEdgeCases)
{
    const double two53 = 9007199254740992.0; // 2^53
    const double edges[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        fromBits(0x000fffffffffffffULL), // largest subnormal
        DBL_MIN,
        -DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        DBL_EPSILON,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        -two53,
        std::nextafter(two53, 0.0),
        std::nextafter(two53, 2.0 * two53),
        1e16,
        1e17,
        123456789012345678.0,
        0.1,
        1.0 / 3.0,
        1.0,
        30.0,
        1e-5,
        1e-4,
        1e21,
        5e-324,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (double v : edges)
        expectPrintf17g(v);
}

TEST(JsonNumber, MatchesPrintf17gOnRandomBitPatterns)
{
    // Uniform bit patterns cover every exponent, both signs,
    // subnormals and NaN payloads; a seeded stream keeps a failure
    // reproducible from the printed bits.
    Rng rng(20151015);
    int mismatches = 0;
    for (int i = 0; i < 200000 && mismatches < 10; ++i) {
        const double v = fromBits(rng.next());
        if (std::isnan(v))
            continue; // printf's NaN sign spelling is libc-specific
        const std::string got = jsonNumber(v);
        if (got != printf17g(v)) {
            ++mismatches;
            expectPrintf17g(v);
        }
    }
    EXPECT_EQ(mismatches, 0);
}

/**
 * Compare @p v against printf("%.17g") without an assertion per value
 * (the loops below check millions); report a mismatch in full and
 * return 1, else 0.
 */
int
mismatchOf(double v)
{
    if (jsonNumber(v) == printf17g(v))
        return 0;
    expectPrintf17g(v);
    return 1;
}

/** mismatchOf() for the @p ulps doubles on each side of @p center and
 *  their negations. */
int
mismatchesAround(double center, int ulps)
{
    int mismatches = 0;
    double up = center;
    double down = center;
    mismatches += mismatchOf(center) + mismatchOf(-center);
    for (int i = 0; i < ulps; ++i) {
        up = std::nextafter(up, std::numeric_limits<double>::infinity());
        down = std::nextafter(down, 0.0);
        mismatches += mismatchOf(up) + mismatchOf(-up) + mismatchOf(down) +
                      mismatchOf(-down);
    }
    return mismatches;
}

// The formatter's exact path covers |v| in (1e-6, 2^53) and falls back
// to to_chars elsewhere; the tests below walk its edges.

TEST(JsonNumber, MatchesPrintf17gAroundEveryPowerOfTen)
{
    // The exact path picks the decade with one compare and scales by
    // 10^(16 - decade): an off-by-one shows right at a power of ten.
    int mismatches = 0;
    for (int e = -7; e <= 17; ++e) {
        const std::string text = "1e" + std::to_string(e);
        mismatches += mismatchesAround(std::strtod(text.c_str(), nullptr),
                                       2000);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, MatchesPrintf17gAroundTwoToThe52And53)
{
    // 2^52 is where the shift that scales the product reaches zero;
    // 2^53 is the exact path's upper edge.
    EXPECT_EQ(mismatchesAround(4503599627370496.0, 2000) +
                  mismatchesAround(9007199254740992.0, 2000),
              0);
}

TEST(JsonNumber, MatchesPrintf17gOnIntegersAndHalvesBelowAMillion)
{
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i)
        mismatches += mismatchOf(i) + mismatchOf(i + 0.5);
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, RoundsExactTiesHalfToEven)
{
    // n * 2^-t has the decimal digits of n * 5^t; with n odd and that
    // product 18 digits long, the 18th digit is a 5 with nothing after
    // it, so the 17-digit rounding is an exact tie.
    EXPECT_EQ(jsonNumber(1000000000000000.25), "1000000000000000.2");
    EXPECT_EQ(jsonNumber(1000000000000000.75), "1000000000000000.8");
    EXPECT_EQ(jsonNumber(-1000000000000001.25), "-1000000000000001.2");
    Rng rng(1815);
    int mismatches = 0;
    int ties = 0;
    std::uint64_t pow5 = 5;
    for (int t = 1; t <= 25; ++t, pow5 *= 5) {
        const std::uint64_t lo =
            (std::uint64_t{100000000000000000} + pow5 - 1) / pow5;
        const std::uint64_t hi =
            std::min((std::uint64_t{1000000000000000000} - 1) / pow5,
                     (std::uint64_t{1} << 53) - 1);
        if (lo > hi)
            continue;
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t n = (lo + rng.nextBounded(hi - lo + 1)) | 1;
            if (n > hi)
                continue;
            const double v = std::ldexp(static_cast<double>(n), -t);
            mismatches += mismatchOf(v) + mismatchOf(-v);
            ++ties;
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_GT(ties, 40000);
}

TEST(JsonNumber, MatchesPrintf17gOnLogUniformValues)
{
    // Uniform in log10 over [1e-7, 1e18): every decade the exact path
    // covers, both neighbours it falls back on, and both signs.
    Rng rng(20151016);
    int mismatches = 0;
    for (int i = 0; i < 3000000 && mismatches < 10; ++i) {
        const double v = std::pow(10.0, -7.0 + 25.0 * rng.nextDouble());
        mismatches += mismatchOf(rng.chance(0.5) ? -v : v);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, ReproducesEveryNumberInTheServeGolden)
{
    // Each number in the golden was written by the serializer; parsing
    // it back and re-serializing must give the same bytes.
    std::ifstream golden(std::string(MEMSENSE_GOLDEN_DIR) +
                         "/serve_eval_50.jsonl");
    ASSERT_TRUE(golden.good());
    std::string line;
    int numbers = 0;
    while (std::getline(golden, line)) {
        for (std::size_t pos = line.find("\":"); pos != std::string::npos;
             pos = line.find("\":", pos + 1)) {
            std::size_t begin = pos + 2;
            std::size_t end = begin;
            while (end < line.size() &&
                   std::strchr("0123456789.eE+-", line[end]) != nullptr &&
                   line[end] != '\0')
                ++end;
            if (end == begin)
                continue; // a string, object or literal member
            const std::string text = line.substr(begin, end - begin);
            const double v = std::strtod(text.c_str(), nullptr);
            EXPECT_EQ(jsonNumber(v), text) << line;
            EXPECT_EQ(printf17g(v), text) << line;
            ++numbers;
        }
    }
    // 50 replies; each ok reply carries 6 doubles plus its iterations.
    EXPECT_GE(numbers, 300);
}

} // anonymous namespace
} // namespace memsense::serve
