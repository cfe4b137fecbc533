/**
 * @file
 * Differential tests of the request decoder.
 *
 * parseRequestLine decodes a line in one pass, straight into an
 * EvalRequest. Before it did, it parsed the line into a JsonValue tree
 * and read each field with has()/at(); that extraction is kept here as
 * the reference. On every fixture line, on membench-shaped sweep lines
 * and on a million seeded mutations of them, both must give the same
 * request bit for bit, or throw the same exception type with the same
 * what() text.
 *
 * Both paths share one JSON grammar, so the mutation run also checks
 * what the grammar promises without a second opinion: every string the
 * decoder accepts is valid UTF-8, and the run reaches each class of
 * hostile-byte rejection.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "model/paper_data.hh"
#include "serve/json.hh"
#include "serve/request.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "util/string_util.hh"

namespace memsense::serve
{
namespace
{

// -- the reference: the tree extraction ------------------------------

model::WorkloadClass
referenceClass(const std::string &cls)
{
    const std::string lc = toLower(cls);
    if (lc == "bigdata")
        return model::WorkloadClass::BigData;
    if (lc == "enterprise")
        return model::WorkloadClass::Enterprise;
    if (lc == "hpc")
        return model::WorkloadClass::Hpc;
    throw ConfigError("workload class must be bigdata, enterprise, or "
                      "hpc (got '" +
                      cls + "')");
}

EvalRequest
referenceParse(const std::string &line, std::size_t line_number)
{
    const JsonValue v = parseJson(line);
    requireConfig(v.kind == JsonValue::Kind::Object,
                  "request line must be a JSON object");
    EvalRequest req;
    if (v.has("id"))
        req.id = v.at("id").asString("id");
    else
        req.id = "line-" + std::to_string(line_number);
    model::WorkloadClass cls = model::WorkloadClass::BigData;
    const JsonValue *w = v.has("workload") ? &v.at("workload") : nullptr;
    if (w != nullptr && w->has("class"))
        cls = referenceClass(w->at("class").asString("workload.class"));
    req.workload = model::paper::classParams(cls);
    if (w != nullptr) {
        model::WorkloadParams &p = req.workload;
        auto num = [w](const char *key, const char *what, double &out) {
            if (w->has(key))
                out = w->at(key).asNumber(what);
        };
        if (w->has("name"))
            p.name = w->at("name").asString("workload.name");
        num("cpi_cache", "workload.cpi_cache", p.cpiCache);
        num("bf", "workload.bf", p.bf);
        num("mpki", "workload.mpki", p.mpki);
        num("wbr", "workload.wbr", p.wbr);
        num("iopi", "workload.iopi", p.iopi);
        num("io_bytes", "workload.io_bytes", p.ioBytes);
    }
    if (v.has("platform")) {
        const JsonValue &pl = v.at("platform");
        model::Platform &plat = req.platform;
        auto num = [&pl](const char *key, const char *what, double &out) {
            if (pl.has(key))
                out = pl.at(key).asNumber(what);
        };
        auto integer = [&pl](const char *key, const char *what, int &out) {
            if (pl.has(key))
                out = pl.at(key).asInt(what);
        };
        integer("cores", "platform.cores", plat.cores);
        integer("smt", "platform.smt", plat.smt);
        num("ghz", "platform.ghz", plat.ghz);
        integer("channels", "platform.channels", plat.memory.channels);
        num("speed_mts", "platform.speed_mts", plat.memory.megaTransfers);
        num("efficiency", "platform.efficiency", plat.memory.efficiency);
        num("latency_ns", "platform.latency_ns", plat.memory.compulsoryNs);
    }
    if (v.has("deadline_ms")) {
        req.deadlineMs = v.at("deadline_ms").asNumber("deadline_ms");
        requireConfig(req.deadlineMs >= 0.0, "deadline_ms must be >= 0");
    }
    if (v.has("allow_stale")) {
        const JsonValue &stale = v.at("allow_stale");
        requireConfig(stale.kind == JsonValue::Kind::Bool,
                      "allow_stale must be a boolean");
        req.allowStale = stale.boolean;
    }
    return req;
}

// -- comparing outcomes ----------------------------------------------

/** A parse's outcome as comparable text: every field bit for bit, or
 *  the exception's type and what(). */
struct Outcome
{
    bool ok = false;
    std::string text;
};

std::string
hexBits(double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

std::string
describe(const EvalRequest &r)
{
    const model::WorkloadParams &w = r.workload;
    const model::Platform &p = r.platform;
    std::string out = "id=" + r.id + " name=" + w.name +
                      " cls=" + std::to_string(static_cast<int>(w.cls));
    for (double v : {w.cpiCache, w.bf, w.mpki, w.wbr, w.iopi, w.ioBytes,
                     p.ghz, p.memory.megaTransfers, p.memory.efficiency,
                     p.memory.compulsoryNs, r.deadlineMs})
        out += " " + hexBits(v);
    for (int v : {p.cores, p.smt, p.memory.channels})
        out += " " + std::to_string(v);
    out += r.allowStale ? " stale" : " fresh";
    return out;
}

template <typename Parse>
Outcome
outcomeOf(Parse &&parse)
{
    try {
        return {true, describe(parse())};
    } catch (const std::exception &e) {
        return {false, std::string(typeid(e).name()) + ": " + e.what()};
    }
}

Outcome
decoded(const std::string &line, std::size_t n)
{
    return outcomeOf([&] { return parseRequestLine(line, n); });
}

Outcome
reference(const std::string &line, std::size_t n)
{
    return outcomeOf([&] { return referenceParse(line, n); });
}

/** Valid UTF-8 by the rules the parser enforces, checked from scratch. */
bool
validUtf8(std::string_view s)
{
    for (std::size_t i = 0; i < s.size();) {
        const auto b = static_cast<unsigned char>(s[i]);
        std::size_t len = 1;
        std::uint32_t cp = b;
        if (b >= 0xf0 && b <= 0xf4) {
            len = 4;
            cp = b & 0x07u;
        } else if (b >= 0xe0 && b < 0xf0) {
            len = 3;
            cp = b & 0x0fu;
        } else if (b >= 0xc2 && b < 0xe0) {
            len = 2;
            cp = b & 0x1fu;
        } else if (b >= 0x80) {
            return false;
        }
        if (i + len > s.size())
            return false;
        for (std::size_t k = 1; k < len; ++k) {
            const auto c = static_cast<unsigned char>(s[i + k]);
            if ((c & 0xc0) != 0x80)
                return false;
            cp = (cp << 6) | (c & 0x3fu);
        }
        if ((len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000) ||
            (cp >= 0xd800 && cp <= 0xdfff) || cp > 0x10ffff)
            return false;
        i += len;
    }
    return true;
}

// -- the corpus ------------------------------------------------------

std::vector<std::string>
fixtureLines()
{
    std::ifstream in(MEMSENSE_SERVE_FIXTURE);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Lines shaped as membench sends them: a short id, a class preset and
 *  all five platform fields printed with "%.6g". */
std::vector<std::string>
sweepLines()
{
    const char *classes[] = {"bigdata", "enterprise", "hpc"};
    std::vector<std::string> lines;
    Rng rng(1507);
    char buf[256];
    for (int i = 0; i < 300; ++i) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"id\":\"%c%d\",\"workload\":{\"class\":\"%s\"},\"platform\":"
            "{\"cores\":%.6g,\"ghz\":%.6g,\"channels\":%.6g,"
            "\"speed_mts\":%.6g,\"latency_ns\":%.6g}}",
            i % 2 == 0 ? 'h' : 'c', i, classes[i % 3],
            static_cast<double>(2 + rng.nextBounded(31)),
            1.2 + 0.05 * static_cast<double>(rng.nextBounded(40)),
            static_cast<double>(1 + rng.nextBounded(8)),
            800.0 + 66.7 * static_cast<double>(rng.nextBounded(40)),
            40.0 + 2.5 * static_cast<double>(rng.nextBounded(60)));
        lines.emplace_back(buf);
    }
    return lines;
}

/** Hand-written lines that reach every field, every field error and
 *  the schema's corner cases, so mutations start near each of them. */
std::vector<std::string>
edgeLines()
{
    return {
        R"({"id":"all","workload":{"class":"HPC","name":"n","cpi_cache":1.1,"bf":0.3,"mpki":9,"wbr":0.5,"iopi":0.001,"io_bytes":4096},"platform":{"cores":16,"smt":1,"ghz":3.1,"channels":6,"speed_mts":2400,"efficiency":0.8,"latency_ns":90},"deadline_ms":12.5,"allow_stale":false})",
        R"({"id":"dup","id":"second","workload":{"class":"hpc"},"workload":{"class":"enterprise"},"platform":{"cores":4,"cores":"x"}})",
        R"({"workload":{"class":"hpc","class":5,"name":"a","name":"b"},"platform":{"ghz":2.0,"ghz":[1]}})",
        R"({"id":5,"workload":{"class":"nope"},"platform":{"cores":"8"}})",
        R"({"platform":{"cores":8.5,"smt":1e10,"channels":-3e9},"deadline_ms":-1})",
        R"({"platform":5,"workload":[1,2],"deadline_ms":"soon","allow_stale":1})",
        R"({"platform":null,"workload":"bigdata","allow_stale":true})",
        R"({"workload":{"class":"bigdata","cpi_cache":"x","bf":null,"mpki":{},"wbr":[],"iopi":true,"io_bytes":"1"}})",
        R"({"unknown":{"deep":[1,{"x":[true,false,null]}],"s":"A\n"},"id":"u"})",
        R"({"id":"escaped-key","workload":{"class":"enterprise"},"platform":{"latency_ns":1e2}})",
        R"({"id":"café"})",
        "{\"id\":\"caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80\",\"workload\":{\"name\":\"\xC3\xA9\"}}",
        R"({"id":"esc\"\\\/\b\f\n\r\t","workload":{"name":"tab\tname"}})",
        R"({"platform":{"cores":2147483647,"smt":-2147483648,"channels":2147483648}})",
        R"({"platform":{"speed_mts":1e400}})",
        R"({"deadline_ms":0,"deadline_ms":-5,"allow_stale":false,"allow_stale":"x"})",
        R"([{"id":"array-doc"}])",
        R"("just a string")",
        R"({})",
        R"(  {"id" : "spaced" , "workload" : { "class" : "hpc" } }  )",
        R"({"id":"trailing"} x)",
        R"({"id":"a-very-long-request-identifier-0001","workload":{"name":"a-long-workload-name-here"}})",
        R"({"workload":{"class":"hpc"},"workload":5,"platform":{},"platform":{"cores":1}})",
    };
}

constexpr std::size_t kLineNumber = 7;

void
expectSameOutcome(const std::string &line)
{
    const Outcome got = decoded(line, kLineNumber);
    const Outcome want = reference(line, kLineNumber);
    EXPECT_EQ(got.ok, want.ok) << line;
    EXPECT_EQ(got.text, want.text) << line;
}

TEST(RequestDecode, MatchesTheTreeExtractionOnTheFixture)
{
    const std::vector<std::string> lines = fixtureLines();
    ASSERT_GE(lines.size(), 50u);
    for (const std::string &line : lines)
        expectSameOutcome(line);
}

TEST(RequestDecode, MatchesTheTreeExtractionOnSweepLines)
{
    for (const std::string &line : sweepLines()) {
        expectSameOutcome(line);
        EXPECT_TRUE(decoded(line, 1).ok) << line;
    }
}

TEST(RequestDecode, MatchesTheTreeExtractionOnEdgeLines)
{
    for (const std::string &line : edgeLines())
        expectSameOutcome(line);
}

// -- the semantics, one by one -----------------------------------------

std::string
errorOf(const std::string &line)
{
    try {
        parseRequestLine(line, 1);
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

TEST(RequestDecode, FirstOccurrenceWins)
{
    const EvalRequest r = parseRequestLine(
        R"({"id":"a","id":"b","workload":{"class":"hpc"},)"
        R"("workload":{"class":"enterprise"},)"
        R"("platform":{"cores":4,"cores":"x"}})",
        1);
    EXPECT_EQ(r.id, "a");
    EXPECT_EQ(r.workload.cls, model::WorkloadClass::Hpc);
    EXPECT_EQ(r.platform.cores, 4);
}

TEST(RequestDecode, NonObjectSectionsMeanDefaults)
{
    const EvalRequest want = parseRequestLine("{}", 1);
    for (const char *value : {"5", "null", "true", "\"x\"", "[1]"}) {
        const std::string line = std::string("{\"workload\":") + value +
                                 ",\"platform\":" + value + "}";
        EXPECT_EQ(describe(parseRequestLine(line, 1)), describe(want))
            << line;
    }
}

TEST(RequestDecode, UnknownMembersAreValidatedThenSkipped)
{
    EXPECT_NO_THROW(parseRequestLine(R"({"x":{"y":[1,"A"]}})", 1));
    EXPECT_NE(errorOf("{\"x\":\"\xC0\xAF\"}").find("overlong UTF-8"),
              std::string::npos);
    EXPECT_NE(errorOf(R"({"platform":{"x":[1,]}})").find("JSON parse error"),
              std::string::npos);
}

TEST(RequestDecode, SyntaxErrorWinsOverFieldError)
{
    EXPECT_NE(errorOf(R"({"id":5,"workload":{"class":"hpc"} x)")
                  .find("JSON parse error"),
              std::string::npos);
    EXPECT_NE(errorOf(R"({"platform":7,"id":5,"deadline_ms":1e999})")
                  .find("malformed number"),
              std::string::npos);
}

TEST(RequestDecode, FieldErrorsComeInSchemaOrder)
{
    // Named in reverse order; the id's error still comes first.
    EXPECT_NE(errorOf(R"({"allow_stale":1,"deadline_ms":"x",)"
                      R"("platform":{"latency_ns":"x","cores":"x"},)"
                      R"("workload":{"bf":"x","class":5},"id":5})")
                  .find("id must be a string"),
              std::string::npos);
    EXPECT_NE(errorOf(R"({"platform":{"latency_ns":"x","cores":1.5},)"
                      R"("workload":{"io_bytes":"x","name":5}})")
                  .find("workload.name must be a string"),
              std::string::npos);
    EXPECT_NE(errorOf(R"({"allow_stale":1,"platform":{"latency_ns":"x",)"
                      R"("cores":1.5}})")
                  .find("platform.cores must be a whole number"),
              std::string::npos);
    EXPECT_NE(errorOf(R"({"allow_stale":1,"deadline_ms":-1})")
                  .find("deadline_ms must be >= 0"),
              std::string::npos);
}

// -- seeded mutations ------------------------------------------------

/** Bytes a mutation inserts or writes: JSON punctuation, digits,
 *  letters of the literals, escapes, and bytes of 0x80 and above. */
constexpr std::string_view kAlphabet =
    "{}[]\":,\\/ \t\n-+.0123456789eEtrufalsnbu"
    "\x80\xA9\xBF\xC0\xC3\xE2\x82\xAC\xED\xA0\xF0\x9F\xF4\x90\xFF";

/** Whole tokens a mutation may write: keys of every section, values
 *  of every kind, escapes, and multi-byte characters. */
const std::vector<std::string> &
tokens()
{
    static const std::vector<std::string> kTokens = {
        "\"id\"", "\"workload\"", "\"platform\"", "\"deadline_ms\"",
        "\"allow_stale\"", "\"class\"", "\"name\"", "\"cpi_cache\"",
        "\"bf\"", "\"cores\"", "\"smt\"", "\"ghz\"", "\"channels\"",
        "\"latency_ns\"", "\"hpc\"", "\"Enterprise\"", "5", "-1", "2.5",
        "1e400", "0.5e-3", "2147483648", "true", "false", "null", "{}",
        "[]", "{\"cores\":8}", "[1,{\"a\":2}]", "\\u0041", "\\u00e9",
        "\\x", "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80", ",", ":",
    };
    return kTokens;
}

std::string
mutate(const std::vector<std::string> &corpus, Rng &rng)
{
    std::string s = corpus[rng.nextBounded(corpus.size())];
    const std::uint64_t edits = 1 + rng.nextBounded(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t at = rng.nextBounded(s.size() + 1);
        switch (rng.nextBounded(6)) {
        case 0: // replace a byte
            if (at < s.size())
                s[at] = kAlphabet[rng.nextBounded(kAlphabet.size())];
            break;
        case 1: // insert a byte
            s.insert(at, 1, kAlphabet[rng.nextBounded(kAlphabet.size())]);
            break;
        case 2: // delete a run of bytes
            s.erase(at, 1 + rng.nextBounded(4));
            break;
        case 3: { // write a token over a run, or between bytes
            const std::string &t = tokens()[rng.nextBounded(tokens().size())];
            s.replace(at, rng.nextBounded(6), t);
            break;
        }
        default: { // splice in part of another line
            const std::string &other = corpus[rng.nextBounded(corpus.size())];
            const std::size_t from = rng.nextBounded(other.size());
            const std::size_t len = 1 + rng.nextBounded(40);
            s.replace(at, rng.nextBounded(8), other.substr(from, len));
            break;
        }
        }
    }
    return s;
}

TEST(RequestDecode, MatchesTheTreeExtractionOnSeededMutations)
{
    std::vector<std::string> corpus = fixtureLines();
    for (const std::string &l : sweepLines())
        corpus.push_back(l);
    for (const std::string &l : edgeLines())
        corpus.push_back(l);

    // Rejections the run must reach, by a fragment of their text.
    std::map<std::string, std::size_t> reached = {
        {"invalid UTF-8 lead byte", 0},
        {"truncated UTF-8 sequence", 0},
        {"overlong UTF-8 encoding", 0},
        {"bad escape", 0},
        {"unterminated string", 0},
        {"malformed number", 0},
        {"trailing content", 0},
        {"request line must be a JSON object", 0},
        {"id must be a string", 0},
        {"workload.class must be a string", 0},
        {"workload class must be", 0},
        {"platform.cores must be a number", 0},
        {"must be a whole number", 0},
        {"is out of integer range", 0},
        {"deadline_ms must be >= 0", 0},
        {"allow_stale must be a boolean", 0},
    };
    Rng rng(20151015);
    constexpr std::size_t kMutations = 1000000;
    std::size_t ok = 0;
    std::size_t mismatches = 0;
    std::size_t bad_utf8 = 0;
    for (std::size_t i = 0; i < kMutations; ++i) {
        const std::string line = mutate(corpus, rng);
        const Outcome got = decoded(line, kLineNumber);
        const Outcome want = reference(line, kLineNumber);
        if (got.ok != want.ok || got.text != want.text) {
            if (mismatches++ < 5)
                ADD_FAILURE() << "mutation " << i << ": " << line
                              << "\n  decoded:   " << got.text
                              << "\n  reference: " << want.text;
            continue;
        }
        if (got.ok) {
            ++ok;
            if (!validUtf8(got.text) && bad_utf8++ < 5)
                ADD_FAILURE() << "accepted invalid UTF-8: " << line;
            continue;
        }
        for (auto &[fragment, count] : reached)
            if (got.text.find(fragment) != std::string::npos)
                ++count;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(bad_utf8, 0u);
    // Neither outcome may starve the other.
    EXPECT_GT(ok, kMutations / 20);
    EXPECT_LT(ok, kMutations - kMutations / 20);
    for (const auto &[fragment, count] : reached)
        EXPECT_GT(count, 0u) << "no mutation reached \"" << fragment << "\"";
}

} // anonymous namespace
} // namespace memsense::serve
