#include "serve/json.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "serve/json_reader.hh"
#include "util/contract.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"

namespace memsense::serve
{

// -- JsonReader: the parts that stay out of line ---------------------

void
JsonReader::fail(const std::string &what) const
{
    throw ParseError("JSON parse error at byte " + std::to_string(pos) +
                     ": " + what);
}

void
JsonReader::failOversized() const
{
    fail("input of " + std::to_string(in.size()) + " bytes exceeds the " +
         std::to_string(limits.maxBytes) + "-byte cap");
}

void
JsonReader::failTooDeep() const
{
    fail("nesting deeper than " + std::to_string(limits.maxDepth) +
         " levels");
}

void
JsonReader::failExpected(char c) const
{
    fail(std::string("expected '") + c + "', got '" + peek() + "'");
}

void
JsonReader::failUnexpected(char c) const
{
    fail(std::string("unexpected character '") + c + "'");
}

char
JsonReader::escape()
{
    if (pos >= in.size())
        fail("unterminated escape");
    const char esc = in[pos++];
    switch (esc) {
    case '"': return '"';
    case '\\': return '\\';
    case '/': return '/';
    case 'b': return '\b';
    case 'f': return '\f';
    case 'n': return '\n';
    case 'r': return '\r';
    case 't': return '\t';
    case 'u': {
        // Pass \uXXXX through for ASCII; reject the rest rather than
        // mis-decode (the request schema never needs non-ASCII keys or
        // ids).
        if (pos + 4 > in.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = in[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        if (code > 0x7f)
            fail("non-ASCII \\u escape unsupported");
        return static_cast<char>(code);
    }
    default:
        fail(std::string("bad escape '\\") + esc + "'");
    }
}

/**
 * Rejects truncated tails, bare continuation bytes, overlong
 * encodings, surrogates, and code points past U+10FFFF: hostile bytes
 * must become a clean ParseError, not mojibake echoed back into a
 * reply stream.
 */
void
JsonReader::skipUtf8()
{
    const unsigned char lead = static_cast<unsigned char>(in[pos]);
    int extra = 0;
    unsigned code = 0;
    if ((lead & 0xe0) == 0xc0) {
        extra = 1;
        code = lead & 0x1fu;
    } else if ((lead & 0xf0) == 0xe0) {
        extra = 2;
        code = lead & 0x0fu;
    } else if ((lead & 0xf8) == 0xf0) {
        extra = 3;
        code = lead & 0x07u;
    } else {
        fail("invalid UTF-8 lead byte");
    }
    if (pos + 1 + static_cast<std::size_t>(extra) > in.size())
        fail("truncated UTF-8 sequence");
    for (int i = 1; i <= extra; ++i) {
        const unsigned char cont =
            static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]);
        if ((cont & 0xc0) != 0x80)
            fail("truncated UTF-8 sequence");
        code = (code << 6) | (cont & 0x3fu);
    }
    static constexpr unsigned kMinForLen[4] = {0, 0x80, 0x800, 0x10000};
    if (code < kMinForLen[extra])
        fail("overlong UTF-8 encoding");
    if (code >= 0xd800 && code <= 0xdfff)
        fail("UTF-8 encoded surrogate");
    if (code > 0x10ffff)
        fail("UTF-8 code point out of range");
    pos += 1 + static_cast<std::size_t>(extra);
}

double
JsonReader::number()
{
    const std::size_t start = pos;
    if (peek() == '-')
        ++pos;
    while (pos < in.size() &&
           ((in[pos] >= '0' && in[pos] <= '9') || in[pos] == '.' ||
            in[pos] == 'e' || in[pos] == 'E' || in[pos] == '+' ||
            in[pos] == '-'))
        ++pos;
    const std::string_view text = in.substr(start, pos - start);
    // Fast path: from_chars accepts the same digit grammar as strtod
    // over this alphabet and rounds correctly, as strtod does, so a
    // whole-word success is strtod's value. Anything else (a malformed
    // word, overflow, underflow) takes strtod, whose verdict and error
    // text stay the reference.
    double v = 0.0;
    const std::from_chars_result r =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (r.ec != std::errc() || r.ptr != text.data() + text.size() ||
        !std::isfinite(v)) {
        const std::string word(text);
        char *end = nullptr;
        v = std::strtod(word.c_str(), &end);
        if (end != word.c_str() + word.size() || !std::isfinite(v)) {
            pos = start;
            fail("malformed number '" + word + "'");
        }
    }
    return v;
}

namespace
{

/** parseJson's consumer of the grammar: builds the JsonValue tree. */
class TreeBuilder
{
  public:
    explicit TreeBuilder(JsonReader &reader_in)
        : reader(reader_in)
    {}

    JsonValue
    value()
    {
        JsonValue v;
        reader.value(Node{*this, v});
        return v;
    }

  private:
    /** Visitor that fills one JsonValue. A tree's output is its
     *  allocation: every string, member and element lives in the
     *  returned document, bounded by the input's size. */
    struct Node
    {
        TreeBuilder &b;
        JsonValue &out;

        void object(JsonReader &) { b.object(out); }
        void
        array(JsonReader &r)
        {
            out.kind = JsonValue::Kind::Array;
            r.array([this] { out.items.push_back(b.value()); });
        }
        void
        string(JsonReader &r)
        {
            out.kind = JsonValue::Kind::String;
            r.string(out.text);
        }
        void
        boolean(bool flag)
        {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = flag;
        }
        void null() {}
        void
        number(double num)
        {
            out.kind = JsonValue::Kind::Number;
            out.number = num;
        }
    };

    void
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        // Members collect on the parse-wide scratch stack (a nested
        // object pushes above this one's and pops back to its own
        // base), then move into a vector reserved to the exact count:
        // one member-array allocation per object, no regrowth, and no
        // slack a hostile line of tiny objects could multiply.
        const std::size_t base = scratch.size();
        std::string key;
        reader.object(key, [this](std::string &name) {
            JsonValue member = value();
            if (scratch.capacity() == 0)
                scratch.reserve(kScratchMembers);
            scratch.emplace_back(std::move(name), std::move(member));
        });
        const auto first =
            scratch.begin() + static_cast<std::ptrdiff_t>(base);
        out.members.assign(std::make_move_iterator(first),
                           std::make_move_iterator(scratch.end()));
        scratch.erase(first, scratch.end());
    }

    /** Scratch entries reserved per parse: 8 entries (1 KiB) stay
     *  small enough for the allocator's per-thread cache; a document
     *  with more members open at once regrows it. */
    static constexpr std::size_t kScratchMembers = 8;

    JsonReader &reader;
    /** Members of the objects being parsed, innermost last. */
    std::vector<std::pair<std::string, JsonValue>> scratch;
};

} // anonymous namespace

void
throwWrongKind(std::string_view what, std::string_view kind)
{
    throw ConfigError(std::string(what) + " must be a " + std::string(kind));
}

int
jsonInt(double v, std::string_view what)
{
    if (!(v >= -2147483648.0 && v <= 2147483647.0))
        throw ConfigError(std::string(what) + " is out of integer range");
    // memsense-lint: allow(unclamped-double-to-int): range-checked above
    int i = static_cast<int>(v);
    // memsense-lint: allow(float-equal): exact integrality check
    if (static_cast<double>(i) != v)
        throw ConfigError(std::string(what) + " must be a whole number");
    return i;
}

bool
JsonValue::has(std::string_view key) const
{
    if (kind != Kind::Object)
        return false;
    for (const auto &m : members) {
        if (m.first == key)
            return true;
    }
    return false;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    if (kind != Kind::Object)
        throw ConfigError("JSON value is not an object (looking up '" +
                          std::string(key) + "')");
    for (const auto &m : members) {
        if (m.first == key)
            return m.second;
    }
    throw ConfigError("missing JSON member '" + std::string(key) + "'");
}

double
JsonValue::asNumber(std::string_view what) const
{
    if (kind != Kind::Number)
        throwWrongKind(what, "number");
    return number;
}

const std::string &
JsonValue::asString(std::string_view what) const
{
    if (kind != Kind::String)
        throwWrongKind(what, "string");
    return text;
}

int
JsonValue::asInt(std::string_view what) const
{
    return jsonInt(asNumber(what), what);
}

JsonValue
parseJson(std::string_view text, const JsonLimits &limits)
{
    // Fault site for the serving chaos harness: a throw here must
    // surface as one per-line error reply, never a crashed batch or a
    // dropped request.
    MS_FAULT_POINT("serve.json.parse");
    JsonReader reader(text, limits);
    reader.open();
    JsonValue v = TreeBuilder(reader).value();
    reader.close();
    return v;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

namespace
{

/** "00" to "99", two characters per entry. */
struct DigitPairs
{
    char text[200];
};

constexpr DigitPairs
makeDigitPairs()
{
    DigitPairs t{};
    for (int i = 0; i < 100; ++i) {
        t.text[2 * i] = static_cast<char>('0' + i / 10);
        t.text[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return t;
}

constexpr DigitPairs kDigitPairs = makeDigitPairs();

/** 10^k for k in [0, 22], the scales the exact path multiplies by. */
struct Pow10Table
{
    __uint128_t at[23];
};

constexpr Pow10Table
makePow10Table()
{
    Pow10Table t{};
    __uint128_t p = 1;
    for (__uint128_t &entry : t.at) {
        entry = p;
        p *= 10;
    }
    return t;
}

constexpr Pow10Table kPow10 = makePow10Table();

/**
 * kDecadeStart[x + 6] is the least double >= 10^x, for x in [-6, 16].
 * 1e-5 to 1e-1 round up from their powers of ten and 1e0 to 1e16 are
 * exact, so `a >= kDecadeStart[x + 6]` is `a >= 10^x` exactly; 1e-6
 * rounds down, but the exact path only sees a > 1e-6 and never needs
 * that compare to be exact.
 */
constexpr double kDecadeStart[23] = {
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0,  1e1,  1e2,  1e3,  1e4, 1e5,
    1e6,  1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
};

constexpr std::uint64_t kTen8 = 100000000;
constexpr std::uint64_t kTen16 = 10000000000000000;
constexpr std::uint64_t kTen17 = 100000000000000000;

/** Write @p v (< 10^8) as exactly eight digits at @p p. */
void
writeEightDigits(char *p, std::uint64_t v)
{
    const std::uint64_t hi = v / 10000;
    const std::uint64_t lo = v % 10000;
    std::memcpy(p, kDigitPairs.text + 2 * (hi / 100), 2);
    std::memcpy(p + 2, kDigitPairs.text + 2 * (hi % 100), 2);
    std::memcpy(p + 4, kDigitPairs.text + 2 * (lo / 100), 2);
    std::memcpy(p + 6, kDigitPairs.text + 2 * (lo % 100), 2);
}

/**
 * Write "%.17g" of @p v at @p p (which has room for 48 bytes) and
 * return the end, for |v| in (1e-6, 2^53); return nullptr for every
 * other value.
 *
 * There |v| = m / 2^s with m < 2^53 and s <= 72, and with
 * x = floor(log10 |v|) in [-6, 15] its 17 significant digits are
 * D = m * 10^k / 2^s for k = 16 - x, rounded half to even, as printf
 * rounds. m * 10^k < 2^53 * 10^22 < 2^127, so one 128-bit product is
 * exact, and the bits the shift drops decide the rounding exactly.
 */
char *
writeExact17(char *p, double v)
{
    const double mag = std::fabs(v);
    if (!(mag > 1e-6 && mag < 0x1p53))
        return nullptr;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int binExp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
    const int s = 52 - binExp;
    // 2^binExp <= |v| < 2^(binExp + 1) puts x at floor(binExp * log10 2)
    // (the shift computes that exactly for |binExp| < 1650) or one more.
    int x = (binExp * 78913) >> 18;
    if (mag >= kDecadeStart[x + 7])
        ++x;
    const __uint128_t product =
        static_cast<__uint128_t>(m) * kPow10.at[16 - x];
    auto digits = static_cast<std::uint64_t>(product >> s);
    if (s > 0) {
        const __uint128_t one = 1;
        const __uint128_t dropped = product & ((one << s) - 1);
        const __uint128_t half = one << (s - 1);
        if (dropped > half || (dropped == half && (digits & 1) != 0))
            ++digits;
    }
    if (digits == kTen17) { // rounded up into the next decade
        digits = kTen16;
        ++x;
    }

    // The 17 digits, then zeros, so the fixed-size copies below may
    // read past the last digit.
    char d[33] = {};
    d[0] = static_cast<char>('0' + digits / kTen16);
    writeEightDigits(d + 1, digits % kTen16 / kTen8);
    writeEightDigits(d + 9, digits % kTen8);
    std::size_t n = 17; // significant digits after dropping zeros
    while (d[n - 1] == '0')
        --n;

    // Every copy moves a fixed-size block, which compiles to a few
    // stores; past the returned end they leave bytes the caller drops.
    if ((bits >> 63) != 0)
        *p++ = '-';
    if (x < -4) { // d.ddde-0x
        p[0] = d[0];
        p[1] = '.';
        std::memcpy(p + 2, d + 1, 16);
        p += n > 1 ? n + 1 : 1;
        std::memcpy(p, "e-0", 3);
        p[3] = static_cast<char>('0' - x);
        return p + 4;
    }
    if (x < 0) { // 0.000ddd
        const auto lead = static_cast<std::size_t>(1 - x);
        std::memcpy(p, "0.000", 5);
        std::memcpy(p + lead, d, 17);
        return p + lead + n;
    }
    const auto whole = static_cast<std::size_t>(x + 1);
    std::memcpy(p, d, 17);
    if (n <= whole)
        return p + whole;
    p[whole] = '.';
    std::memcpy(p + whole + 1, d + whole, 16);
    return p + n + 1;
}

} // anonymous namespace

void
appendJsonNumber(std::string &out, double v)
{
    // "%.17g" is at most 24 characters ("-1.2345678901234567e-308");
    // the exact path's block copies may touch 34.
    char buf[48];
    char *end = writeExact17(buf, v);
    if (end == nullptr) {
        const std::to_chars_result r = std::to_chars(
            buf, buf + sizeof(buf), v, std::chars_format::general, 17);
        MS_ENSURE(r.ec == std::errc(), "to_chars overflowed its buffer");
        end = r.ptr;
    }
    out.append(buf, end);
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

} // namespace memsense::serve
