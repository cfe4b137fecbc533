#include "serve/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "util/contract.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"

namespace memsense::serve
{

namespace
{

/** Recursive-descent parser over one immutable input buffer. */
class Parser
{
  public:
    Parser(std::string_view text, const JsonLimits &limits_in)
        : in(text), limits(limits_in)
    {}

    JsonValue
    parseDocument()
    {
        if (in.size() > limits.maxBytes)
            fail("input of " + std::to_string(in.size()) +
                 " bytes exceeds the " +
                 std::to_string(limits.maxBytes) + "-byte cap");
        JsonValue v = parseValue();
        skipWs();
        if (pos != in.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ParseError("JSON parse error at byte " +
                         std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= in.size())
            fail("unexpected end of input");
        return in[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (in.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    /** RAII depth guard: every nested object/array level costs one
     *  recursion frame, so the cap is what keeps a hostile
     *  `[[[[[...` line from overflowing the stack. */
    struct DepthGuard
    {
        explicit DepthGuard(Parser &p_in)
            : p(p_in)
        {
            if (++p.depth > p.limits.maxDepth)
                p.fail("nesting deeper than " +
                       std::to_string(p.limits.maxDepth) + " levels");
        }
        ~DepthGuard() { --p.depth; }
        Parser &p;
    };

    JsonValue
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.text = parseString();
            return v;
        }
        if (consumeWord("true")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeWord("false")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
        }
        if (consumeWord("null"))
            return JsonValue{};
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        fail(std::string("unexpected character '") + c + "'");
    }

    JsonValue
    parseObject()
    {
        DepthGuard guard(*this);
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        // Members collect on the parse-wide scratch stack (a nested
        // object pushes above this one's and pops back to its own
        // base), then move into a vector reserved to the exact count:
        // one member-array allocation per object, no regrowth, and no
        // slack a hostile line of tiny objects could multiply.
        if (scratch.capacity() == 0)
            scratch.reserve(kScratchMembers);
        const std::size_t base = scratch.size();
        for (;;) {
            skipWs();
            // memsense-lint: allow(no-hot-loop-alloc): a DOM parser's
            // output IS allocation — each key/member lives in the
            // returned document, bounded by the input's size
            std::string key = parseString();
            skipWs();
            expect(':');
            JsonValue member = parseValue();
            // memsense-lint: allow(no-hot-loop-alloc): the parse-wide
            // scratch stack, reserved on the first object of a parse
            scratch.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            break;
        }
        const auto first = scratch.begin() +
                           static_cast<std::ptrdiff_t>(base);
        v.members.assign(std::make_move_iterator(first),
                         std::make_move_iterator(scratch.end()));
        scratch.erase(first, scratch.end());
        return v;
    }

    JsonValue
    parseArray()
    {
        DepthGuard guard(*this);
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        for (;;) {
            // memsense-lint: allow(no-hot-loop-alloc): DOM output node
            v.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= in.size())
                fail("unterminated string");
            char c = in[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) >= 0x80) {
                --pos;
                consumeUtf8(out);
                continue;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= in.size())
                fail("unterminated escape");
            char esc = in[pos++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                // Pass \uXXXX through for ASCII; reject the rest
                // rather than mis-decode (the request schema never
                // needs non-ASCII keys or ids).
                if (pos + 4 > in.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = in[pos++];
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
                out += static_cast<char>(code);
                break;
            }
            default:
                fail(std::string("bad escape '\\") + esc + "'");
            }
        }
    }

    /**
     * Validate and copy one multi-byte UTF-8 sequence starting at
     * `pos`. Rejects truncated tails, bare continuation bytes,
     * overlong encodings, surrogates, and code points past U+10FFFF —
     * hostile bytes must become a clean ParseError, not mojibake
     * echoed back into a reply stream.
     */
    void
    consumeUtf8(std::string &out)
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
        static constexpr unsigned kMinForLen[4] = {0, 0x80, 0x800,
                                                   0x10000};
        if (code < kMinForLen[extra])
            fail("overlong UTF-8 encoding");
        if (code >= 0xd800 && code <= 0xdfff)
            fail("UTF-8 encoded surrogate");
        if (code > 0x10ffff)
            fail("UTF-8 code point out of range");
        out.append(in.substr(pos, 1 + static_cast<std::size_t>(extra)));
        pos += 1 + static_cast<std::size_t>(extra);
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < in.size() &&
               ((in[pos] >= '0' && in[pos] <= '9') || in[pos] == '.' ||
                in[pos] == 'e' || in[pos] == 'E' || in[pos] == '+' ||
                in[pos] == '-'))
            ++pos;
        const std::string_view text = in.substr(start, pos - start);
        // Fast path: from_chars accepts the same digit grammar as
        // strtod over this alphabet and rounds correctly, as strtod
        // does, so a whole-word success is strtod's value. Anything
        // else (a malformed word, overflow, underflow) takes strtod,
        // whose verdict and error text stay the reference.
        double v = 0.0;
        const std::from_chars_result r =
            std::from_chars(text.data(), text.data() + text.size(), v);
        if (r.ec != std::errc() || r.ptr != text.data() + text.size() ||
            !std::isfinite(v)) {
            std::string word(text);
            char *end = nullptr;
            v = std::strtod(word.c_str(), &end);
            if (end != word.c_str() + word.size() || !std::isfinite(v)) {
                pos = start;
                fail("malformed number '" + word + "'");
            }
        }
        JsonValue out;
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        return out;
    }

    /** Scratch entries reserved per parse. A sweep-point request (id,
     *  workload, five platform fields) has at most 8 members open at
     *  once, and 8 entries (1 KiB) stay small enough for the
     *  allocator's per-thread cache; a larger document regrows it. */
    static constexpr std::size_t kScratchMembers = 8;

    std::string_view in;
    JsonLimits limits;
    std::size_t pos = 0;
    int depth = 0;
    /** Members of the objects being parsed, innermost last. */
    std::vector<std::pair<std::string, JsonValue>> scratch;
};

} // anonymous namespace

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
        throw ConfigError(std::string(what) + " must be a number");
    return number;
}

const std::string &
JsonValue::asString(std::string_view what) const
{
    if (kind != Kind::String)
        throw ConfigError(std::string(what) + " must be a string");
    return text;
}

int
JsonValue::asInt(std::string_view what) const
{
    double v = asNumber(what);
    if (!(v >= -2147483648.0 && v <= 2147483647.0))
        throw ConfigError(std::string(what) + " is out of integer range");
    // memsense-lint: allow(unclamped-double-to-int): range-checked above
    int i = static_cast<int>(v);
    // memsense-lint: allow(float-equal): exact integrality check
    if (static_cast<double>(i) != v)
        throw ConfigError(std::string(what) + " must be a whole number");
    return i;
}

JsonValue
parseJson(std::string_view text, const JsonLimits &limits)
{
    // Fault site for the serving chaos harness: a throw here must
    // surface as one per-line error reply, never a crashed batch or a
    // dropped request.
    MS_FAULT_POINT("serve.json.parse");
    return Parser(text, limits).parseDocument();
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

void
appendJsonNumber(std::string &out, double v)
{
    // "%.17g" is at most 24 characters ("-1.2345678901234567e-308").
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    MS_ENSURE(r.ec == std::errc(), "to_chars overflowed its buffer");
    out.append(buf, r.ptr);
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

} // namespace memsense::serve
