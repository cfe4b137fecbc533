/**
 * @file
 * The serving layer's one JSON grammar.
 *
 * JsonReader scans one document for two consumers: parseJson, which
 * builds a JsonValue tree, and parseRequestLine, which decodes a
 * request line straight into an EvalRequest with no tree in between.
 * Whitespace, literals, strings with their escapes and UTF-8 checks,
 * numbers, nesting, the depth cap, the byte cap, and every error text
 * and byte offset live here once.
 *
 * The consumer decides what each value becomes. It calls value(v) with
 * a visitor, and the reader calls the visitor's hook for the kind of
 * value it finds:
 *
 *     v.object(reader)   at '{'; the hook consumes the object with
 *                        reader.object(key, member) or skipValue()
 *     v.array(reader)    at '['; likewise with reader.array(item)
 *     v.string(reader)   at '"'; the hook consumes the string with
 *                        reader.string(text) or skipValue()
 *     v.boolean(b), v.null(), v.number(x)   after the token
 *
 * A value nobody keeps is still scanned in full by skipValue(), so a
 * skipped member fails exactly where a kept one would. The scanning
 * templates inline into each consumer; the failure paths, the UTF-8
 * check, escapes and number conversion live in json.cc.
 */

#ifndef MEMSENSE_SERVE_JSON_READER_HH
#define MEMSENSE_SERVE_JSON_READER_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/json.hh"

namespace memsense::serve
{

/** A string destination that keeps nothing (the scan still checks). */
struct DiscardText
{
    void clear() {}
    void append(const char *, std::size_t) {}
};

/** Recursive-descent scanner over one immutable input buffer. */
class JsonReader
{
  public:
    JsonReader(std::string_view text, const JsonLimits &limits_in)
        : in(text), limits(limits_in)
    {}

    /** Enforce the byte cap; call once, before the first value. */
    void
    open()
    {
        if (in.size() > limits.maxBytes)
            failOversized();
    }

    /** Require that only whitespace follows the document. */
    void
    close()
    {
        skipWs();
        if (pos != in.size())
            fail("trailing content");
    }

    /** Scan one value and hand it to @p v's hook for its kind. */
    template <typename Visitor>
    void
    value(Visitor &&v)
    {
        skipWs();
        const char c = peek();
        switch (c) {
        case '{': v.object(*this); return;
        case '[': v.array(*this); return;
        case '"': v.string(*this); return;
        case 't':
            if (consumeWord("true")) {
                v.boolean(true);
                return;
            }
            break;
        case 'f':
            if (consumeWord("false")) {
                v.boolean(false);
                return;
            }
            break;
        case 'n':
            if (consumeWord("null")) {
                v.null();
                return;
            }
            break;
        case '-': case '0': case '1': case '2': case '3': case '4':
        case '5': case '6': case '7': case '8': case '9':
            v.number(number());
            return;
        default:
            break;
        }
        failUnexpected(c);
    }

    /** Scan one value and drop it. */
    void skipValue();

    /**
     * Scan the object at '{'. Each member's name is decoded into
     * @p key (cleared first), then member(key) must consume the
     * member's value, normally with value() or skipValue().
     */
    template <typename Key, typename Member>
    void
    object(Key &key, Member &&member)
    {
        DepthGuard guard(*this);
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos;
            return;
        }
        for (;;) {
            skipWs();
            key.clear();
            string(key);
            skipWs();
            expect(':');
            member(key);
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return;
        }
    }

    /** Scan the array at '['; item() must consume each element. */
    template <typename Item>
    void
    array(Item &&item)
    {
        DepthGuard guard(*this);
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos;
            return;
        }
        for (;;) {
            item();
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return;
        }
    }

    /**
     * Scan the string at '"' and append its decoded bytes to @p out
     * (anything with append(ptr, n)) in runs: each run of verbatim
     * bytes, valid multi-byte UTF-8 included, is one append, and so is
     * the byte an escape decodes to.
     */
    template <typename Text>
    void
    string(Text &out)
    {
        expect('"');
        std::size_t run = pos; // first verbatim byte not yet appended
        for (;;) {
            while (pos < in.size() && in[pos] != '"' && in[pos] != '\\' &&
                   static_cast<unsigned char>(in[pos]) < 0x80)
                ++pos;
            if (pos >= in.size())
                fail("unterminated string");
            if (in[pos] == '"') {
                out.append(in.data() + run, pos - run);
                ++pos;
                return;
            }
            if (in[pos] == '\\') {
                out.append(in.data() + run, pos - run);
                ++pos;
                const char decoded = escape();
                out.append(&decoded, 1);
                run = pos;
                continue;
            }
            skipUtf8();
        }
    }

    /** Throw ParseError with the current byte offset. */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    /** Visitor of skipValue(): scans everything, keeps nothing. */
    struct Skip;

    /** RAII depth guard: every nested object/array level costs one
     *  recursion frame, so the cap is what keeps a hostile
     *  `[[[[[...` line from overflowing the stack. */
    struct DepthGuard
    {
        explicit DepthGuard(JsonReader &r_in)
            : r(r_in)
        {
            if (++r.depth > r.limits.maxDepth)
                r.failTooDeep();
        }
        ~DepthGuard() { --r.depth; }
        DepthGuard(const DepthGuard &) = delete;
        DepthGuard &operator=(const DepthGuard &) = delete;
        JsonReader &r;
    };

    void
    skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r'))
            ++pos;
    }

    char
    peek() const
    {
        if (pos >= in.size())
            fail("unexpected end of input");
        return in[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            failExpected(c);
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

    /** Decode the escape after a backslash (at `pos`) to its byte. */
    char escape();

    /** Check one multi-byte UTF-8 sequence at `pos` and step over it. */
    void skipUtf8();

    /** Convert the number at `pos`. */
    double number();

    [[noreturn]] void failOversized() const;
    [[noreturn]] void failTooDeep() const;
    [[noreturn]] void failExpected(char c) const;
    [[noreturn]] void failUnexpected(char c) const;

    std::string_view in;
    JsonLimits limits;
    std::size_t pos = 0;
    int depth = 0;
};

struct JsonReader::Skip
{
    void
    object(JsonReader &r)
    {
        DiscardText key;
        r.object(key, [&r](const DiscardText &) { r.skipValue(); });
    }
    void array(JsonReader &r) { r.array([&r] { r.skipValue(); }); }
    void
    string(JsonReader &r)
    {
        DiscardText text;
        r.string(text);
    }
    void boolean(bool) {}
    void null() {}
    void number(double) {}
};

inline void
JsonReader::skipValue()
{
    value(Skip{});
}

/** Throw the ConfigError of a typed read of @p what that found another
 *  kind of value: "<what> must be a <kind>". */
[[noreturn]] void throwWrongKind(std::string_view what,
                                 std::string_view kind);

/** @p v as an int, or the ConfigError JsonValue::asInt(@p what)
 *  throws when it is out of range or not a whole number. */
int jsonInt(double v, std::string_view what);

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_JSON_READER_HH
