/**
 * @file
 * Minimal JSON for the serving layer.
 *
 * The batch evaluator speaks JSON-lines: one request object per line
 * in, one result object per line out. This is the tiny strict parser
 * for the inbound side — objects, arrays, strings, numbers, booleans,
 * null; no comments, no trailing commas — plus the string escaper for
 * the outbound side. Deliberately dependency-free and small; it is not
 * a general-purpose JSON library (no unicode escapes beyond pass-through
 * \uXXXX, numbers parsed as double).
 *
 * Malformed input raises ParseError (a ConfigError subclass) with a
 * byte offset, which the service layer converts into a per-line error
 * result instead of aborting the batch. The grammar itself lives in
 * serve/json_reader.hh, shared with the request decoder
 * (parseRequestLine), which reads a request line with no tree.
 *
 * Hostile-input hardening: the parser is the first thing untrusted
 * network bytes hit, so it enforces explicit resource caps (JsonLimits)
 * — a maximum input length and a maximum nesting depth (the recursive
 * descent would otherwise overflow the stack on a `[[[[...` line) —
 * and validates UTF-8 inside string literals, rejecting truncated or
 * overlong sequences instead of passing mojibake through to replies.
 */

#ifndef MEMSENSE_SERVE_JSON_HH
#define MEMSENSE_SERVE_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace memsense::serve
{

/**
 * Raised on malformed or over-limit JSON input. Subclasses ConfigError
 * so every existing "bad input" path (per-line error capture, batch
 * error results) handles it unchanged; the distinct type lets the
 * serving layer and tests tell parse failures from domain failures.
 */
class ParseError : public ConfigError
{
  public:
    explicit ParseError(const std::string &what_arg)
        : ConfigError(what_arg)
    {}
};

/**
 * Resource caps for one parse. Defaults are generous for the request
 * schema (a request line is ~300 bytes, nesting depth 3) while keeping
 * a hostile line from exhausting stack or memory.
 */
struct JsonLimits
{
    std::size_t maxBytes = 1u << 20; ///< longest accepted input
    int maxDepth = 64;               ///< deepest object/array nesting
};

/** One parsed JSON value (tree-owning). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Kind kind = Kind::Null;
    bool boolean = false;   ///< valid when kind == Bool
    double number = 0.0;    ///< valid when kind == Number
    std::string text;       ///< valid when kind == String
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object
    std::vector<JsonValue> items;                           ///< Array

    // The accessors take views and build their error text only when
    // they throw: the request parser calls them with literals on every
    // line it serves.

    /** True when this is an object with member @p key. */
    bool has(std::string_view key) const;

    /** Member @p key; throws ConfigError when absent or not an object. */
    const JsonValue &at(std::string_view key) const;

    /** Number value; throws ConfigError on kind mismatch. */
    double asNumber(std::string_view what) const;

    /** String value; throws ConfigError on kind mismatch. */
    const std::string &asString(std::string_view what) const;

    /** Integer value; throws ConfigError when not a whole number. */
    int asInt(std::string_view what) const;
};

/**
 * Parse one JSON document under @p limits. The whole input must be
 * consumed (trailing whitespace allowed); throws ParseError otherwise.
 */
JsonValue parseJson(std::string_view text, const JsonLimits &limits = {});

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Append jsonEscape(@p s) to @p out without a temporary string. */
void appendJsonEscaped(std::string &out, std::string_view s);

/**
 * Append @p v to @p out exactly as printf("%.17g") renders it in the C
 * locale: always 17 significant digits (trailing zeros dropped, so not
 * the shortest form), which round-trips every double to the same bits
 * and keeps result streams byte-stable. Allocates nothing beyond
 * @p out's growth.
 *
 * Fast path, for |v| in (1e-6, 2^53), where every number of a reply
 * falls: |v| = m / 2^s with a 53-bit m, so the 17 digits are
 * m * 10^k / 2^s for k = 16 - floor(log10 |v|) <= 22. That product is
 * exact in one 128-bit multiply, the bits the shift drops round it
 * half to even as printf does, and a two-digit table writes it out.
 * Fallback, for zero, subnormals, inf, nan and every other magnitude:
 * std::to_chars(general, 17), which the standard defines as the same
 * printf conversion.
 */
void appendJsonNumber(std::string &out, double v);

/** appendJsonNumber into a fresh string. */
std::string jsonNumber(double v);

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_JSON_HH
