#include "util/hash.hh"

namespace memsense
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t state = 0xcbf29ce484222325ULL; // FNV offset basis
    for (char c : bytes) {
        state ^= static_cast<unsigned char>(c);
        state *= 0x100000001b3ULL; // FNV prime
    }
    return state;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xfULL];
        v >>= 4;
    }
    return out;
}

std::optional<std::uint64_t>
parseHex64(std::string_view word)
{
    if (word.size() != 16)
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : word) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

} // namespace memsense
