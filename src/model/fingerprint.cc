#include "model/fingerprint.hh"

#include <bit>

namespace memsense::model
{

namespace
{

/** A double's IEEE-754 bit pattern. */
std::uint64_t
word(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** An int, sign-extended to 64 bits. */
std::uint64_t
word(int n)
{
    return static_cast<std::uint64_t>(std::int64_t{n});
}

/** MurmurHash3's 64-bit finalizer: a full avalanche of @p k. */
std::uint64_t
fmix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

} // anonymous namespace

std::uint64_t
RequestKey::hash() const
{
    std::uint64_t h = 0;
    for (std::uint64_t k : words) {
        k *= 0x87c37b91114253d5ULL;
        k = std::rotl(k, 31);
        k *= 0x4cf5ad432745937fULL;
        h ^= k;
        h = std::rotl(h, 27) * 5 + 0x52dce729;
    }
    return fmix64(h ^ sizeof(words));
}

RequestKey
requestKey(const WorkloadParams &p, const Platform &plat)
{
    const MemoryConfig &mem = plat.memory;
    return RequestKey{{
        word(p.cpiCache), word(p.bf), word(p.mpki), word(p.wbr),
        word(p.iopi), word(p.ioBytes),
        word(plat.cores), word(plat.smt), word(plat.ghz),
        word(mem.channels), word(mem.megaTransfers),
        word(mem.efficiency), word(mem.compulsoryNs),
    }};
}

} // namespace memsense::model
