/**
 * @file
 * Set-associative cache with pluggable replacement and write-back
 * write-allocate semantics.
 *
 * The cache stores tags only — no data — since workloads are address
 * streams. Each line carries a fill timestamp so that demand hits on
 * lines still in flight (installed by a prefetch that has not yet
 * returned from memory) can charge the remaining latency.
 *
 * Way state is laid out as blocked structure-of-arrays (AoSoA): each
 * set owns one cache-line-aligned block holding its tags contiguously
 * (the array a probe scans — one line for 8 ways instead of the five
 * lines the old way-struct walk touched), followed by the set's
 * replacement/metadata arrays that only the matching or victim way
 * touches. Keeping a set's arrays adjacent inside one block means an
 * insert+evict on a DRAM-sized LLC hits four neighboring lines on one
 * page rather than five lines on five pages, which is what the
 * profile says the simulator spends most of its time doing. Validity
 * is folded into the tag array via a sentinel (kInvalidTag): real
 * line addresses are byte addresses shifted right by kLineShift and
 * the prefill dummies sit at 2^56, so no reachable line can equal ~0.
 */

#ifndef MEMSENSE_SIM_CACHE_HH
#define MEMSENSE_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/microop.hh"
#include "util/arena.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace memsense::sim
{

/** Hit/miss and traffic counters of one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    /** Accesses observed. */
    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0, 1]; 0 when never accessed. */
    double missRatio() const
    {
        return accesses() ? static_cast<double>(misses) /
                                static_cast<double>(accesses())
                          : 0.0;
    }
};

/** An evicted line (returned from insert()). */
struct Victim
{
    bool valid = false;    ///< an eviction actually happened
    bool dirty = false;    ///< the victim needs writing back
    Addr lineAddr = 0;     ///< victim's line address
};

/** Result of a cache lookup. */
struct LookupResult
{
    bool hit = false;      ///< line present (possibly still in flight)
    Picos fillTime = 0;    ///< when the line's data is/was available
    bool firstPrefetchTouch = false; ///< first demand touch of a line
                                     ///< a prefetch installed (used to
                                     ///< keep streamers training)
};

/**
 * A tag-only set-associative cache.
 *
 * Addresses are line addresses (byte address >> kLineShift). The cache
 * is indexed by line address modulo the set count, which supports
 * non-power-of-two set counts (needed when the shared LLC is scaled by
 * a non-power-of-two core count).
 */
class SetAssocCache
{
  public:
    /**
     * @param name  human-readable name for diagnostics
     * @param cfg   geometry and replacement policy
     * @param seed  RNG seed for the Random replacement policy
     * @param arena optional bump allocator backing the way arrays
     *              (must outlive the cache); heap when null
     */
    SetAssocCache(std::string name, const CacheConfig &cfg,
                  std::uint64_t seed = 1,
                  util::Arena *arena = nullptr);

    /**
     * Probe for @p line_addr; updates replacement state and statistics.
     *
     * @param line_addr line address to look up
     * @param is_write  true marks the line dirty on a hit
     * @param now       current time (unused except for bookkeeping)
     */
    LookupResult lookup(Addr line_addr, bool is_write, Picos now);

    /**
     * Probe without updating replacement state or statistics.
     */
    bool contains(Addr line_addr) const;

    /**
     * Ask the host to prefetch the set block @p line_addr maps to,
     * ahead of a lookup that will scan it. A set's index depends only
     * on the line address, so this is a pure hint: it reads no way
     * state and changes nothing the simulation observes.
     *
     * Forced inline: a const member whose only effect is
     * __builtin_prefetch looks pure to GCC, which at -O2 deletes an
     * out-of-line call to it together with the prefetch.
     */
    [[gnu::always_inline]] void prefetchSet(Addr line_addr) const
    {
        const unsigned char *blk = setBlock(setIndex(line_addr));
        for (std::size_t off = 0; off < setStride;
             off += util::AlignedSlab::kAlign)
            __builtin_prefetch(blk + off);
    }

    /**
     * Install @p line_addr, evicting a victim if the set is full.
     *
     * @param line_addr line to install
     * @param dirty     install in dirty state (write allocate)
     * @param fill_time when the line's data arrives (>= now for lines
     *                  installed by in-flight fetches)
     * @param prefetched true when a prefetch (not a demand access)
     *                  installed the line
     */
    Victim insert(Addr line_addr, bool dirty, Picos fill_time,
                  bool prefetched = false);

    /**
     * Install the line whose lookup() just missed, reusing the miss
     * scan: the lookup recorded the set block and its first invalid
     * way, so the fill needs no second scan (demand fills are half
     * the set scans in the simulator's hottest loop).
     *
     * Contract: callable only when the immediately preceding
     * operation on THIS cache was a lookup() miss for @p line_addr —
     * which is how the core's access path behaves: each level's
     * demand fill follows its miss with no intervening operation on
     * that level. Enforced with a checked invariant. Semantically
     * identical to insert(@p line_addr, ...) under that contract.
     */
    Victim fillAfterMiss(Addr line_addr, bool dirty, Picos fill_time,
                         bool prefetched = false);

    /** Invalidate a line if present; returns whether it was dirty. */
    bool invalidate(Addr line_addr);

    /**
     * Mark a line dirty if present (writeback from an inner level),
     * without touching replacement state or hit/miss statistics.
     *
     * @return true when the line was present
     */
    bool markDirtyIfPresent(Addr line_addr);

    /**
     * Accept a dirty writeback from an inner level: equivalent to
     * `markDirtyIfPresent(a) || insert(a, true, now)` but in one set
     * scan instead of two — the writeback cascade runs this against
     * the outer (largest, coldest) caches, where each scan is a
     * near-guaranteed host-cache miss on the set block.
     *
     * When the line was present, only its dirty bit is set (recency
     * untouched, no statistics) and the returned victim is invalid;
     * otherwise the line is installed dirty exactly as insert() would
     * install it, including any eviction.
     */
    Victim writebackInsert(Addr line_addr, Picos now);

    /** Statistics accessor. */
    const CacheStats &stats() const { return _stats; }

    /** Reset statistics (not contents). */
    void clearStats() { _stats = CacheStats{}; }

    /** Configuration in use. */
    const CacheConfig &config() const { return cfg; }

    /** Name for diagnostics. */
    const std::string &name() const { return _name; }

    /** Number of currently valid lines (linear scan; tests only). */
    std::uint64_t validLineCount() const;

    /**
     * Fill every way with distinct clean dummy lines from a reserved
     * address region, so capacity evictions (and therefore dirty
     * writebacks of real lines) begin immediately instead of after a
     * long cold-start window. Does not touch statistics.
     */
    void prefill();

  private:
    /** Tag value marking an empty way (no reachable line address). */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Bits of the per-way metadata byte. */
    static constexpr std::uint8_t kDirty = 1u << 0;
    static constexpr std::uint8_t kPrefetched = 1u << 1;

    /** Set index for a line address.
     *
     * Every lookup/insert/invalidate runs through here, and every
     * sweep worker hammers it, so the common power-of-two geometry
     * uses a precomputed mask instead of the integer divide; the
     * modulo fallback keeps non-power-of-two set counts working (the
     * shared LLC scaled by e.g. 3 cores). Both forms produce the same
     * index for power-of-two counts, so results are unchanged.
     */
    std::uint64_t setIndex(Addr line_addr) const
    {
        return setMask ? (line_addr & setMask) : (line_addr % numSets);
    }

    /** @{ Views into one set's block of the slab (see file comment). */
    unsigned char *setBlock(std::uint64_t s)
    {
        return slab.data() + static_cast<std::size_t>(s) * setStride;
    }
    const unsigned char *setBlock(std::uint64_t s) const
    {
        return slab.data() + static_cast<std::size_t>(s) * setStride;
    }
    static Addr *tagsOf(unsigned char *blk)
    {
        return reinterpret_cast<Addr *>(blk);
    }
    static const Addr *tagsOf(const unsigned char *blk)
    {
        return reinterpret_cast<const Addr *>(blk);
    }
    std::uint64_t *lastUseOf(unsigned char *blk) const
    {
        return reinterpret_cast<std::uint64_t *>(blk + lastUseOff);
    }
    Picos *fillTimesOf(unsigned char *blk) const
    {
        return reinterpret_cast<Picos *>(blk + fillOff);
    }
    std::uint8_t *metaOf(unsigned char *blk) const
    {
        return blk + metaOff;
    }
    std::uint8_t *rrpvsOf(unsigned char *blk) const
    {
        return blk + rrpvOff;
    }
    /** @} */

    /** Choose a victim way within @p blk; returns the way index. */
    std::uint32_t pickVictim(unsigned char *blk);

    std::string _name;
    CacheConfig cfg;
    std::uint64_t numSets = 0;
    /** numSets - 1 when numSets is a power of two, else 0 (use %). */
    std::uint64_t setMask = 0;

    // Way state, blocked per set: tags (scanned), then lastUse /
    // fillTimes / meta / rrpvs for the matching way only. Offsets are
    // derived from the way count in the constructor; setStride is the
    // block size rounded up to a cache line.
    util::AlignedSlab slab;
    std::size_t setStride = 0;
    std::size_t lastUseOff = 0; ///< LRU timestamps
    std::size_t fillOff = 0;    ///< fill timestamps
    std::size_t metaOff = 0;    ///< kDirty | kPrefetched bytes
    std::size_t rrpvOff = 0;    ///< SRRIP re-reference bytes

    std::uint64_t useCounter = 0;
    Rng rng;
    CacheStats _stats;

    // Fill hint recorded by a lookup() miss and consumed by the next
    // fillAfterMiss(): the set block just scanned and its first
    // invalid way (== ways when the set is full). Valid because the
    // core never interleaves another operation on the same cache
    // between a demand miss and its fill (see fillAfterMiss()).
    unsigned char *fillHintBlk = nullptr;
    Addr fillHintLine = 0;
    std::uint32_t fillHintSlot = 0;
};

} // namespace memsense::sim

#endif // MEMSENSE_SIM_CACHE_HH
