/**
 * @file
 * Sharded thread-safe LRU cache for solved operating points.
 *
 * The evaluator keys entries on the binary request key
 * (model::RequestKey, 13 raw 64-bit words) and indexes them by its
 * 64-bit hash. The hash is not collision-free, so every hit is verified
 * against the key stored inline in the entry before it is trusted; a
 * fingerprint match with a different key is counted as a collision and
 * treated as a miss — the cache never returns a wrong operating point,
 * it only loses a little speed. An entry is one list node (key, hash
 * and operating point) plus one index node.
 *
 * Sharding: entries are distributed over a power-of-two number of
 * shards by fingerprint bits, each shard guarding its own LRU list and
 * index with its own mutex, so concurrent lookups from the thread-pool
 * workers contend only when they land on the same shard. Capacity is
 * divided evenly across shards; eviction is LRU per shard.
 *
 * Observability: lookups and inserts feed the serve.cache.* counters
 * (hits, misses, evictions, collisions, inserts) and the same tallies
 * are kept internally for CacheStats, so embedding callers get numbers
 * without arming the global metrics registry.
 */

#ifndef MEMSENSE_SERVE_CACHE_HH
#define MEMSENSE_SERVE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/fingerprint.hh"
#include "model/solver.hh"

namespace memsense::serve
{

/** Aggregate counters of one cache instance (monotone, cross-shard). */
struct CacheStats
{
    std::uint64_t hits = 0;       ///< verified fingerprint+key hits
    std::uint64_t misses = 0;     ///< absent fingerprints
    std::uint64_t collisions = 0; ///< fingerprint present, key differed
    std::uint64_t evictions = 0;  ///< entries displaced by capacity
    std::uint64_t inserts = 0;    ///< successful inserts
    std::size_t size = 0;         ///< live entries across all shards
};

/** Options for ShardedLruCache. */
struct CacheOptions
{
    std::size_t capacity = 1 << 16; ///< max entries across all shards
    int shards = 8;                 ///< rounded up to a power of two
};

/** Sharded, verifying LRU map: fingerprint -> OperatingPoint. */
class ShardedLruCache
{
  public:
    explicit ShardedLruCache(CacheOptions opts = {});

    /**
     * Look up @p fingerprint (normally @p key.hash()), verifying the
     * full @p key before trusting the hit. A verified hit refreshes
     * the entry's recency.
     */
    std::optional<model::OperatingPoint>
    lookup(std::uint64_t fingerprint, const model::RequestKey &key);

    /**
     * Insert (or refresh) the entry for @p fingerprint. On a
     * fingerprint collision (same fingerprint, different key) the
     * incumbent entry is kept and the insert is dropped — dropping is
     * cheaper than chaining and the solve that produced @p op already
     * happened. Evicts the shard's LRU entry when the shard is full.
     */
    void insert(std::uint64_t fingerprint, const model::RequestKey &key,
                const model::OperatingPoint &op);

    /** Monotone counters + current size, aggregated over shards. */
    CacheStats stats() const;

    /** Total entry capacity across all shards. */
    std::size_t capacity() const { return totalCapacity; }

    /** Drop all entries (counters are kept). */
    void clear();

  private:
    struct Entry
    {
        model::RequestKey key;
        std::uint64_t fingerprint = 0;
        model::OperatingPoint op;
    };

    /** One shard: LRU list (front = most recent) plus its index.
     *
     * Cache-line aligned so adjacent heap-allocated shards never share
     * a line: each shard's mutex and hit/miss tallies are written by
     * whichever worker lands on it, and a shared line would turn
     * independent shards into one contended line (false sharing).
     */
    struct alignas(64) Shard
    {
        mutable std::mutex mu;
        // memsense-lint: guarded_by(mu)
        std::list<Entry> lru;
        // memsense-lint: guarded_by(mu)
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
            index;
        // memsense-lint: guarded_by(mu)
        std::uint64_t hits = 0;
        // memsense-lint: guarded_by(mu)
        std::uint64_t misses = 0;
        // memsense-lint: guarded_by(mu)
        std::uint64_t collisions = 0;
        // memsense-lint: guarded_by(mu)
        std::uint64_t evictions = 0;
        // memsense-lint: guarded_by(mu)
        std::uint64_t inserts = 0;
    };

    Shard &shardFor(std::uint64_t fingerprint);

    std::vector<std::unique_ptr<Shard>> shardsVec;
    std::size_t shardCapacity = 0; ///< per-shard entry budget
    std::size_t totalCapacity = 0;
    std::uint64_t shardMask = 0;
};

} // namespace memsense::serve

#endif // MEMSENSE_SERVE_CACHE_HH
