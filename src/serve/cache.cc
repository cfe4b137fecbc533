#include "serve/cache.hh"

#include "util/contract.hh"
#include "util/error.hh"
#include "util/trace.hh"

namespace memsense::serve
{

namespace
{

/** Smallest power of two >= @p n (n clamped to [1, 2^20]). */
std::size_t
roundUpPow2(int n)
{
    std::size_t v = 1;
    std::size_t target = n < 1 ? 1 : static_cast<std::size_t>(n);
    if (target > (1u << 20))
        target = 1u << 20;
    while (v < target)
        v <<= 1;
    return v;
}

} // anonymous namespace

ShardedLruCache::ShardedLruCache(CacheOptions opts)
{
    requireConfig(opts.capacity >= 1, "cache capacity must be >= 1");
    std::size_t count = roundUpPow2(opts.shards);
    // Never spread the capacity so thin that a shard holds nothing.
    while (count > 1 && opts.capacity / count == 0)
        count >>= 1;
    shardsVec.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        // memsense-lint: allow(no-hot-loop-alloc): construction-time
        // loop, reserved to count two lines above
        shardsVec.push_back(std::make_unique<Shard>());
    shardMask = count - 1;
    shardCapacity = opts.capacity / count;
    if (shardCapacity == 0)
        shardCapacity = 1;
    totalCapacity = shardCapacity * count;
}

ShardedLruCache::Shard &
ShardedLruCache::shardFor(std::uint64_t fingerprint)
{
    // RequestKey::hash() ends in a full avalanche, so its low bits
    // are well mixed; use them directly.
    return *shardsVec[fingerprint & shardMask];
}

std::optional<model::OperatingPoint>
ShardedLruCache::lookup(std::uint64_t fingerprint,
                        const model::RequestKey &key)
{
    Shard &s = shardFor(fingerprint);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(fingerprint);
    if (it == s.index.end()) {
        ++s.misses;
        MS_METRIC_COUNT("serve.cache.misses");
        return std::nullopt;
    }
    if (it->second->key != key) {
        // Same 64-bit fingerprint, different request: never trust it.
        ++s.collisions;
        ++s.misses;
        MS_METRIC_COUNT("serve.cache.collisions");
        MS_METRIC_COUNT("serve.cache.misses");
        return std::nullopt;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    ++s.hits;
    MS_METRIC_COUNT("serve.cache.hits");
    return it->second->op;
}

void
ShardedLruCache::insert(std::uint64_t fingerprint,
                        const model::RequestKey &key,
                        const model::OperatingPoint &op)
{
    Shard &s = shardFor(fingerprint);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(fingerprint);
    if (it != s.index.end()) {
        if (it->second->key != key) {
            // Collision with the incumbent: keep it, drop the insert.
            ++s.collisions;
            MS_METRIC_COUNT("serve.cache.collisions");
            return;
        }
        it->second->op = op;
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
    }
    if (s.lru.size() >= shardCapacity) {
        const Entry &victim = s.lru.back();
        s.index.erase(victim.fingerprint);
        s.lru.pop_back();
        ++s.evictions;
        MS_METRIC_COUNT("serve.cache.evictions");
    }
    s.lru.push_front(Entry{key, fingerprint, op});
    s.index.emplace(fingerprint, s.lru.begin());
    ++s.inserts;
    MS_METRIC_COUNT("serve.cache.inserts");
    MS_INVARIANT(s.lru.size() == s.index.size(),
                 "cache shard list/index diverged: ", s.lru.size(),
                 " vs ", s.index.size());
}

CacheStats
ShardedLruCache::stats() const
{
    CacheStats out;
    for (const auto &sp : shardsVec) {
        std::lock_guard<std::mutex> lock(sp->mu);
        out.hits += sp->hits;
        out.misses += sp->misses;
        out.collisions += sp->collisions;
        out.evictions += sp->evictions;
        out.inserts += sp->inserts;
        out.size += sp->lru.size();
    }
    return out;
}

void
ShardedLruCache::clear()
{
    for (const auto &sp : shardsVec) {
        std::lock_guard<std::mutex> lock(sp->mu);
        sp->lru.clear();
        sp->index.clear();
    }
}

} // namespace memsense::serve
