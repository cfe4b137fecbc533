/**
 * @file
 * Implementation of the span/counter/value observability core.
 *
 * Every instrumented thread owns a ThreadState (thread_local) holding
 * its buffered trace events and metric accumulators. States register
 * with a process-global, deliberately leaked Registry; when a thread
 * exits, its state retires (merges) into the registry's accumulators
 * under the registry mutex, so snapshots taken at any later point see
 * the thread's full contribution. Snapshot functions walk live states
 * too, which keeps the main thread visible before process teardown.
 */

#include "trace.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string_view>
#include <vector>

#include "error.hh"

namespace memsense::trace
{

void
SpanStat::merge(const SpanStat &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    count += other.count;
    totalNs += other.totalNs;
    minNs = std::min(minNs, other.minNs);
    maxNs = std::max(maxNs, other.maxNs);
}

void
ValueStat::merge(const ValueStat &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    count += other.count;
    nonBucketed += other.nonBucketed;
    if (other.finite > 0) {
        if (finite == 0) {
            min = other.min;
            max = other.max;
        } else {
            min = std::min(min, other.min);
            max = std::max(max, other.max);
        }
        sum += other.sum;
        finite += other.finite;
    }
    for (int i = 0; i < kValueBuckets; ++i)
        buckets[i] += other.buckets[i];
}

int
valueBucketIndex(double v)
{
    if (!std::isfinite(v) || v <= 0.0)
        return -1;
    int log2 = static_cast<int>(std::floor(std::log2(v)));
    if (log2 < kValueBucketMinLog2)
        log2 = kValueBucketMinLog2;
    int idx = log2 - kValueBucketMinLog2;
    if (idx >= kValueBuckets)
        idx = kValueBuckets - 1;
    return idx;
}

namespace detail
{

// memsense-lint: allow(mutable-global-state): process-global
// observability switches; written by start/stop/setStatsEnabled, read
// via relaxed loads on the instrumented hot paths.
std::atomic<unsigned> gArmed{0};

namespace
{

/** One buffered Chrome trace event (a completed span). */
struct Event
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    int track = 0;
};

struct ThreadState;

/** Process-global accumulator shared by all threads. */
struct Registry
{
    std::mutex mu;
    // memsense-lint: guarded_by(mu)
    std::vector<ThreadState *> live;
    // Contributions of threads that already exited.
    // memsense-lint: guarded_by(mu)
    std::map<std::string, std::uint64_t> retiredCounters;
    // memsense-lint: guarded_by(mu)
    std::map<std::string, SpanStat> retiredSpans;
    // memsense-lint: guarded_by(mu)
    std::map<std::string, ValueStat> retiredValues;
    // memsense-lint: guarded_by(mu)
    std::vector<Event> retiredEvents;
    // memsense-lint: guarded_by(mu)
    std::map<int, std::string> tracks;
    std::string tracePath;
    std::uint64_t epochNs = 0;
    int nextAnonTrack = 1000;
};

Registry &
registry()
{
    // memsense-lint: allow(mutable-global-state): the observability
    // registry is intentionally process-global and mutex-guarded;
    // leaked so thread_local destructors may retire into it at any
    // point of process teardown.
    static Registry *r = new Registry;
    return *r;
}

/** Per-thread buffers; registered with the registry on first touch.
 *
 * Cache-line aligned: instances are reached through Registry::live
 * during cross-thread aggregation, and alignment guarantees one
 * thread's hot counters never share a line with a neighbour's state
 * regardless of where the TLS allocator places them.
 */
struct alignas(64) ThreadState
{
    int track = -1;
    unsigned depth = 0;
    std::vector<Event> events;
    // Transparent comparators: an armed site finds its slot by
    // string_view and builds the key string only on first insert.
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, SpanStat, std::less<>> spans;
    std::map<std::string, ValueStat, std::less<>> values;

    ThreadState()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.live.push_back(this);
    }

    ~ThreadState()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        retireLocked(r);
        for (auto it = r.live.begin(); it != r.live.end(); ++it) {
            if (*it == this) {
                r.live.erase(it);
                break;
            }
        }
    }

    /** Move this thread's contribution into the registry (mu held). */
    void retireLocked(Registry &r)
    {
        for (const auto &kv : counters)
            // memsense-lint: allow(unguarded-shared-state): every
            // caller holds r.mu — see the "mu held" contract above
            r.retiredCounters[kv.first] += kv.second;
        for (const auto &kv : spans)
            // memsense-lint: allow(unguarded-shared-state): r.mu held
            r.retiredSpans[kv.first].merge(kv.second);
        for (const auto &kv : values)
            // memsense-lint: allow(unguarded-shared-state): r.mu held
            r.retiredValues[kv.first].merge(kv.second);
        // memsense-lint: allow(unguarded-shared-state): r.mu held
        r.retiredEvents.insert(r.retiredEvents.end(), events.begin(),
                               events.end());
        counters.clear();
        spans.clear();
        values.clear();
        events.clear();
    }

    int ensureTrack(Registry &r)
    {
        if (track < 0) {
            std::lock_guard<std::mutex> lock(r.mu);
            track = r.nextAnonTrack++;
            r.tracks.emplace(track, "thread-" + std::to_string(track));
        }
        return track;
    }
};

ThreadState &
threadState()
{
    // memsense-lint: allow(mutable-global-state): thread-local metric
    // buffer, the point of the design; merged under the registry mutex.
    thread_local ThreadState state;
    return state;
}

/** The slot of site @p name in @p sites, created on first use. */
template <typename Stat>
Stat &
siteSlot(std::map<std::string, Stat, std::less<>> &sites,
         std::string_view name)
{
    auto it = sites.find(name);
    if (it == sites.end())
        it = sites.emplace(std::string(name), Stat{}).first;
    return it->second;
}

void
observeSpan(ThreadState &ts, std::string_view name, std::uint64_t dur_ns)
{
    SpanStat &s = siteSlot(ts.spans, name);
    if (s.count == 0) {
        s.minNs = dur_ns;
        s.maxNs = dur_ns;
    } else {
        s.minNs = std::min(s.minNs, dur_ns);
        s.maxNs = std::max(s.maxNs, dur_ns);
    }
    ++s.count;
    s.totalNs += dur_ns;
}

void
observeValue(ThreadState &ts, std::string_view name, double v)
{
    ValueStat &s = siteSlot(ts.values, name);
    int idx = valueBucketIndex(v);
    if (std::isfinite(v)) {
        if (s.finite == 0) {
            s.min = v;
            s.max = v;
        } else {
            s.min = std::min(s.min, v);
            s.max = std::max(s.max, v);
        }
        s.sum += v;
        ++s.finite;
    }
    ++s.count;
    if (idx >= 0)
        s.buckets[idx] += 1;
    else
        ++s.nonBucketed;
}

/** Minimal JSON string escaping for span/thread names. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Write the Chrome trace_event document (registry mutex held). */
void
writeTraceLocked(Registry &r)
{
    std::string tmp = r.tracePath + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw ConfigError("cannot open trace file for writing: " +
                              tmp);
        out << "{\"traceEvents\":[\n";
        bool first = true;
        // getpid() would be nondeterministic noise in the artifact; the
        // document describes exactly one process, so pid is fixed at 1.
        for (const auto &kv : r.tracks) {
            if (!first)
                out << ",\n";
            first = false;
            out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << kv.first
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << jsonEscape(kv.second) << "\"}}";
        }
        auto emit = [&out, &first, &r](const Event &e) {
            if (!first)
                out << ",\n";
            first = false;
            std::uint64_t rel =
                e.startNs >= r.epochNs ? e.startNs - r.epochNs : 0;
            char ts[64];
            std::snprintf(ts, sizeof ts, "%.3f",
                          static_cast<double>(rel) / 1000.0);
            char dur[64];
            std::snprintf(dur, sizeof dur, "%.3f",
                          static_cast<double>(e.durNs) / 1000.0);
            out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.track
                << ",\"ts\":" << ts << ",\"dur\":" << dur
                << ",\"name\":\"" << jsonEscape(e.name) << "\"}";
        };
        for (const Event &e : r.retiredEvents)
            emit(e);
        for (ThreadState *ts : r.live)
            for (const Event &e : ts->events)
                emit(e);
        out << "\n]}\n";
        if (!out.flush())
            throw ConfigError("failed writing trace file: " + tmp);
    }
    if (std::rename(tmp.c_str(), r.tracePath.c_str()) != 0)
        throw ConfigError("failed to move trace file into place: " +
                          r.tracePath);
}

} // anonymous namespace

std::uint64_t
nowNs()
{
    // Span timestamps are observability metadata, never experiment
    // input; results do not depend on them.
    // memsense-lint: allow(no-nondeterminism): wall-clock span timing
    using clock = std::chrono::steady_clock;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
}

void
spanBegin()
{
    ++threadState().depth;
}

void
spanEnd(const char *site_literal, const std::string *site_owned,
        std::uint64_t start_ns)
{
    ThreadState &ts = threadState();
    if (ts.depth > 0)
        --ts.depth;
    std::uint64_t end_ns = nowNs();
    std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
    const std::string_view name =
        site_literal ? std::string_view(site_literal) : *site_owned;
    if (statsEnabled())
        observeSpan(ts, name, dur);
    if (tracingEnabled()) {
        Event e;
        e.name = std::string(name);
        e.startNs = start_ns;
        e.durNs = dur;
        e.track = ts.ensureTrack(registry());
        ts.events.push_back(std::move(e));
    }
}

void
counterHit(const char *name, std::uint64_t delta)
{
    siteSlot(threadState().counters, name) += delta;
}

void
observeHit(const char *name, double value)
{
    observeValue(threadState(), name, value);
}

} // namespace detail

void
startTracing(const std::string &path)
{
    requireConfig(!path.empty(), "trace path must not be empty");
    requireConfig(!tracingEnabled(), "tracing already started");
    detail::Registry &r = detail::registry();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        r.tracePath = path;
        r.epochNs = detail::nowNs();
    }
    setCurrentThreadTrack(0, "main");
    detail::gArmed.fetch_or(detail::kTracingBit,
                            std::memory_order_relaxed);
}

std::string
stopTracing()
{
    if (!tracingEnabled())
        return "";
    detail::gArmed.fetch_and(~detail::kTracingBit,
                             std::memory_order_relaxed);
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    detail::writeTraceLocked(r);
    r.retiredEvents.clear();
    for (detail::ThreadState *ts : r.live)
        ts->events.clear();
    std::string path = r.tracePath;
    r.tracePath.clear();
    return path;
}

void
setStatsEnabled(bool on)
{
    if (on)
        detail::gArmed.fetch_or(detail::kStatsBit,
                                std::memory_order_relaxed);
    else
        detail::gArmed.fetch_and(~detail::kStatsBit,
                                 std::memory_order_relaxed);
}

void
setCurrentThreadTrack(int track, const std::string &name)
{
    detail::Registry &r = detail::registry();
    detail::ThreadState &ts = detail::threadState();
    std::lock_guard<std::mutex> lock(r.mu);
    ts.track = track;
    r.tracks[track] = name;
}

std::map<std::string, std::uint64_t>
counterTotals()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::map<std::string, std::uint64_t> out = r.retiredCounters;
    for (detail::ThreadState *ts : r.live)
        for (const auto &kv : ts->counters)
            out[kv.first] += kv.second;
    return out;
}

std::map<std::string, SpanStat>
spanStats()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::map<std::string, SpanStat> out = r.retiredSpans;
    for (detail::ThreadState *ts : r.live)
        for (const auto &kv : ts->spans)
            out[kv.first].merge(kv.second);
    return out;
}

std::map<std::string, ValueStat>
valueStats()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::map<std::string, ValueStat> out = r.retiredValues;
    for (detail::ThreadState *ts : r.live)
        for (const auto &kv : ts->values)
            out[kv.first].merge(kv.second);
    return out;
}

std::map<int, std::string>
threadTracks()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.tracks;
}

void
resetForTest()
{
    detail::gArmed.store(0, std::memory_order_relaxed);
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retiredCounters.clear();
    r.retiredSpans.clear();
    r.retiredValues.clear();
    r.retiredEvents.clear();
    r.tracks.clear();
    r.tracePath.clear();
    r.epochNs = 0;
    r.nextAnonTrack = 1000;
    for (detail::ThreadState *ts : r.live) {
        ts->counters.clear();
        ts->spans.clear();
        ts->values.clear();
        ts->events.clear();
        ts->track = -1;
        ts->depth = 0;
    }
}

} // namespace memsense::trace
