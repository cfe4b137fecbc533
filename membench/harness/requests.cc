#include "harness/requests.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

namespace membench
{

namespace
{

/** The paper's Sec. VI baseline platform, in request field order. */
constexpr const char *kFields[] = {"cores", "ghz", "channels", "speed_mts",
                                   "latency_ns"};
constexpr double kBaseline[] = {8.0, 2.7, 4.0, 1866.7, 75.0};

/** One platform field a sweep can step. */
struct Axis
{
    std::size_t field; ///< index into kFields
    double lo;         ///< lowest value a step may take
    double hi;         ///< highest value a step may take
    double step;       ///< distance between grid points
    double quantum;    ///< resolution of the drawn start
};

/** Fields stepped 16 times: the fine axis of every sweep. */
constexpr Axis kFine[] = {
    {4, 50.0, 125.0, 2.5, 0.01},    // latency_ns
    {3, 1066.0, 2400.0, 40.0, 1.0}, // speed_mts
    {1, 1.6, 3.8, 0.1, 0.001},      // ghz
};

/** Integer fields stepped 8 times over a fixed grid: lo, lo + step, ... */
constexpr Axis kCoarse[] = {
    {2, 1.0, 8.0, 1.0, 1.0},  // channels
    {0, 2.0, 16.0, 2.0, 1.0}, // cores
};

constexpr std::size_t kFineSteps = 16;
constexpr std::size_t kCoarseSteps = kSweepPoints / kFineSteps;
constexpr const char *kClasses[] = {"bigdata", "enterprise", "hpc"};
constexpr int kMaxDraws = 1000;

/** Deterministic draws from one (seed, sweep, attempt) key. */
class SweepRng
{
  public:
    SweepRng(std::uint64_t seed, std::uint64_t sweep, std::uint64_t attempt)
        : state(mix64(mix64(seed ^ 0x6d656d62656e6368ULL) ^ mix64(sweep)) ^
                mix64(attempt + 0x5eed))
    {}

    /** Uniform integer in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        state = mix64(state + 0x9e3779b97f4a7c15ULL);
        return static_cast<std::uint64_t>(
            static_cast<double>(state >> 11) * 0x1.0p-53 *
            static_cast<double>(n));
    }

  private:
    std::uint64_t state;
};

/** A drawn start for @p steps grid points of @p a. */
double
drawStart(const Axis &a, std::size_t steps, SweepRng &rng)
{
    const double room = a.hi - a.lo - static_cast<double>(steps - 1) * a.step;
    const auto starts = static_cast<std::uint64_t>(room / a.quantum) + 1;
    return a.lo + static_cast<double>(rng.below(starts)) * a.quantum;
}

/** The kSweepPoints request bodies (no id) of one drawn sweep. */
std::vector<std::string>
drawSweep(std::uint64_t seed, std::uint64_t sweep, std::uint64_t attempt)
{
    SweepRng rng(seed, sweep, attempt);
    const char *cls = kClasses[rng.below(3)];
    const std::size_t fine = rng.below(std::size(kFine));
    // The second axis: another fine field (stepped 8 times from a drawn
    // start) or a coarse one over its fixed grid.
    std::size_t second = rng.below(std::size(kFine) - 1 + std::size(kCoarse));
    Axis b = kCoarse[0];
    double b_start = 0.0;
    if (second < std::size(kFine) - 1) {
        b = kFine[second >= fine ? second + 1 : second];
        b_start = drawStart(b, kCoarseSteps, rng);
    } else {
        b = kCoarse[second - (std::size(kFine) - 1)];
        b_start = b.lo;
    }
    const Axis &a = kFine[fine];
    const double a_start = drawStart(a, kFineSteps, rng);

    // Every request names all five fields, so two points differ as text
    // exactly when they differ as operating points.
    std::vector<std::string> bodies;
    bodies.reserve(kSweepPoints);
    double v[std::size(kFields)];
    char buf[256];
    for (std::size_t i = 0; i < kFineSteps; ++i) {
        for (std::size_t j = 0; j < kCoarseSteps; ++j) {
            std::copy(std::begin(kBaseline), std::end(kBaseline), v);
            v[a.field] = a_start + static_cast<double>(i) * a.step;
            v[b.field] = b_start + static_cast<double>(j) * b.step;
            std::snprintf(buf, sizeof buf,
                          "\"workload\":{\"class\":\"%s\"},\"platform\":"
                          "{\"%s\":%.6g,\"%s\":%.6g,\"%s\":%.6g,\"%s\":%.6g,"
                          "\"%s\":%.6g}",
                          cls, kFields[0], v[0], kFields[1], v[1], kFields[2],
                          v[2], kFields[3], v[3], kFields[4], v[4]);
            bodies.emplace_back(buf);
        }
    }
    return bodies;
}

std::string
line(char prefix, std::size_t index, const std::string &body)
{
    return "{\"id\":\"" + std::string(1, prefix) + std::to_string(index) +
           "\"," + body + "}";
}

} // anonymous namespace

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

Traffic
makeTraffic(bool hot, std::uint64_t seed, std::size_t warmup_sweeps,
            std::size_t measured_sweeps)
{
    const std::size_t drawn = warmup_sweeps + (hot ? 0 : measured_sweeps);
    std::vector<std::vector<std::string>> sweeps;
    std::unordered_set<std::string> seen;
    for (std::uint64_t k = 0; k < drawn; ++k) {
        for (int attempt = 0;; ++attempt) {
            if (attempt == kMaxDraws)
                throw std::logic_error("no unrepeated sweep left to draw");
            std::vector<std::string> bodies = drawSweep(
                seed, k, static_cast<std::uint64_t>(attempt));
            bool fresh = true;
            for (const std::string &b : bodies)
                fresh = fresh && seen.count(b) == 0;
            if (!fresh)
                continue;
            seen.insert(bodies.begin(), bodies.end());
            sweeps.push_back(std::move(bodies));
            break;
        }
    }

    Traffic t;
    for (std::size_t k = 0; k < warmup_sweeps; ++k)
        for (const std::string &b : sweeps[k])
            t.warmup.push_back(line('w', t.warmup.size(), b));
    for (std::size_t k = 0; k < measured_sweeps; ++k) {
        const std::size_t s =
            hot ? mix64(seed * 0x9e3779b97f4a7c15ULL + k) % warmup_sweeps
                : warmup_sweeps + k;
        for (const std::string &b : sweeps[s])
            t.measured.push_back(line('m', t.measured.size(), b));
    }
    return t;
}

} // namespace membench
