/**
 * @file
 * Binary identity of model evaluation requests.
 *
 * The serving layer (src/serve) memoizes solver results keyed on the
 * exact inputs that determine an operating point: the workload's
 * numeric parameters and the platform. RequestKey holds those 13
 * inputs as raw 64-bit words — every double as its IEEE-754 bit
 * pattern, every int sign-extended — and compares them bitwise, so two
 * requests share a key iff they are bit-identical inputs to the solver
 * (note -0.0 and 0.0 therefore differ). RequestKey::hash() folds the
 * words into the 64-bit fingerprint that picks a cache shard and
 * bucket.
 *
 * Deliberately excluded: WorkloadParams::name and ::cls. They label a
 * request but do not enter Eq. 1/Eq. 4, so two differently-named
 * requests with identical numbers share one cache entry. The solver
 * (queuing curve and options) is not part of the key either: a cache
 * that memoizes one solver's answers must not be shared with another
 * (serve::Evaluator owns exactly one of each).
 *
 * The hash is not collision-free; consumers that cannot tolerate a
 * collision compare the full key before trusting a fingerprint match
 * (the serve cache does exactly that).
 */

#ifndef MEMSENSE_MODEL_FINGERPRINT_HH
#define MEMSENSE_MODEL_FINGERPRINT_HH

#include <array>
#include <cstdint>

#include "model/params.hh"
#include "model/platform.hh"

namespace memsense::model
{

/** The solver inputs of one request, bit for bit (see file comment). */
struct RequestKey
{
    /** cpi_cache, bf, mpki, wbr, iopi, io_bytes; cores, smt, ghz,
     *  channels, speed, efficiency, latency — in that order. */
    std::array<std::uint64_t, 13> words{};

    /**
     * Word-at-a-time 64-bit hash (the MurmurHash3 block mix) ending in
     * the fmix64 avalanche, so every output bit — including the low
     * bits that pick a cache shard — depends on every input bit.
     */
    std::uint64_t hash() const;

    bool operator==(const RequestKey &) const = default;
};

/** The key of the request (@p p, @p plat). */
RequestKey requestKey(const WorkloadParams &p, const Platform &plat);

} // namespace memsense::model

#endif // MEMSENSE_MODEL_FINGERPRINT_HH
