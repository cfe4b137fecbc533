#include "model/hierarchy.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace memsense::model
{

double
hierarchicalCpi(double cpi_cache, double bf,
                const std::vector<TierAccess> &tiers)
{
    requireConfig(cpi_cache > 0.0, "CPI_cache must be positive");
    requireConfig(bf >= 0.0 && bf <= 1.0, "BF must be in [0, 1]");
    double latency_cycles_per_inst = 0.0;
    for (const auto &t : tiers) {
        requireConfig(t.mpi >= 0.0 && t.mpCycles >= 0.0,
                      t.name + ": negative tier term");
        latency_cycles_per_inst += t.mpi * t.mpCycles;
    }
    return cpi_cache + latency_cycles_per_inst * bf;
}

TieredMemoryModel::TieredMemoryModel(MemoryTier near_tier,
                                     MemoryTier far_tier,
                                     double footprint_gb, double theta_in)
    : near(std::move(near_tier)), far(std::move(far_tier)),
      footprintGB(footprint_gb), theta(theta_in)
{
    requireConfig(footprintGB > 0.0, "footprint must be positive");
    requireConfig(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
    requireConfig(near.capacityGB >= 0.0, "near capacity must be >= 0");
    requireConfig(near.latencyNs > 0.0 && far.latencyNs > 0.0,
                  "tier latencies must be positive");
    requireConfig(near.bandwidthGBps > 0.0 && far.bandwidthGBps > 0.0,
                  "tier bandwidths must be positive");
}

double
TieredMemoryModel::hitFraction() const
{
    if (near.capacityGB >= footprintGB)
        return 1.0;
    if (near.capacityGB <= 0.0)
        return 0.0;
    return std::pow(near.capacityGB / footprintGB, theta);
}

namespace
{

/** M/D/1 queuing delay with a stability clamp, in ns. */
double
tierQueuingDelayNs(double util, double service_ns, double max_util = 0.95)
{
    double u = std::clamp(util, 0.0, max_util);
    return service_ns * u / (2.0 * (1.0 - u));
}

} // anonymous namespace

TieredResult
TieredMemoryModel::evaluate(const WorkloadParams &p, double ghz,
                            int cores) const
{
    p.validate();
    requireConfig(ghz > 0.0, "core frequency must be positive");
    requireConfig(cores >= 1, "need at least one core");

    TieredResult res;
    res.hitFraction = hitFraction();
    const double hit = res.hitFraction;
    const double bytes_per_inst = p.bytesPerInstruction();
    const double cps = ghz * 1e9;
    const double near_bw = near.bandwidthGBps * 1e9;
    const double far_bw = far.bandwidthGBps * 1e9;
    // Per-line service time scale for each tier's queue.
    const double near_service_ns =
        kLineSizeBytes / near_bw * 1e9 * static_cast<double>(cores);
    const double far_service_ns =
        kLineSizeBytes / far_bw * 1e9 * static_cast<double>(cores);

    double near_util = 0.0;
    double far_util = 0.0;
    double cpi = p.cpiCache;
    for (int iter = 0; iter < 200; ++iter) {
        double near_mp_ns =
            near.latencyNs + tierQueuingDelayNs(near_util, near_service_ns);
        double far_mp_ns =
            far.latencyNs + tierQueuingDelayNs(far_util, far_service_ns);
        std::vector<TierAccess> tiers = {
            {near.name, p.mpi() * hit, near_mp_ns * ghz},
            {far.name, p.mpi() * (1.0 - hit), far_mp_ns * ghz},
        };
        double next_cpi = hierarchicalCpi(p.cpiCache, p.bf, tiers);

        double inst_rate =
            cps / next_cpi * static_cast<double>(cores);
        double near_demand = bytes_per_inst * hit * inst_rate;
        double far_demand = bytes_per_inst * (1.0 - hit) * inst_rate;
        double next_near_util = near_demand / near_bw;
        double next_far_util = far_demand / far_bw;

        near_util += 0.5 * (next_near_util - near_util);
        far_util += 0.5 * (next_far_util - far_util);
        if (std::abs(next_cpi - cpi) < 1e-9) {
            cpi = next_cpi;
            break;
        }
        cpi = next_cpi;
    }

    // Far-tier bandwidth cap: if the converged demand exceeds the far
    // tier's supply, the CPI floor is set by the far tier (Eq. 4
    // inverted on the far-tier share of traffic).
    double inst_rate = cps / cpi * static_cast<double>(cores);
    double far_demand = bytes_per_inst * (1.0 - hit) * inst_rate;
    if (far_demand > far_bw * 0.95) {
        res.farBandwidthBound = true;
        double bw_cpi = bytes_per_inst * (1.0 - hit) * cps /
                        (far_bw * 0.95 / static_cast<double>(cores));
        cpi = std::max(cpi, bw_cpi);
    }

    res.cpiEff = cpi;
    inst_rate = cps / cpi * static_cast<double>(cores);
    res.nearUtilization = bytes_per_inst * hit * inst_rate / near_bw;
    res.farUtilization = bytes_per_inst * (1.0 - hit) * inst_rate / far_bw;
    return res;
}

std::vector<TieredResult>
TieredMemoryModel::capacitySweep(const WorkloadParams &p, double ghz,
                                 int cores,
                                 const std::vector<double> &capacities) const
{
    requireConfig(ghz > 0.0, "core frequency must be positive");
    std::vector<TieredResult> out;
    out.reserve(capacities.size());
    for (double cap : capacities) {
        requireConfig(cap >= 0.0, "near capacity must be >= 0");
        TieredMemoryModel m = *this;
        m.near.capacityGB = cap;
        out.push_back(m.evaluate(p, ghz, cores));
    }
    return out;
}

} // namespace memsense::model
