#include "model/equivalence.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contract.hh"
#include "util/error.hh"

namespace memsense::model
{

namespace
{
constexpr double kInf = std::numeric_limits<double>::infinity();
} // anonymous namespace

EquivalenceAnalyzer::EquivalenceAnalyzer(Solver solver_in, Platform baseline)
    : solver(std::move(solver_in)), base(std::move(baseline))
{
    base.validate();
}

EquivalenceAnalyzer::EquivalenceAnalyzer(const SolveEngine &engine_in,
                                         Platform baseline)
    : engine(&engine_in), base(std::move(baseline))
{
    base.validate();
}

Platform
EquivalenceAnalyzer::withExtraBandwidth(double extra_gbps_total) const
{
    // Scale efficiency so that effectiveBandwidth grows by exactly the
    // requested amount; the analytic model only consumes the effective
    // bandwidth, so this is equivalent to adding channels fractionally.
    Platform plat = base;
    double eff_bw = base.memory.effectiveBandwidth();
    MS_REQUIRE(eff_bw > 0.0, "baseline effective bandwidth ", eff_bw,
               " must be positive to scale it");
    double target = eff_bw + extra_gbps_total * 1e9;
    double scale = target / eff_bw;
    double new_eff = base.memory.efficiency * scale;
    if (new_eff > 1.0) {
        // Grow the channel rate instead once efficiency saturates.
        plat.memory = base.memory.withEfficiency(1.0).withSpeed(
            base.memory.megaTransfers * new_eff);
    } else {
        plat.memory = base.memory.withEfficiency(new_eff);
    }
    return plat;
}

Platform
EquivalenceAnalyzer::withReducedLatency(double delta_ns) const
{
    MS_REQUIRE(delta_ns >= 0.0, "latency reduction ", delta_ns,
               " ns must be non-negative");
    Platform plat = base;
    double ns = std::max(1.0, base.memory.compulsoryNs - delta_ns);
    plat.memory = base.memory.withCompulsoryNs(ns);
    return plat;
}

double
EquivalenceAnalyzer::perfGainFromBandwidth(const WorkloadParams &p,
                                           double gbps_per_core) const
{
    requireConfig(gbps_per_core >= 0.0, "bandwidth delta must be >= 0");
    double base_cpi = eng().solve(p, base).cpiEff;
    Platform plat = withExtraBandwidth(
        gbps_per_core * static_cast<double>(base.cores));
    double new_cpi = eng().solve(p, plat).cpiEff;
    MS_REQUIRE(new_cpi > 0.0, "solved CPI ", new_cpi,
               " must be positive to express a relative gain");
    return (base_cpi / new_cpi - 1.0) * 100.0;
}

double
EquivalenceAnalyzer::perfGainFromLatency(const WorkloadParams &p,
                                         double delta_ns) const
{
    requireConfig(delta_ns >= 0.0, "latency delta must be >= 0");
    double base_cpi = eng().solve(p, base).cpiEff;
    double new_cpi = eng().solve(p, withReducedLatency(delta_ns)).cpiEff;
    MS_REQUIRE(new_cpi > 0.0, "solved CPI ", new_cpi,
               " must be positive to express a relative gain");
    return (base_cpi / new_cpi - 1.0) * 100.0;
}

double
EquivalenceAnalyzer::bandwidthEquivalentOfLatency(const WorkloadParams &p,
                                                  double delta_ns,
                                                  double negligible) const
{
    MS_REQUIRE(negligible >= 0.0, "negligible threshold ", negligible,
               " must be non-negative");
    double base_cpi = eng().solve(p, base).cpiEff;
    double target_cpi = eng().solve(p, withReducedLatency(delta_ns)).cpiEff;
    if (base_cpi - target_cpi <= negligible * base_cpi)
        return 0.0; // latency gives (almost) nothing: zero BW matches it

    // CPI is non-increasing in bandwidth; bisect for the extra GB/s
    // whose CPI matches target_cpi.
    double lo = 0.0;
    double hi = 1.0;
    auto cpi_at = [&](double extra) {
        return eng().solve(p, withExtraBandwidth(extra)).cpiEff;
    };
    const double hi_cap = 100000.0; // 100 TB/s: effectively unreachable
    while (cpi_at(hi) > target_cpi) {
        hi *= 2.0;
        if (hi > hi_cap)
            return kInf;
    }
    for (int i = 0; i < 80; ++i) {
        double mid = 0.5 * (lo + hi);
        if (cpi_at(mid) > target_cpi)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

double
EquivalenceAnalyzer::latencyEquivalentOfBandwidth(const WorkloadParams &p,
                                                  double gbps_per_core,
                                                  double negligible) const
{
    MS_REQUIRE(negligible >= 0.0, "negligible threshold ", negligible,
               " must be non-negative");
    double base_cpi = eng().solve(p, base).cpiEff;
    Platform plat = withExtraBandwidth(
        gbps_per_core * static_cast<double>(base.cores));
    double target_cpi = eng().solve(p, plat).cpiEff;
    if (base_cpi - target_cpi <= negligible * base_cpi)
        return 0.0; // bandwidth gives (almost) nothing

    auto cpi_at = [&](double dns) {
        return eng().solve(p, withReducedLatency(dns)).cpiEff;
    };
    // The compulsory latency cannot drop below 1 ns; if even that is
    // not enough, no latency reduction matches the bandwidth gain.
    // A baseline already at or below 1 ns has no room at all — the
    // old `compulsoryNs - 1.0` bracket went negative there and the
    // bisection converged onto nonsense negative "equivalents".
    double max_dns = base.memory.compulsoryNs - 1.0;
    if (max_dns <= 0.0 || cpi_at(max_dns) > target_cpi)
        return kInf;
    double lo = 0.0;
    double hi = max_dns;
    for (int i = 0; i < 80; ++i) {
        double mid = 0.5 * (lo + hi);
        if (cpi_at(mid) > target_cpi)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

TradeoffSummary
EquivalenceAnalyzer::summarize(const WorkloadParams &p) const
{
    TradeoffSummary s;
    s.name = p.name;
    s.baselineCpi = eng().solve(p, base).cpiEff;
    s.perfGainBandwidthPct = perfGainFromBandwidth(p);
    s.perfGainLatencyPct = perfGainFromLatency(p);
    s.bandwidthEquivalentGBps = bandwidthEquivalentOfLatency(p);
    s.latencyEquivalentNs = latencyEquivalentOfBandwidth(p);
    return s;
}

} // namespace memsense::model
