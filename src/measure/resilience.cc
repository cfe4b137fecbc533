#include "measure/resilience.hh"

#include <chrono>
#include <sstream>

namespace memsense::measure
{

namespace
{

void
jsonEscape(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
}

} // anonymous namespace

void
FailureManifest::merge(const FailureManifest &other)
{
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
}

std::string
FailureManifest::summary(std::size_t total_jobs) const
{
    if (failures.empty())
        return "all " + std::to_string(total_jobs) + " jobs completed";
    std::size_t fatal = 0;
    std::size_t timed_out = 0;
    for (const auto &f : failures) {
        if (f.fatal)
            ++fatal;
        if (f.timedOut)
            ++timed_out;
    }
    std::ostringstream os;
    os << failures.size() << " of " << total_jobs
       << " jobs quarantined (" << fatal << " fatal, " << timed_out
       << " timed out, " << failures.size() - fatal - timed_out
       << " retries exhausted)";
    return os.str();
}

std::string
FailureManifest::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"quarantined\": " << failures.size()
       << ",\n  \"failures\": [";
    bool first = true;
    for (const auto &f : failures) {
        os << (first ? "" : ",") << "\n    {\"jobIndex\": " << f.jobIndex
           << ", \"context\": \"";
        jsonEscape(os, f.context);
        os << "\", \"errorType\": \"";
        jsonEscape(os, f.errorType);
        os << "\", \"message\": \"";
        jsonEscape(os, f.message);
        os << "\", \"attempts\": " << f.attempts
           << ", \"timedOut\": " << (f.timedOut ? "true" : "false")
           << ", \"fatal\": " << (f.fatal ? "true" : "false") << "}";
        first = false;
    }
    os << (failures.empty() ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

ResilienceOptions
ResilienceConfig::toOptions() const
{
    ResilienceOptions opts;
    opts.retry.maxAttempts = maxRetries + 1;
    opts.jobTimeoutMs = jobTimeoutMs;
    return opts;
}

namespace detail
{

double
steadyNowMs()
{
    // The resilience deadline is inherently a wall-clock concept: it
    // guards against jobs that hang, not against model nondeterminism.
    // Simulated results never depend on this value; it only bounds how
    // long a failing job may keep retrying.
    // memsense-lint: allow(no-nondeterminism): cooperative wall-clock
    // deadline; injectable via ResilienceOptions::nowMs for tests.
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace detail

} // namespace memsense::measure
