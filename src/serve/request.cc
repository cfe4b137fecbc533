#include "serve/request.hh"

#include "model/paper_data.hh"
#include "serve/json.hh"
#include "util/error.hh"
#include "util/string_util.hh"

namespace memsense::serve
{

namespace
{

model::WorkloadClass
classFromName(const std::string &cls)
{
    std::string lc = toLower(cls);
    if (lc == "bigdata")
        return model::WorkloadClass::BigData;
    if (lc == "enterprise")
        return model::WorkloadClass::Enterprise;
    if (lc == "hpc")
        return model::WorkloadClass::Hpc;
    throw ConfigError("workload class must be bigdata, enterprise, or "
                      "hpc (got '" +
                      cls + "')");
}

model::WorkloadParams
workloadFrom(const JsonValue &v)
{
    model::WorkloadClass cls = model::WorkloadClass::BigData;
    if (v.has("class"))
        cls = classFromName(v.at("class").asString("workload.class"));
    model::WorkloadParams p = model::paper::classParams(cls);
    if (v.has("name"))
        p.name = v.at("name").asString("workload.name");
    if (v.has("cpi_cache"))
        p.cpiCache = v.at("cpi_cache").asNumber("workload.cpi_cache");
    if (v.has("bf"))
        p.bf = v.at("bf").asNumber("workload.bf");
    if (v.has("mpki"))
        p.mpki = v.at("mpki").asNumber("workload.mpki");
    if (v.has("wbr"))
        p.wbr = v.at("wbr").asNumber("workload.wbr");
    if (v.has("iopi"))
        p.iopi = v.at("iopi").asNumber("workload.iopi");
    if (v.has("io_bytes"))
        p.ioBytes = v.at("io_bytes").asNumber("workload.io_bytes");
    return p;
}

model::Platform
platformFrom(const JsonValue &v)
{
    model::Platform plat; // struct defaults == paper baseline
    if (v.has("cores"))
        plat.cores = v.at("cores").asInt("platform.cores");
    if (v.has("smt"))
        plat.smt = v.at("smt").asInt("platform.smt");
    if (v.has("ghz"))
        plat.ghz = v.at("ghz").asNumber("platform.ghz");
    if (v.has("channels"))
        plat.memory.channels =
            v.at("channels").asInt("platform.channels");
    if (v.has("speed_mts"))
        plat.memory.megaTransfers =
            v.at("speed_mts").asNumber("platform.speed_mts");
    if (v.has("efficiency"))
        plat.memory.efficiency =
            v.at("efficiency").asNumber("platform.efficiency");
    if (v.has("latency_ns"))
        plat.memory.compulsoryNs =
            v.at("latency_ns").asNumber("platform.latency_ns");
    return plat;
}

void
appendErrorJson(std::string &out, const std::string &type,
                const std::string &message, bool fatal, int attempts)
{
    out += "{\"type\":\"";
    appendJsonEscaped(out, type);
    out += "\",\"message\":\"";
    appendJsonEscaped(out, message);
    out += "\",\"fatal\":";
    out += fatal ? "true" : "false";
    out += ",\"attempts\":";
    out += std::to_string(attempts);
    out += '}';
}

/** Reserve for an ok reply's fixed text plus six "%.17g" numbers (at
 *  most 24 characters each), so serializing one is one allocation. */
constexpr std::size_t kOkReplyReserve = 384;

} // anonymous namespace

EvalRequest
parseRequestLine(const std::string &line, std::size_t line_number)
{
    JsonValue v = parseJson(line);
    requireConfig(v.kind == JsonValue::Kind::Object,
                  "request line must be a JSON object");
    EvalRequest req;
    if (v.has("id"))
        req.id = v.at("id").asString("id");
    else
        req.id = "line-" + std::to_string(line_number);
    if (v.has("workload"))
        req.workload = workloadFrom(v.at("workload"));
    else
        req.workload =
            model::paper::classParams(model::WorkloadClass::BigData);
    if (v.has("platform"))
        req.platform = platformFrom(v.at("platform"));
    if (v.has("deadline_ms")) {
        req.deadlineMs = v.at("deadline_ms").asNumber("deadline_ms");
        requireConfig(req.deadlineMs >= 0.0,
                      "deadline_ms must be >= 0");
    }
    if (v.has("allow_stale")) {
        const JsonValue &stale = v.at("allow_stale");
        requireConfig(stale.kind == JsonValue::Kind::Bool,
                      "allow_stale must be a boolean");
        req.allowStale = stale.boolean;
    }
    return req;
}

std::string
resultLine(const EvalOutcome &outcome)
{
    std::string out;
    out.reserve(kOkReplyReserve + outcome.id.size());
    appendResultLine(out, outcome);
    return out;
}

void
appendResultLine(std::string &out, const EvalOutcome &outcome)
{
    out += "{\"id\":\"";
    appendJsonEscaped(out, outcome.id);
    out += "\",";
    if (outcome.result.ok()) {
        const model::OperatingPoint &op = *outcome.result.value;
        if (outcome.degraded)
            out += "\"degraded\":true,";
        out += "\"ok\":true,\"op\":{\"cpi_eff\":";
        appendJsonNumber(out, op.cpiEff);
        out += ",\"miss_penalty_ns\":";
        appendJsonNumber(out, op.missPenaltyNs);
        out += ",\"queuing_delay_ns\":";
        appendJsonNumber(out, op.queuingDelayNs);
        out += ",\"bw_per_core_bps\":";
        appendJsonNumber(out, op.bandwidthPerCoreBps);
        out += ",\"bw_total_bps\":";
        appendJsonNumber(out, op.bandwidthTotalBps);
        out += ",\"utilization\":";
        appendJsonNumber(out, op.utilization);
        out += ",\"bandwidth_bound\":";
        out += op.bandwidthBound ? "true" : "false";
        out += ",\"iterations\":";
        out += std::to_string(op.iterations);
        out += "}}";
        return;
    }
    const measure::FailureRecord &f = *outcome.result.failure;
    out += "\"ok\":false,\"error\":";
    appendErrorJson(out, f.errorType, f.message, f.fatal, f.attempts);
    out += '}';
}

std::string
parseErrorLine(std::size_t line_number, const std::string &message)
{
    return parseErrorLine(line_number, "ConfigError", message, true);
}

std::string
parseErrorLine(std::size_t line_number, const std::string &type,
               const std::string &message, bool fatal)
{
    std::string out = "{\"id\":\"line-" + std::to_string(line_number) +
                      "\",\"ok\":false,\"error\":";
    appendErrorJson(out, type, message, fatal, 0);
    out += '}';
    return out;
}

std::string
errorReplyLine(const std::string &id, const std::string &type,
               const std::string &message, bool fatal)
{
    std::string out = "{\"id\":\"";
    appendJsonEscaped(out, id);
    out += "\",\"ok\":false,\"error\":";
    appendErrorJson(out, type, message, fatal, 0);
    out += '}';
    return out;
}

} // namespace memsense::serve
