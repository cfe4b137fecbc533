#include "serve/request.hh"

#include <span>
#include <string_view>

#include "model/paper_data.hh"
#include "serve/json.hh"
#include "serve/json_reader.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
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

/**
 * Every field a request line can set. kWorkload and kPlatform are
 * sections: an object there is scanned for its own fields, and any
 * other value (recorded, so a later occurrence is still dropped)
 * leaves the class means or the baseline in place.
 */
enum Field : unsigned char
{
    kId,
    kWorkload,
    kPlatform,
    kDeadlineMs,
    kAllowStale,
    kClass,
    kName,
    kCpiCache,
    kBf,
    kMpki,
    kWbr,
    kIopi,
    kIoBytes,
    kCores,
    kSmt,
    kGhz,
    kChannels,
    kSpeedMts,
    kEfficiency,
    kLatencyNs,
    kFieldCount,
};

/** One member name a section accepts. */
struct Key
{
    std::string_view name;
    Field field;
};

constexpr Key kRequestKeys[] = {
    {"id", kId},
    {"workload", kWorkload},
    {"platform", kPlatform},
    {"deadline_ms", kDeadlineMs},
    {"allow_stale", kAllowStale},
};

constexpr Key kWorkloadKeys[] = {
    {"class", kClass}, {"name", kName}, {"cpi_cache", kCpiCache},
    {"bf", kBf},       {"mpki", kMpki}, {"wbr", kWbr},
    {"iopi", kIopi},   {"io_bytes", kIoBytes},
};

constexpr Key kPlatformKeys[] = {
    {"cores", kCores},
    {"smt", kSmt},
    {"ghz", kGhz},
    {"channels", kChannels},
    {"speed_mts", kSpeedMts},
    {"efficiency", kEfficiency},
    {"latency_ns", kLatencyNs},
};

/** What the first occurrence of a field held. */
enum class Got : unsigned char
{
    Nothing, ///< no occurrence
    Number,
    String,
    Bool,
    Object,
    Other,
};

struct Slot
{
    Got got = Got::Nothing;
    bool flag = false; ///< valid when got == Bool
    double num = 0.0;  ///< valid when got == Number
};

/**
 * parseRequestLine's consumer of the JSON grammar. scan() makes one
 * pass over the line and keeps the first occurrence of every field,
 * decoding strings straight into the request; unknown and repeated
 * members are validated like the rest, then dropped. apply() then
 * checks the kept fields in a fixed order, so a syntax error anywhere
 * in the line wins over every field error, and field errors come in
 * the same order whatever order the line names the fields in.
 */
class RequestDecoder
{
  public:
    RequestDecoder(std::string_view line, EvalRequest &req_in)
        : reader(line, JsonLimits{}), req(req_in)
    {}

    void
    scan()
    {
        reader.open();
        reader.value(Keep{*this, document, kRequestKeys, nullptr});
        reader.close();
    }

    void
    apply(std::size_t line_number)
    {
        requireConfig(document.got == Got::Object,
                      "request line must be a JSON object");
        if (!present(kId))
            req.id = "line-" + std::to_string(line_number);
        else
            requireKind(kId, Got::String, "id");

        model::WorkloadClass cls = model::WorkloadClass::BigData;
        if (present(kClass)) {
            requireKind(kClass, Got::String, "workload.class");
            cls = classFromName(className);
        }
        req.workload = model::paper::classParams(cls);
        model::WorkloadParams &w = req.workload;
        if (present(kName)) {
            requireKind(kName, Got::String, "workload.name");
            w.name = std::move(workloadName);
        }
        number(kCpiCache, "workload.cpi_cache", w.cpiCache);
        number(kBf, "workload.bf", w.bf);
        number(kMpki, "workload.mpki", w.mpki);
        number(kWbr, "workload.wbr", w.wbr);
        number(kIopi, "workload.iopi", w.iopi);
        number(kIoBytes, "workload.io_bytes", w.ioBytes);

        model::Platform &plat = req.platform; // defaults == paper baseline
        integer(kCores, "platform.cores", plat.cores);
        integer(kSmt, "platform.smt", plat.smt);
        number(kGhz, "platform.ghz", plat.ghz);
        integer(kChannels, "platform.channels", plat.memory.channels);
        number(kSpeedMts, "platform.speed_mts", plat.memory.megaTransfers);
        number(kEfficiency, "platform.efficiency", plat.memory.efficiency);
        number(kLatencyNs, "platform.latency_ns", plat.memory.compulsoryNs);

        if (present(kDeadlineMs)) {
            number(kDeadlineMs, "deadline_ms", req.deadlineMs);
            requireConfig(req.deadlineMs >= 0.0, "deadline_ms must be >= 0");
        }
        if (present(kAllowStale)) {
            requireKind(kAllowStale, Got::Bool, "allow_stale");
            req.allowStale = slots[kAllowStale].flag;
        }
    }

  private:
    /**
     * Visitor of one field's value. A section (a field with @p keys)
     * scans an object for its own fields; any other field keeps a
     * number, a boolean, or a string when it has somewhere to put one.
     * A value of any other kind is only recorded.
     */
    struct Keep
    {
        RequestDecoder &d;
        Slot &slot;
        std::span<const Key> keys; ///< the section's fields, if one
        std::string *text;         ///< where a string goes, if anywhere

        void
        object(JsonReader &r)
        {
            if (keys.empty()) {
                other(r);
                return;
            }
            slot.got = Got::Object;
            r.object(d.key, [this](const std::string &name) {
                d.member(name, keys);
            });
        }
        void array(JsonReader &r) { other(r); }
        void
        string(JsonReader &r)
        {
            if (text == nullptr) {
                other(r);
                return;
            }
            slot.got = Got::String;
            r.string(*text);
        }
        void
        boolean(bool flag)
        {
            slot.got = Got::Bool;
            slot.flag = flag;
        }
        void null() { slot.got = Got::Other; }
        void
        number(double num)
        {
            slot.got = Got::Number;
            slot.num = num;
        }
        void
        other(JsonReader &r)
        {
            slot.got = Got::Other;
            r.skipValue();
        }
    };

    /** Route the value of member @p name of a section with @p keys. */
    void
    member(std::string_view name, std::span<const Key> keys)
    {
        Field field = kFieldCount;
        for (const Key &k : keys) {
            if (k.name == name) {
                field = k.field;
                break;
            }
        }
        if (field == kFieldCount || present(field)) {
            reader.skipValue();
            return;
        }
        reader.value(Keep{*this, slots[field], keysOf(field), textOf(field)});
    }

    /** The fields of section @p field; empty for any other field. */
    static std::span<const Key>
    keysOf(Field field)
    {
        switch (field) {
        case kWorkload: return kWorkloadKeys;
        case kPlatform: return kPlatformKeys;
        default: return {};
        }
    }

    /** Where a string value of @p field is decoded to, if anywhere. */
    std::string *
    textOf(Field field)
    {
        switch (field) {
        case kId: return &req.id;
        case kClass: return &className;
        case kName: return &workloadName;
        default: return nullptr;
        }
    }

    bool present(Field field) const { return slots[field].got != Got::Nothing; }

    void
    requireKind(Field field, Got kind, std::string_view what) const
    {
        if (slots[field].got == kind)
            return;
        throwWrongKind(what, kind == Got::String ? "string"
                             : kind == Got::Bool ? "boolean"
                                                 : "number");
    }

    void
    number(Field field, std::string_view what, double &out) const
    {
        if (!present(field))
            return;
        requireKind(field, Got::Number, what);
        out = slots[field].num;
    }

    void
    integer(Field field, std::string_view what, int &out) const
    {
        if (!present(field))
            return;
        requireKind(field, Got::Number, what);
        out = jsonInt(slots[field].num, what);
    }

    JsonReader reader;
    EvalRequest &req;
    Slot document;             ///< the line's top-level value
    Slot slots[kFieldCount];   ///< first occurrence of each field
    std::string className;     ///< workload.class, when a string
    std::string workloadName;  ///< workload.name, when a string
    /** The member name being routed. One buffer serves every object
     *  of the line: member() looks a name up before it scans the
     *  value, which may decode nested names into the buffer. */
    std::string key;
};

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
    // The parse fault site of the chaos harness, as in parseJson: it
    // fires once per request line.
    MS_FAULT_POINT("serve.json.parse");
    EvalRequest req;
    RequestDecoder decoder(line, req);
    decoder.scan();
    decoder.apply(line_number);
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
