#include "server/protocol.hh"

#include "server/catalog.hh"
#include "server/json.hh"

#ifndef MEMWALL_GIT_DESCRIBE
#define MEMWALL_GIT_DESCRIBE ""
#endif
#ifndef MEMWALL_SOURCE_DIGEST
#define MEMWALL_SOURCE_DIGEST "nodigest"
#endif

namespace memwall {
namespace server {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadFrame: return "bad_frame";
    case ErrorCode::Oversized: return "oversized";
    case ErrorCode::BadJson: return "bad_json";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownExperiment: return "unknown_experiment";
    case ErrorCode::BadParam: return "bad_param";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::WorkerFailed: return "worker_failed";
    case ErrorCode::Quarantined: return "quarantined";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

namespace {

/** Schema-check one field as an exact uint64, with a named error. */
bool
takeU64(const JsonValue &v, const char *field, std::uint64_t &out,
        ErrorCode &code, std::string &detail)
{
    if (!v.asU64(out)) {
        code = ErrorCode::BadParam;
        detail = std::string("field \"") + field +
                 "\" must be a non-negative integer";
        return false;
    }
    return true;
}

} // namespace

bool
parseRequest(const std::string &payload, Request &out,
             ErrorCode &code, std::string &detail)
{
    out = Request{};

    JsonValue root;
    std::string err;
    if (!parseJson(payload, root, err)) {
        code = ErrorCode::BadJson;
        detail = err;
        return false;
    }
    if (!root.isObject()) {
        code = ErrorCode::BadRequest;
        detail = "request must be a JSON object";
        return false;
    }

    // Grab the id first so even a failed validation can echo it.
    if (const JsonValue *id = root.find("id"); id && id->isString())
        out.id = id->text;

    bool have_experiment = false;
    for (const auto &m : root.members) {
        const std::string &key = m.first;
        const JsonValue &v = m.second;
        if (key == "id") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"id\" must be a string";
                return false;
            }
        } else if (key == "cmd") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"cmd\" must be a string";
                return false;
            }
            if (v.text == "run")
                out.cmd = Request::Cmd::Run;
            else if (v.text == "stats")
                out.cmd = Request::Cmd::Stats;
            else if (v.text == "ping")
                out.cmd = Request::Cmd::Ping;
            else if (v.text == "shutdown")
                out.cmd = Request::Cmd::Shutdown;
            else {
                code = ErrorCode::BadRequest;
                detail = "unknown cmd \"" + v.text + "\"";
                return false;
            }
        } else if (key == "experiment") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"experiment\" must be a string";
                return false;
            }
            if (!parseExperimentName(v.text, out.run.experiment)) {
                code = ErrorCode::UnknownExperiment;
                detail = "unknown experiment \"" + v.text +
                         "\" (catalog: " + catalogNames() + ")";
                return false;
            }
            have_experiment = true;
        } else if (key == "quick") {
            if (!v.isBool()) {
                code = ErrorCode::BadRequest;
                detail = "field \"quick\" must be a boolean";
                return false;
            }
            out.run.quick = v.boolean;
        } else if (key == "refs") {
            if (!takeU64(v, "refs", out.run.refs, code, detail))
                return false;
        } else if (key == "seed") {
            if (!takeU64(v, "seed", out.run.seed, code, detail))
                return false;
        } else if (key == "nodes") {
            if (!takeU64(v, "nodes", out.run.nodes, code, detail))
                return false;
        } else if (key == "sample") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"sample\" must be a string (the "
                         "--sample plan syntax)";
                return false;
            }
            std::string why;
            if (!tryParseSamplingPlan(v.text, out.run.sample,
                                      &why)) {
                code = ErrorCode::BadParam;
                detail = "field \"sample\": " + why;
                return false;
            }
            out.run.has_sample = true;
        } else if (key == "deadline_ms") {
            if (!takeU64(v, "deadline_ms", out.run.deadline_ms, code,
                         detail))
                return false;
            if (out.run.deadline_ms > max_deadline_ms) {
                code = ErrorCode::BadParam;
                detail = "\"deadline_ms\" of " +
                         std::to_string(out.run.deadline_ms) +
                         " exceeds the maximum of " +
                         std::to_string(max_deadline_ms);
                return false;
            }
        } else {
            code = ErrorCode::BadRequest;
            detail = "unknown field \"" + key + "\"";
            return false;
        }
    }

    if (out.cmd == Request::Cmd::Run) {
        if (!have_experiment) {
            code = ErrorCode::BadRequest;
            detail = "run request is missing \"experiment\"";
            return false;
        }
        if (!validateRun(out.run, code, detail))
            return false;
    }
    return true;
}

std::string
sanitizeBuildId(const std::string &raw,
                const std::string &source_digest)
{
    if (raw.empty())
        return "src-" + source_digest;
    const std::string dirty = "-dirty";
    if (raw.size() >= dirty.size() &&
        raw.compare(raw.size() - dirty.size(), dirty.size(),
                    dirty) == 0)
        return raw + "+" + source_digest;
    return raw;
}

const char *
gitDescribe()
{
    static const std::string id =
        sanitizeBuildId(MEMWALL_GIT_DESCRIBE, MEMWALL_SOURCE_DIGEST);
    return id.c_str();
}

std::string
okResponse(const std::string &id, bool cached,
           const std::string &result_json)
{
    std::string out = "{\"id\":\"" + jsonEscape(id) +
                      "\",\"status\":\"ok\",\"cached\":";
    out += cached ? "true" : "false";
    // "result" last, value spliced verbatim: the member's byte span
    // in the response is exactly the one-shot binary's output.
    out += ",\"result\":";
    out += result_json;
    out += "}";
    return out;
}

std::string
errorResponse(const std::string &id, ErrorCode code,
              const std::string &detail, long retry_after_ms)
{
    std::string out = "{\"id\":\"" + jsonEscape(id) +
                      "\",\"status\":\"error\",\"error\":{\"code\":\"";
    out += errorCodeName(code);
    out += "\",\"detail\":\"" + jsonEscape(detail) + "\"";
    if (retry_after_ms >= 0)
        out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
    out += "}}";
    return out;
}

} // namespace server
} // namespace memwall
