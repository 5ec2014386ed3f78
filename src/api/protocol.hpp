// Versioned JSON wire protocol for rsp::api::Service.
//
// Version 2, the only one served: one request per JSON object, designed
// for NDJSON streams:
//
//   {"protocol_version": 2, "id": "r1", "op": "eval", "kernel": "SAD"}
//
// `protocol_version` and `id` are mandatory; `id` (a string or number) is
// echoed verbatim in the response so clients can match responses that
// complete out of order. Unknown fields are rejected — a typo'd field
// silently ignored would look like a successful request. Responses:
//
//   {"protocol_version": 2, "id": "r1", "op": "eval", "ok": true, ...}
//   {"protocol_version": 2, "id": "r1", "ok": false, "error": "..."}
//
// The full schema reference lives in docs/PROTOCOL.md.
#pragma once

#include <string>

#include "api/service.hpp"
#include "util/json.hpp"

namespace rsp::api {

inline constexpr int kProtocolVersion = 2;

/// Decodes a v2 request object (envelope + payload, strict field checking).
/// Throws InvalidArgumentError/NotFoundError with a message suitable for an
/// in-band error response.
Request decode_v2_request(const util::Json& doc);

/// Response-body renderers: {"op": ..., "ok": true, <payload>}. The body
/// carries no envelope; serve adds one.
util::Json to_body(const ListResponse&);
util::Json to_body(const EvalResponse&);
util::Json to_body(const DseResponse&);
util::Json to_body(const MapResponse&);
util::Json to_body(const SimulateResponse&);
util::Json to_body(const SimulateBatchResponse&);
util::Json to_body(const LintResponse&);
util::Json to_body(const RtlResponse&);
util::Json to_body(const DotResponse&);
util::Json to_body(const VcdResponse&);
util::Json to_body(const BitstreamResponse&);
util::Json to_body(const CacheStatsResponse&);
util::Json to_body(const CacheSaveResponse&);
util::Json to_body(const CacheLoadResponse&);
util::Json to_body(const PingResponse&);

/// {"ok": false, "error": message} — the in-band failure body.
util::Json error_body(const std::string& message);

/// Wraps a body in the v2 envelope: protocol_version and the echoed `id`
/// first, then the body's fields in order (moved, not copied — rtl/vcd
/// bodies carry the whole generated text).
util::Json encode_v2_response(const util::Json& id, util::Json body);

}  // namespace rsp::api
