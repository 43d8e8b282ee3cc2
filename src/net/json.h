#ifndef SGNN_NET_JSON_H_
#define SGNN_NET_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/batching_server.h"

namespace sgnn::net {

/// JSON bodies of the inference API. One serializer is shared by the
/// server, the client, and the tests. Numbers go through `obs::AppendNumber`
/// (the `%.9g` bytes of a float, read from no locale), which is what makes
/// the "HTTP response is bit-identical to the in-process response"
/// guarantee checkable byte-for-byte.

/// Parsed body of `POST /v1/infer`:
///   {"node": 7, "tenant": "team-a", "deadline_micros": 5000}
/// `tenant` and `deadline_micros` are optional (default tenant, no
/// deadline).
struct InferRequestBody {
  int64_t node = 0;
  std::string tenant;
  int64_t deadline_micros = 0;
};

/// Parses an infer request body. A flat-object JSON subset: string and
/// integer members only, unknown keys rejected (`kInvalidArgument`, which
/// the front door answers 400) so client typos fail loudly.
SGNN_NODISCARD common::StatusOr<InferRequestBody> ParseInferRequest(
    std::string_view json);

/// Renders a terminal inference response. Success:
///   {"status":"ok","node":7,"tenant":"team-a","predicted_class":2,
///    "cache_hit":true,"degraded":false,"logits":[...]}
/// Failure: {"status":"<code name>","node":7,"error":"<message>"}.
/// Latency is deliberately absent: it is the one volatile field, and
/// excluding it keeps HTTP bodies bit-comparable across transports. The
/// body is appended into one string reserved once.
std::string RenderInferResponse(const serve::InferenceResponse& response);

/// Renders a bare error body: {"status":"<code name>","error":"<message>"}.
std::string RenderError(const common::Status& status);

/// Lower-snake-case name of a status code ("ok", "unavailable",
/// "resource_exhausted", ...), the `status` field of the JSON bodies.
const char* StatusCodeJsonName(common::StatusCode code);

/// HTTP status code conveying `code`: 200 for OK, 400 invalid argument,
/// 404 not found, 413/431 resource exhausted at the parser, 429 resource
/// exhausted at admission, 503 unavailable, 504 deadline exceeded, 500
/// anything else.
int HttpStatusForCode(common::StatusCode code);

}  // namespace sgnn::net

#endif  // SGNN_NET_JSON_H_
