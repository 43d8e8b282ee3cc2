#include "net/json.h"

#include <cctype>
#include <charconv>
#include <optional>

#include "obs/json.h"

namespace sgnn::net {

namespace {

/// Cursor over the request-body subset: a single flat object whose values
/// are strings or integers. Hand-rolled on purpose — no dependency, and
/// small enough to reason about every byte.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  common::Status ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return common::Status::InvalidArgument("expected '\"' at offset " +
                                             obs::NumberText(pos_));
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default:
            return common::Status::InvalidArgument(
                std::string("unsupported escape '\\") + esc + "'");
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) {
      return common::Status::InvalidArgument("unterminated string");
    }
    ++pos_;  // Closing quote.
    return common::Status::OK();
  }

  common::Status ParseInt(int64_t* out) {
    SkipWs();
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc() || ptr == begin) {
      return common::Status::InvalidArgument("expected integer at offset " +
                                             obs::NumberText(pos_));
    }
    pos_ += static_cast<size_t>(ptr - begin);
    return common::Status::OK();
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

common::StatusOr<InferRequestBody> ParseInferRequest(std::string_view json) {
  JsonCursor cur(json);
  if (!cur.Consume('{')) {
    return common::Status::InvalidArgument("request body must be a JSON object");
  }
  InferRequestBody body;
  bool saw_node = false;
  if (!cur.Consume('}')) {
    do {
      std::string key;
      common::Status s = cur.ParseString(&key);
      if (!s.ok()) return s;
      if (!cur.Consume(':')) {
        return common::Status::InvalidArgument("expected ':' after \"" + key +
                                               "\"");
      }
      if (key == "node") {
        s = cur.ParseInt(&body.node);
        saw_node = true;
      } else if (key == "tenant") {
        s = cur.ParseString(&body.tenant);
      } else if (key == "deadline_micros") {
        s = cur.ParseInt(&body.deadline_micros);
      } else {
        return common::Status::InvalidArgument("unknown key \"" + key + "\"");
      }
      if (!s.ok()) return s;
    } while (cur.Consume(','));
    if (!cur.Consume('}')) {
      return common::Status::InvalidArgument("expected ',' or '}'");
    }
  }
  if (!cur.AtEnd()) {
    return common::Status::InvalidArgument("trailing bytes after object");
  }
  if (!saw_node) {
    return common::Status::InvalidArgument("missing required key \"node\"");
  }
  if (body.deadline_micros < 0) {
    return common::Status::InvalidArgument("deadline_micros must be >= 0");
  }
  return body;
}

const char* StatusCodeJsonName(common::StatusCode code) {
  switch (code) {
    case common::StatusCode::kOk: return "ok";
    case common::StatusCode::kInvalidArgument: return "invalid_argument";
    case common::StatusCode::kNotFound: return "not_found";
    case common::StatusCode::kOutOfRange: return "out_of_range";
    case common::StatusCode::kFailedPrecondition: return "failed_precondition";
    case common::StatusCode::kIOError: return "io_error";
    case common::StatusCode::kInternal: return "internal";
    case common::StatusCode::kUnavailable: return "unavailable";
    case common::StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case common::StatusCode::kAborted: return "aborted";
    case common::StatusCode::kResourceExhausted: return "resource_exhausted";
    case common::StatusCode::kDataLoss: return "data_loss";
  }
  return "unknown";
}

int HttpStatusForCode(common::StatusCode code) {
  switch (code) {
    case common::StatusCode::kOk: return 200;
    case common::StatusCode::kInvalidArgument: return 400;
    case common::StatusCode::kOutOfRange: return 400;
    case common::StatusCode::kNotFound: return 404;
    case common::StatusCode::kResourceExhausted: return 429;
    case common::StatusCode::kUnavailable: return 503;
    case common::StatusCode::kFailedPrecondition: return 503;
    case common::StatusCode::kAborted: return 503;
    case common::StatusCode::kDeadlineExceeded: return 504;
    default: return 500;
  }
}

namespace {

/// Bytes of an ok body besides its tenant and logits: 101 literal bytes, a
/// node id and a class (10 and 11 characters at most).
constexpr size_t kOkBodyBytes = 128;
/// Bytes of an error body besides its message: 32 literal bytes, a status
/// name (19 at most) and a node id.
constexpr size_t kErrorBodyBytes = 64;

/// {"status":"<code name>"[,"node":<node>],"error":"<message>"}.
std::string RenderErrorBody(const common::Status& status,
                            std::optional<graph::NodeId> node) {
  std::string out;
  out.reserve(kErrorBodyBytes +
              obs::kMaxEscapedBytes * status.message().size());
  out += "{\"status\":\"";
  out += StatusCodeJsonName(status.code());
  out += '"';
  if (node.has_value()) {
    out += ",\"node\":";
    obs::AppendNumber(&out, *node);
  }
  out += ",\"error\":\"";
  obs::AppendJsonEscaped(&out, status.message());
  out += "\"}";
  return out;
}

}  // namespace

std::string RenderInferResponse(const serve::InferenceResponse& response) {
  if (!response.status.ok()) {
    return RenderErrorBody(response.status, response.node);
  }
  std::string out;
  out.reserve(kOkBodyBytes + obs::kMaxEscapedBytes * response.tenant_id.size() +
              (obs::kMaxNumberBytes + 1) * response.logits.size());
  out += "{\"status\":\"ok\",\"node\":";
  obs::AppendNumber(&out, response.node);
  out += ",\"tenant\":\"";
  obs::AppendJsonEscaped(&out, response.tenant_id);
  out += "\",\"predicted_class\":";
  obs::AppendNumber(&out, response.predicted_class);
  out += response.cache_hit ? ",\"cache_hit\":true" : ",\"cache_hit\":false";
  out += response.degraded ? ",\"degraded\":true" : ",\"degraded\":false";
  out += ",\"logits\":[";
  for (size_t i = 0; i < response.logits.size(); ++i) {
    if (i > 0) out += ',';
    obs::AppendNumber(&out, response.logits[i]);
  }
  out += "]}";
  return out;
}

std::string RenderError(const common::Status& status) {
  return RenderErrorBody(status, std::nullopt);
}

}  // namespace sgnn::net
