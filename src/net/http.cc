#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "obs/json.h"

namespace sgnn::net {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parsed shape of a header block: everything but the start line, which
/// differs between requests and responses.
struct MessageHead {
  std::string start_line;
  HttpHeaders headers;
  size_t body_length = 0;
  size_t head_bytes = 0;  ///< Start line through the blank line, inclusive.
};

/// Finds and parses one complete header block at the front of `buffer`.
/// Returns OK with `head->head_bytes > 0` when complete, OK with
/// `head->head_bytes == 0` when more bytes are needed, or an error.
common::Status ParseHead(const std::string& buffer, const HttpLimits& limits,
                         MessageHead* head) {
  head->head_bytes = 0;
  const size_t end = buffer.find("\r\n\r\n");
  if (end == std::string::npos) {
    // No complete head yet; police the limits against what has piled up so
    // a peer can't grow the buffer forever by never sending the blank line.
    const size_t line_end = buffer.find("\r\n");
    if (line_end == std::string::npos &&
        buffer.size() > limits.max_start_line_bytes) {
      return common::Status::ResourceExhausted(
          "start line exceeds " + obs::NumberText(limits.max_start_line_bytes) +
          " bytes");
    }
    if (buffer.size() > limits.max_header_bytes) {
      return common::Status::ResourceExhausted(
          "header block exceeds " + obs::NumberText(limits.max_header_bytes) +
          " bytes");
    }
    return common::Status::OK();
  }
  if (end + 4 > limits.max_header_bytes) {
    return common::Status::ResourceExhausted(
        "header block exceeds " + obs::NumberText(limits.max_header_bytes) +
        " bytes");
  }
  const std::string_view block(buffer.data(), end);
  size_t pos = block.find("\r\n");
  if (pos == std::string::npos) pos = block.size();
  head->start_line = std::string(block.substr(0, pos));
  if (head->start_line.size() > limits.max_start_line_bytes) {
    return common::Status::ResourceExhausted(
        "start line exceeds " + obs::NumberText(limits.max_start_line_bytes) +
        " bytes");
  }
  if (head->start_line.empty()) {
    return common::Status::InvalidArgument("empty start line");
  }
  head->headers.clear();
  while (pos < block.size()) {
    pos += 2;  // Skip the CRLF.
    size_t next = block.find("\r\n", pos);
    if (next == std::string::npos) next = block.size();
    const std::string_view line = block.substr(pos, next - pos);
    pos = next;
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      return common::Status::InvalidArgument(
          "obsolete header continuation line");
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return common::Status::InvalidArgument("malformed header line '" +
                                             std::string(line) + "'");
    }
    head->headers.emplace_back(std::string(TrimOws(line.substr(0, colon))),
                               std::string(TrimOws(line.substr(colon + 1))));
  }

  if (FindHeader(head->headers, "Transfer-Encoding") != nullptr) {
    return common::Status::InvalidArgument(
        "chunked transfer coding is not supported");
  }
  head->body_length = 0;
  if (const std::string* cl = FindHeader(head->headers, "Content-Length")) {
    uint64_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(cl->data(), cl->data() + cl->size(), n);
    if (ec != std::errc() || ptr != cl->data() + cl->size()) {
      return common::Status::InvalidArgument("unparseable Content-Length '" +
                                             *cl + "'");
    }
    if (n > limits.max_body_bytes) {
      return common::Status::ResourceExhausted(
          "body of " + obs::NumberText(n) + " bytes exceeds limit " +
          obs::NumberText(limits.max_body_bytes));
    }
    head->body_length = static_cast<size_t>(n);
  }
  head->head_bytes = end + 4;
  return common::Status::OK();
}

/// Splits `line` at single spaces into exactly three parts.
common::Status SplitStartLine(const std::string& line, std::string* a,
                              std::string* b, std::string* c) {
  const size_t s1 = line.find(' ');
  const size_t s2 = s1 == std::string::npos ? std::string::npos
                                            : line.find(' ', s1 + 1);
  if (s1 == std::string::npos || s2 == std::string::npos) {
    return common::Status::InvalidArgument("malformed start line '" + line +
                                           "'");
  }
  *a = line.substr(0, s1);
  *b = line.substr(s1 + 1, s2 - s1 - 1);
  *c = line.substr(s2 + 1);
  if (a->empty() || b->empty() || c->empty()) {
    return common::Status::InvalidArgument("malformed start line '" + line +
                                           "'");
  }
  return common::Status::OK();
}

/// The request line: method, target, version.
common::Status ParseStartLine(const std::string& line, HttpRequest* request) {
  SGNN_RETURN_IF_ERROR(SplitStartLine(line, &request->method,
                                      &request->target, &request->version));
  if (request->version != "HTTP/1.1" && request->version != "HTTP/1.0") {
    return common::Status::InvalidArgument("unsupported version '" +
                                           request->version + "'");
  }
  return common::Status::OK();
}

/// The status line: version, code, reason.
common::Status ParseStartLine(const std::string& line,
                              HttpResponse* response) {
  std::string version, code;
  SGNN_RETURN_IF_ERROR(SplitStartLine(line, &version, &code,
                                      &response->reason));
  const auto [ptr, ec] = std::from_chars(
      code.data(), code.data() + code.size(), response->status_code);
  if (ec != std::errc() || ptr != code.data() + code.size()) {
    return common::Status::InvalidArgument("unparseable status code '" +
                                           code + "'");
  }
  return common::Status::OK();
}

}  // namespace

const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

template <typename Message>
common::Status HttpParser<Message>::Feed(std::string_view data) {
  if (!error_.ok()) return error_;
  buffer_.append(data.data(), data.size());
  error_ = ParseBuffered();
  return error_;
}

template <typename Message>
common::Status HttpParser<Message>::ParseBuffered() {
  for (;;) {
    MessageHead head;
    SGNN_RETURN_IF_ERROR(ParseHead(buffer_, limits_, &head));
    if (head.head_bytes == 0) return common::Status::OK();  // Need more.
    if (buffer_.size() < head.head_bytes + head.body_length) {
      return common::Status::OK();  // Head complete, body still arriving.
    }
    Message message;
    SGNN_RETURN_IF_ERROR(ParseStartLine(head.start_line, &message));
    message.headers = std::move(head.headers);
    message.body = buffer_.substr(head.head_bytes, head.body_length);
    buffer_.erase(0, head.head_bytes + head.body_length);
    ready_.push_back(std::move(message));
  }
}

template <typename Message>
bool HttpParser<Message>::Take(Message* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

template <typename Message>
common::Status HttpParser<Message>::OnEof() const {
  if (buffer_.empty()) return common::Status::OK();
  return common::Status::DataLoss("peer closed mid-message after " +
                                  obs::NumberText(buffer_.size()) +
                                  " unparsed bytes");
}

template class HttpParser<HttpRequest>;
template class HttpParser<HttpResponse>;

const char* ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

namespace {

/// Appends "Content-Type: <type>\r\nContent-Length: <n>\r\n".
void AppendContentHeaders(std::string* out, std::string_view content_type,
                          size_t content_length) {
  *out += "Content-Type: ";
  *out += content_type;
  *out += "\r\nContent-Length: ";
  obs::AppendNumber(out, content_length);
  *out += "\r\n";
}

/// Bytes of a head besides its strings: the literal parts of the start
/// line, the headers and the blank line (under 64), and two numbers.
constexpr size_t kHeadBytes = 64 + 2 * obs::kMaxNumberBytes;

}  // namespace

std::string SerializeResponse(int status_code, std::string_view reason,
                              std::string_view body,
                              std::string_view content_type) {
  std::string out;
  out.reserve(kHeadBytes + reason.size() + content_type.size() + body.size());
  out += "HTTP/1.1 ";
  obs::AppendNumber(&out, status_code);
  out += ' ';
  out += reason;
  out += "\r\n";
  AppendContentHeaders(&out, content_type, body.size());
  out += "\r\n";
  out += body;
  return out;
}

std::string SerializeRequest(std::string_view method, std::string_view target,
                             std::string_view body,
                             std::string_view content_type) {
  std::string out;
  out.reserve(kHeadBytes + method.size() + target.size() +
              content_type.size() + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: sgnn\r\n";
  if (!body.empty()) AppendContentHeaders(&out, content_type, body.size());
  out += "\r\n";
  out += body;
  return out;
}

}  // namespace sgnn::net
