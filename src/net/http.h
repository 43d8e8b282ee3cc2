#ifndef SGNN_NET_HTTP_H_
#define SGNN_NET_HTTP_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sgnn::net {

/// Minimal HTTP/1.1 message layer for the serving front door: incremental
/// request/response parsers fed from socket reads, and a response
/// serializer. Pure byte-shuffling — no syscalls — so every edge case
/// (truncation, oversized headers, pipelining, mid-body EOF) is unit
/// testable without a socket.
///
/// Scope is deliberately the subset the serving tier speaks: methods with
/// `Content-Length` bodies (no chunked transfer coding), no continuation
/// lines, case-insensitive header names. Anything outside the subset is a
/// parse error, not undefined behaviour.

/// Header list in received order; names compare case-insensitively.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Case-insensitive lookup; null when absent.
const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name);

struct HttpRequest {
  std::string method;
  std::string target;   ///< Request target as sent, e.g. "/v1/infer".
  std::string version;  ///< "HTTP/1.1".
  HttpHeaders headers;
  std::string body;
};

struct HttpResponse {
  int status_code = 0;
  std::string reason;
  HttpHeaders headers;
  std::string body;
};

/// Parser size bounds; exceeding one is `kResourceExhausted` (the server
/// answers 431/413), which keeps a hostile peer from ballooning memory.
struct HttpLimits {
  size_t max_start_line_bytes = 4096;
  size_t max_header_bytes = 16384;  ///< Start line + all header lines.
  size_t max_body_bytes = 1 << 20;
};

/// Incremental HTTP/1.1 parser, one per direction: `HttpRequestParser`
/// on the server side, `HttpResponseParser` on the client side. Feed it raw
/// socket bytes; take complete messages out as they form (several per feed
/// under pipelining). Only the start line differs between the directions.
/// A parse error is sticky — the connection's framing is gone, so the owner
/// must close after reporting it.
///
/// End-of-stream semantics mirror `dist/frame.h`: a peer that closes at a
/// message boundary is a clean goodbye (`kUnavailable`), one that closes
/// mid-message tore the stream (`kDataLoss`). The front door counts the
/// latter against `/healthz`.
template <typename Message>
class HttpParser {
 public:
  explicit HttpParser(const HttpLimits& limits = HttpLimits())
      : limits_(limits) {}

  /// Appends bytes and parses as far as possible. Errors:
  /// `kInvalidArgument` (malformed line / unsupported framing),
  /// `kResourceExhausted` (a limit exceeded). Sticky on error.
  SGNN_NODISCARD common::Status Feed(std::string_view data);

  /// Classifies end-of-stream: OK when nothing was buffered (the peer
  /// finished cleanly between messages), `kDataLoss` when it died
  /// mid-message.
  SGNN_NODISCARD common::Status OnEof() const;

  /// True while no partial message is buffered.
  bool at_boundary() const { return buffer_.empty(); }

 protected:
  /// Moves the oldest complete message into `*out`; false when none is
  /// ready yet. Each direction names it for its message.
  bool Take(Message* out);

 private:
  SGNN_NODISCARD common::Status ParseBuffered();

  HttpLimits limits_;
  std::string buffer_;
  std::deque<Message> ready_;
  common::Status error_ = common::Status::OK();
};

extern template class HttpParser<HttpRequest>;
extern template class HttpParser<HttpResponse>;

class HttpRequestParser : public HttpParser<HttpRequest> {
 public:
  using HttpParser::HttpParser;
  bool TakeRequest(HttpRequest* out) { return Take(out); }
};

class HttpResponseParser : public HttpParser<HttpResponse> {
 public:
  using HttpParser::HttpParser;
  bool TakeResponse(HttpResponse* out) { return Take(out); }
};

/// Serializes one response with `Content-Length` and the given content
/// type, appended into one string reserved once.
std::string SerializeResponse(int status_code, std::string_view reason,
                              std::string_view body,
                              std::string_view content_type);

/// Serializes one request (`Content-Type` and `Content-Length` added when
/// `body` is non-empty), appended into one string reserved once.
std::string SerializeRequest(std::string_view method, std::string_view target,
                             std::string_view body,
                             std::string_view content_type);

/// Canonical reason phrase for the status codes the front door emits;
/// "Unknown" otherwise.
const char* ReasonPhrase(int status_code);

}  // namespace sgnn::net

#endif  // SGNN_NET_HTTP_H_
