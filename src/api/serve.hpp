// Long-running serving mode: newline-delimited JSON over a byte stream.
//
// Each input line is one v2 request object (see api/protocol.hpp). Requests
// are dispatched concurrently on the Service's pool and each response is
// written — as one line, atomically — the moment it completes, so responses
// may appear out of input order; clients correlate by the echoed `id`.
//
// Protocol errors (a malformed line, an unknown op, a missing
// protocol_version, a duplicate id, ...) produce an in-band
// {"ok": false, "error": ...} response on the output stream and never
// terminate the loop; `id` is echoed when it could be extracted and null
// otherwise. Request ids must be unique within a sliding window of the
// stream's kSeenIdWindow most recently accepted requests: a duplicate
// inside the window is rejected in-band, while an id older than the window
// may be reused — bounding duplicate tracking to window-many id strings
// keeps a long-lived socket connection from accumulating one id per
// request forever.
//
// A request line longer than kMaxRequestLineBytes is never held whole: it
// is answered with an in-band error (null id), discarded through its
// newline, and the loop keeps reading. The loop reads the next line only
// while fewer than kMaxUnansweredRequests of the stream's requests are
// unanswered, so a client that writes without reading makes the server
// hold at most that many queued requests.
#pragma once

#include <cstddef>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_set>

#include "api/service.hpp"

namespace rsp::api {

/// Longest request line serve accepts, newline excluded. The largest
/// legitimate request — a `dse` naming every catalogue kernel — is under
/// 2 KB, so 1 MiB bounds what one client line can make the server buffer
/// without constraining any real request.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Duplicate-id tracking bound: ids are guaranteed unique only among the
/// most recent this-many accepted requests of one stream (~64k id strings
/// of state at worst, regardless of stream lifetime).
inline constexpr std::size_t kSeenIdWindow = 65536;

/// Most requests of one stream that may be unanswered at once. Below the
/// id window, so every unanswered id stays inside it.
inline constexpr std::size_t kMaxUnansweredRequests = 1024;
static_assert(kMaxUnansweredRequests < kSeenIdWindow);

/// Duplicate-id tracker over a sliding window of the last `window` (>= 1)
/// accepted ids: constant space for any stream lifetime. Only *accepted*
/// ids enter the window — a rejected duplicate must not evict (and thereby
/// re-admit) the id it collided with.
class SeenIdWindow {
 public:
  explicit SeenIdWindow(std::size_t window = kSeenIdWindow)
      : window_(window) {}

  /// True when `id` was accepted (not seen within the window).
  bool insert(const std::string& id) {
    if (!seen_.insert(id).second) return false;
    order_.push_back(id);
    if (order_.size() > window_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::size_t window_;
  std::unordered_set<std::string> seen_;
  std::deque<std::string> order_;
};

struct ServeResult {
  std::size_t requests = 0;  ///< lines answered, including error responses
  std::size_t errors = 0;    ///< in-band protocol/execution error responses
  /// False when the output stream failed: responses were lost and the loop
  /// stopped reading early — there is nobody left to answer. Callers
  /// should report this out-of-band (exit code); it cannot travel in-band.
  bool output_ok = true;
};

/// Reads requests from `in` until EOF (or until `out` fails), streaming
/// responses to `out`. Returns after every in-flight request has completed
/// and been written.
ServeResult serve(Service& service, std::istream& in, std::ostream& out);

}  // namespace rsp::api
