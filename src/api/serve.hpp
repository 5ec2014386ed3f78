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
// stream's most recently accepted requests (ServeOptions::seen_id_window,
// default kDefaultSeenIdWindow): a duplicate inside the window is rejected
// in-band, while an id older than the window may be reused — bounding
// duplicate tracking to window-many id strings keeps a long-lived socket
// connection from accumulating one id per request forever.
//
// A request line longer than kMaxRequestLineBytes is never held whole: it
// is answered with an in-band error (null id), discarded through its
// newline, and the loop keeps reading.
#pragma once

#include <cstddef>
#include <iosfwd>

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
inline constexpr std::size_t kDefaultSeenIdWindow = 65536;

struct ServeOptions {
  /// Sliding-window size for duplicate-id rejection; 0 disables the bound
  /// (every id retained for the stream's lifetime, the pre-socket
  /// behaviour).
  std::size_t seen_id_window = kDefaultSeenIdWindow;
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
ServeResult serve(Service& service, std::istream& in, std::ostream& out,
                  const ServeOptions& options = {});

}  // namespace rsp::api
