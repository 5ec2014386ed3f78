// Socket front-end for the NDJSON serving mode.
//
// `SocketServer` listens on any number of unix-domain sockets and/or TCP
// ports and runs the existing `api::serve` loop per accepted connection
// over a socket-backed iostream. Every connection shares ONE Service —
// the dispatch pool, the EvalCache and the MappingCache stay process-wide,
// so a second client's eval of an already-measured kernel is a cache hit —
// while the serve-loop state (duplicate-id window, in-flight futures) is
// per-connection: id scopes never leak across clients.
//
// Lifecycle:
//   * `run()` accepts in the calling thread and spawns one serving thread
//     per connection, bounded by `max_connections`; a connection over the
//     bound is answered with a single in-band error line and closed.
//   * `shutdown()` (thread- and signal-safe; `install_signal_handlers()`
//     wires it to SIGINT/SIGTERM) drains gracefully: the listeners stop
//     accepting, every active connection's read side is half-closed so its
//     serve loop sees EOF, finishes the requests already in flight and
//     writes their responses, and `run()` returns once the last connection
//     thread has been joined.
//   * Per-connection counters are aggregated and, via
//     `Service::set_stats_extension`, folded into the `cache_stats`
//     response body as a "server" section (see `stats_json()`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <vector>

#include "api/serve.hpp"
#include "api/service.hpp"
#include "util/json.hpp"

namespace rsp::api {

// -------------------------------------------------------------- addresses

/// One `--listen` operand, parsed.
struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;            ///< unix: filesystem path of the socket
  std::string host;            ///< tcp: bind/connect host ("" = all/loopback)
  int port = 0;                ///< tcp: port; 0 binds an ephemeral port
  std::string spec() const;    ///< round-trips to the `--listen` form
};

/// Parses the `--listen` address forms:
///   * anything containing '/', or without ':', is a unix-socket path
///     ("/run/rsp.sock", "./rsp.sock", "rsp.sock");
///   * "host:port" / ":port" is TCP (empty host binds every interface and
///     connects to loopback; port 0 asks for an ephemeral port).
/// Throws InvalidArgumentError on a malformed spec (bad port, empty path).
ListenAddress parse_listen_address(const std::string& spec);

/// Connects a blocking socket to `address` (the client side of the forms
/// above). Returns the connected fd; throws rsp::Error on failure.
int connect_socket(const ListenAddress& address);

// -------------------------------------------------------------- streambuf

/// A std::streambuf over a connected socket fd, buffered both ways.
/// Writes use MSG_NOSIGNAL so a vanished peer surfaces as badbit (which
/// the serve loop already handles) instead of SIGPIPE. The get and put
/// areas are disjoint, so ONE concurrent reader plus ONE concurrent
/// writer thread are safe on a single instance (the serve loop's shape;
/// multiple writers must serialize externally, as serve's output mutex
/// does). Does not own the fd.
class SocketStreamBuf : public std::streambuf {
 public:
  explicit SocketStreamBuf(int fd);

  /// True when a read ended with a socket *error* (ECONNRESET, ...) as
  /// opposed to the peer's clean EOF — iostreams report both as eof, but
  /// a client's exit code must distinguish "server finished" from "server
  /// vanished with responses undelivered".
  bool read_failed() const { return read_error_; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_buffer();
  int fd_;
  bool read_error_ = false;
  std::vector<char> in_buf_;
  std::vector<char> out_buf_;
};

// ----------------------------------------------------------------- server

struct SocketServerOptions {
  /// Concurrent-connection bound; a connection beyond it is answered with
  /// one in-band error line and closed (counted in `rejected`).
  int max_connections = 64;
  /// Serve-loop tuning applied to every connection (duplicate-id window).
  ServeOptions serve;
};

/// Aggregate counters across the server's lifetime (see stats_json()).
struct SocketServerStats {
  std::size_t accepted = 0;   ///< connections served (includes active)
  std::size_t active = 0;     ///< connections currently being served
  std::size_t rejected = 0;   ///< connections refused over max_connections
  std::size_t requests = 0;   ///< request lines answered, closed conns only
  std::size_t errors = 0;     ///< in-band error responses, closed conns only
};

class SocketServer {
 public:
  /// Binds and listens on every address. A *stale* socket file from a
  /// crashed server is unlinked so it does not block the bind; a
  /// non-socket file at the path, or a socket a live server still answers
  /// on, is refused instead (throws — binding must never delete data or
  /// silently strand a running server). Throws rsp::Error when any
  /// endpoint cannot be bound.
  SocketServer(Service& service, const std::vector<ListenAddress>& addresses,
               SocketServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Accept loop: serves until shutdown(), then drains — stops accepting,
  /// half-closes every active connection's read side, joins every
  /// connection thread (their in-flight requests complete and answer
  /// first). Call at most once.
  void run();

  /// Initiates graceful shutdown. Safe from any thread and from signal
  /// handlers (async-signal-safe: atomic flags and a self-pipe write).
  /// Calling it a *second* time escalates to a forced shutdown: stuck
  /// connections — peers that sent requests but never read the responses,
  /// which would block the graceful drain forever — are fully closed, so
  /// a second ^C always gets the operator out. run() returns only after
  /// the drain completes.
  void shutdown();

  /// Routes SIGINT/SIGTERM to shutdown() for the lifetime of this server
  /// (at most one server per process may install handlers at a time).
  void install_signal_handlers();

  /// Bound addresses with ephemeral TCP ports resolved — `addresses()[i]`
  /// corresponds to the constructor's `addresses[i]`.
  const std::vector<ListenAddress>& addresses() const { return addresses_; }

  SocketServerStats stats() const;
  /// The "server" section folded into cache_stats:
  /// {"connections": {"accepted", "active", "rejected", "max"},
  ///  "requests", "errors"}.
  util::Json stats_json() const;

 private:
  struct Impl;
  Impl* impl_;  // pimpl: keeps <sys/socket.h> & friends out of the header
  std::vector<ListenAddress> addresses_;
};

/// The matching client pump (`rsp_cli connect`): streams `in`'s lines to
/// the server at `address` while a reader thread streams response lines to
/// `out` — tolerating arbitrary out-of-order and bursty completions — then
/// half-closes the write side on input EOF and returns once the server has
/// drained and closed. Returns the process exit code (non-zero when `out`
/// failed); throws rsp::Error when the connection cannot be established.
int run_socket_client(const ListenAddress& address, std::istream& in,
                      std::ostream& out);

}  // namespace rsp::api
