#include "api/socket_server.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/protocol.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"

namespace rsp::api {

namespace {

int checked(int rc, const std::string& what) {
  if (rc < 0) throw Error(what + ": " + std::strerror(errno));
  return rc;
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

// Best-effort TCP_NODELAY: every response is one small send() (write_line
// flushes per line), and Nagle + the peer's delayed ACK would stall each
// by ~40ms. Harmlessly fails on unix sockets (EOPNOTSUPP).
void set_nodelay(int fd) {
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  // sun_path is a fixed ~108-byte array; a longer path cannot be bound.
  if (path.size() >= sizeof(sun.sun_path))
    throw InvalidArgumentError("unix socket path too long: '" + path + "'");
  std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
  return sun;
}

// EINTR-safe connect(). A signal during a blocking connect must not
// surface as a spurious transport failure: POSIX says the connection
// attempt *continues* asynchronously after EINTR, and re-issuing connect()
// would only yield EALREADY — so wait for writability and read the real
// outcome from SO_ERROR instead.
int connect_eintr(int fd, const sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  for (;;) {
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0)
      return -1;
    errno = err;
    return err == 0 ? 0 : -1;
  }
}

}  // namespace

// --------------------------------------------------------------- addresses

std::string ListenAddress::spec() const {
  if (kind == Kind::kUnix) return path;
  return host + ":" + std::to_string(port);
}

ListenAddress parse_listen_address(const std::string& spec) {
  if (spec.empty())
    throw InvalidArgumentError("listen address must not be empty");
  ListenAddress address;
  const std::size_t colon = spec.rfind(':');
  if (spec.find('/') != std::string::npos || colon == std::string::npos) {
    address.kind = ListenAddress::Kind::kUnix;
    address.path = spec;
    return address;
  }
  address.kind = ListenAddress::Kind::kTcp;
  address.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty() || port_text.size() > 5 ||
      port_text.find_first_not_of("0123456789") != std::string::npos)
    throw InvalidArgumentError("'" + spec +
                               "': port must be a number in [0, 65535]");
  const int port = std::stoi(port_text);
  if (port > 65535)
    throw InvalidArgumentError("'" + spec +
                               "': port must be a number in [0, 65535]");
  address.port = port;
  return address;
}

int connect_socket(const ListenAddress& address) {
  const auto fail = [&address](const std::string& reason) {
    return Error("cannot connect to '" + address.spec() + "': " + reason);
  };
  if (address.kind == ListenAddress::Kind::kUnix) {
    const sockaddr_un sun = make_unix_addr(address.path);
    const int fd = checked(::socket(AF_UNIX, SOCK_STREAM, 0), "socket");
    set_cloexec(fd);
    if (connect_eintr(fd, reinterpret_cast<const sockaddr*>(&sun),
                      sizeof(sun)) != 0) {
      const int err = errno;
      ::close(fd);
      throw fail(std::strerror(err));
    }
    return fd;
  }
  // TCP: resolve (numeric or named host; empty host means loopback for the
  // client side) and try each returned endpoint in order.
  const std::string host = address.host.empty() ? "127.0.0.1" : address.host;
  const std::string port = std::to_string(address.port);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &results);
  if (rc != 0)
    throw Error("cannot resolve '" + host + "': " + ::gai_strerror(rc));
  int fd = -1;
  std::string reason = "no usable addresses";
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      reason = std::strerror(errno);
      continue;
    }
    set_cloexec(fd);
    if (connect_eintr(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      break;
    }
    reason = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) throw fail(reason);
  return fd;
}

// --------------------------------------------------------------- streambuf

SocketStreamBuf::SocketStreamBuf(int fd)
    : fd_(fd), in_buf_(1 << 16), out_buf_(1 << 16) {
  setg(in_buf_.data(), in_buf_.data(), in_buf_.data());
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
}

SocketStreamBuf::int_type SocketStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t n;
  do {
    n = ::recv(fd_, in_buf_.data(), in_buf_.size(), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    if (n < 0) read_error_ = true;  // reset/error, not the peer's clean EOF
    return traits_type::eof();
  }
  setg(in_buf_.data(), in_buf_.data(), in_buf_.data() + n);
  return traits_type::to_int_type(*gptr());
}

bool SocketStreamBuf::flush_buffer() {
  const char* data = pbase();
  std::size_t left = static_cast<std::size_t>(pptr() - pbase());
  while (left > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as badbit on the stream
    // (the serve loop's output_failed path), not as SIGPIPE.
    const ssize_t n = ::send(fd_, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
  return true;
}

SocketStreamBuf::int_type SocketStreamBuf::overflow(int_type ch) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int SocketStreamBuf::sync() { return flush_buffer() ? 0 : -1; }

// ------------------------------------------------------------------ server

struct SocketServer::Impl {
  Service& service;
  const SocketServerOptions options;

  std::vector<int> listen_fds;
  std::vector<std::string> unlink_paths;  ///< unix socket files we own
  int wake_rd = -1;  ///< self-pipe: shutdown() pokes the poll loop
  int wake_wr = -1;
  std::atomic<bool> stopping{false};
  /// Second shutdown() (^C again): force-close stuck connections.
  std::atomic<bool> force_stop{false};

  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  // Guards connections/finished/stats; cv signals connection exits so the
  // drain can wait for the map to empty without spinning.
  mutable util::Mutex mu;
  std::condition_variable_any cv;
  std::unordered_map<std::uint64_t, Connection> connections
      RSP_GUARDED_BY(mu);
  /// Exited threads awaiting join.
  std::vector<std::thread> finished RSP_GUARDED_BY(mu);
  std::uint64_t next_connection_id RSP_GUARDED_BY(mu) = 0;
  SocketServerStats stats RSP_GUARDED_BY(mu);

  Impl(Service& s, SocketServerOptions o)
      : service(s), options(std::move(o)) {}

  ListenAddress bind_listener(const ListenAddress& address) {
    ListenAddress bound = address;
    int fd = -1;
    if (address.kind == ListenAddress::Kind::kUnix) {
      const sockaddr_un sun = make_unix_addr(address.path);
      // A stale socket file from a crashed server must be cleared (it
      // would fail the bind with EADDRINUSE) — but ONLY debris: never a
      // non-socket file (a typo'd --listen must not delete data), and
      // never the socket of a live server (unlinking it would silently
      // strand that server with no error on either side). A probe connect
      // distinguishes live (accepted) from stale (refused).
      struct stat st {};
      if (::lstat(address.path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode))
          throw Error("refusing to replace non-socket file '" +
                      address.path + "'");
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        bool live = false;
        if (probe >= 0) {
          live = ::connect(probe, reinterpret_cast<const sockaddr*>(&sun),
                           sizeof(sun)) == 0;
          ::close(probe);
        }
        if (live)
          throw Error("cannot bind '" + address.path +
                      "': a running server is listening there");
        ::unlink(address.path.c_str());
      }
      fd = checked(::socket(AF_UNIX, SOCK_STREAM, 0), "socket");
      set_cloexec(fd);
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof(sun)) !=
          0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        throw Error("cannot bind '" + address.path + "': " + reason);
      }
      unlink_paths.push_back(address.path);
    } else {
      const std::string port = std::to_string(address.port);
      addrinfo hints{};
      hints.ai_family = AF_UNSPEC;
      hints.ai_socktype = SOCK_STREAM;
      hints.ai_flags = AI_PASSIVE;
      addrinfo* results = nullptr;
      const int rc = ::getaddrinfo(
          address.host.empty() ? nullptr : address.host.c_str(), port.c_str(),
          &hints, &results);
      if (rc != 0)
        throw Error("cannot resolve '" + address.spec() +
                    "': " + ::gai_strerror(rc));
      std::string reason = "no usable addresses";
      const auto try_bind = [&](addrinfo* ai) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
          reason = std::strerror(errno);
          return false;
        }
        set_cloexec(fd);
        const int enable = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
        if (ai->ai_family == AF_INET6) {
          // ":port" promises every interface: a dual-stack v6 socket
          // (V6ONLY off) serves v4 clients through v4-mapped addresses,
          // so one fd really is "all interfaces".
          const int v6only = 0;
          ::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &v6only,
                       sizeof(v6only));
        }
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) return true;
        reason = std::strerror(errno);
        ::close(fd);
        fd = -1;
        return false;
      };
      // Two passes for the empty-host (all-interfaces) form: prefer the
      // dual-stack AF_INET6 endpoint, falling back to whatever binds
      // (v4-only hosts, containers without IPv6) — getaddrinfo's own
      // ordering is unspecified, and binding only its first result could
      // leave the other family unreachable.
      const bool prefer_dual_stack = address.host.empty();
      for (addrinfo* ai = results; ai != nullptr && fd < 0; ai = ai->ai_next)
        if (!prefer_dual_stack || ai->ai_family == AF_INET6) try_bind(ai);
      for (addrinfo* ai = results; ai != nullptr && fd < 0; ai = ai->ai_next)
        if (prefer_dual_stack && ai->ai_family != AF_INET6) try_bind(ai);
      ::freeaddrinfo(results);
      if (fd < 0)
        throw Error("cannot bind '" + address.spec() + "': " + reason);
      // Resolve the ephemeral port so addresses() is connectable.
      sockaddr_storage ss{};
      socklen_t len = sizeof(ss);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) == 0) {
        if (ss.ss_family == AF_INET)
          bound.port =
              ntohs(reinterpret_cast<const sockaddr_in*>(&ss)->sin_port);
        else if (ss.ss_family == AF_INET6)
          bound.port =
              ntohs(reinterpret_cast<const sockaddr_in6*>(&ss)->sin6_port);
      }
    }
    if (::listen(fd, 128) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      throw Error("cannot listen on '" + address.spec() + "': " + reason);
    }
    // Non-blocking listener: a connection that is aborted between poll()
    // and accept() is removed from the queue, and a *blocking* accept
    // would then hang run() beyond the reach of shutdown()'s self-pipe.
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    listen_fds.push_back(fd);
    return bound;
  }

  // Answers a connection the server will not serve with one in-band error
  // line and closes it; the single best-effort send cannot block
  // meaningfully (a fresh socket's send buffer dwarfs one line). The
  // half-close plus bounded drain matters on TCP: close() with unread
  // request bytes queued sends RST, which can destroy the error line
  // still in flight — the client would see a bare reset instead of the
  // documented in-band rejection.
  void refuse(int fd, const std::string& message) {
    const std::string line =
        encode_v2_response(util::Json(), error_body(message)).dump() + "\n";
    ssize_t sent;
    do {  // EINTR must not eat the only error line the peer will ever see
      sent = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    ::shutdown(fd, SHUT_WR);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    char scratch[4096];
    for (int spins = 0; spins < 20; ++spins) {  // ≤ ~100ms, on accept thread
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 5) <= 0) continue;
      const ssize_t n = ::recv(fd, scratch, sizeof(scratch), 0);
      if (n == 0) break;                 // peer saw the FIN: line delivered
      if (n < 0 && errno != EINTR && errno != EAGAIN &&
          errno != EWOULDBLOCK)
        break;                           // peer reset anyway
    }
    ::close(fd);
  }

  void start_connection(int client_fd) {
    // Decide under the lock, refuse (send + ~100ms drain) outside it:
    // holding mu through refuse() would stall stats readers and every
    // connection trying to release its slot.
    std::string refusal;
    {
      const util::MutexLock lock(mu);
      if (stopping.load(std::memory_order_acquire)) {
        // Raced with shutdown: this connection would never be drained.
        ::close(client_fd);
        return;
      }
      if (static_cast<int>(connections.size()) >= options.max_connections) {
        ++stats.rejected;
        refusal = "server connection limit (" +
                  std::to_string(options.max_connections) + ") reached";
      } else {
        const std::uint64_t id = next_connection_id++;
        // Insert before the thread starts: its epilogue looks itself up.
        Connection& connection = connections[id];
        connection.fd = client_fd;
        try {
          connection.thread = std::thread(
              [this, id, client_fd] { serve_connection(id, client_fd); });
          ++stats.accepted;
        } catch (const std::exception& e) {
          // pthread resource exhaustion (EAGAIN): a threadless map entry
          // would hang the drain forever and the throw would unwind run()
          // past it — refuse the connection instead and keep serving.
          connections.erase(id);
          ++stats.rejected;
          refusal =
              std::string("server cannot serve this connection: ") + e.what();
        }
      }
    }
    if (!refusal.empty()) refuse(client_fd, refusal);
  }

  void serve_connection(std::uint64_t id, int fd) {
    ServeResult result;
    try {
      SocketStreamBuf buf(fd);
      // Distinct stream objects over one buf: the serve loop reads on this
      // thread while dispatch threads write completions, and the buf's get
      // and put areas are disjoint.
      std::istream in(&buf);
      std::ostream out(&buf);
      result = serve(service, in, out);
      out.flush();
    } catch (...) {
      // A connection must never take the server down (serve() itself only
      // rethrows after draining); the client simply sees the close below.
    }
    {
      const util::MutexLock lock(mu);
      stats.requests += result.requests;
      stats.errors += result.errors;
      const auto it = connections.find(id);
      // Moving our own handle is fine — joining it is the reaper's job.
      finished.push_back(std::move(it->second.thread));
      connections.erase(it);
      cv.notify_all();
    }
    // Close strictly *after* the map entry is gone: drain() half-closes the
    // fds of entries still in the map (under the same mutex), so closing
    // first could hand it a recycled fd number owned by a newer connection
    // — and an erased-but-open fd also can't hold a connection slot a
    // reconnecting client already saw released.
    ::close(fd);
  }

  void reap_finished() {
    std::vector<std::thread> to_join;
    {
      const util::MutexLock lock(mu);
      to_join.swap(finished);
    }
    for (std::thread& t : to_join) t.join();
  }

  // The graceful half of shutdown(): half-close every active connection's
  // read side so its serve loop sees EOF, completes what is in flight and
  // answers it, then wait for every connection thread to finish. A peer
  // that stops *reading* can pin dispatch threads in send() forever, so a
  // graceful drain could hang — once force_stop is raised (the second
  // SIGINT/SIGTERM), remaining connections are fully closed, which fails
  // their stuck sends and lets the serve loops finish on the
  // output-failed path.
  void drain() {
    {
      const util::MutexLock lock(mu);
      for (auto& [id, connection] : connections)
        ::shutdown(connection.fd, SHUT_RD);
    }
    {
      util::MutexLock lock(mu);
      bool forced = false;
      while (!lock.wait_for(cv, std::chrono::milliseconds(200),
                            [this]() RSP_REQUIRES(mu) {
                              return connections.empty();
                            })) {
        if (forced || !force_stop.load(std::memory_order_acquire)) continue;
        forced = true;
        for (auto& [id, connection] : connections)
          ::shutdown(connection.fd, SHUT_RDWR);
      }
    }
    reap_finished();
  }

  void close_listeners() {
    for (const int fd : listen_fds) ::close(fd);
    listen_fds.clear();
    for (const std::string& path : unlink_paths) ::unlink(path.c_str());
    unlink_paths.clear();
  }
};

namespace {

// install_signal_handlers() target; handle_signal may only touch
// async-signal-safe state (SocketServer::shutdown is). g_handler_depth
// lets ~SocketServer wait out a handler that loaded the pointer just
// before the destructor cleared it — otherwise a signal racing the
// destructor could call shutdown() on a freed server.
std::atomic<SocketServer*> g_signal_server{nullptr};
std::atomic<int> g_handler_depth{0};

void handle_signal(int) {
  g_handler_depth.fetch_add(1, std::memory_order_acquire);
  if (SocketServer* server = g_signal_server.load(std::memory_order_acquire))
    server->shutdown();
  g_handler_depth.fetch_sub(1, std::memory_order_release);
}

}  // namespace

SocketServer::SocketServer(Service& service,
                           const std::vector<ListenAddress>& addresses,
                           SocketServerOptions options)
    : impl_(new Impl(service, std::move(options))) {
  try {
    if (addresses.empty())
      throw InvalidArgumentError("socket server needs at least one address");
    if (impl_->options.max_connections < 1)
      throw InvalidArgumentError("max_connections must be positive");
    int pipe_fds[2];
    checked(::pipe(pipe_fds), "pipe");
    impl_->wake_rd = pipe_fds[0];
    impl_->wake_wr = pipe_fds[1];
    set_cloexec(impl_->wake_rd);
    set_cloexec(impl_->wake_wr);
    ::fcntl(impl_->wake_wr, F_SETFL, O_NONBLOCK);  // signal-safe poke
    for (const ListenAddress& address : addresses)
      addresses_.push_back(impl_->bind_listener(address));
  } catch (...) {
    impl_->close_listeners();
    if (impl_->wake_rd >= 0) ::close(impl_->wake_rd);
    if (impl_->wake_wr >= 0) ::close(impl_->wake_wr);
    delete impl_;
    throw;
  }
}

SocketServer::~SocketServer() {
  SocketServer* expected = this;
  if (g_signal_server.compare_exchange_strong(expected, nullptr)) {
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    // A handler on another thread may have loaded `this` just before the
    // CAS; it finishes within nanoseconds (shutdown() is two atomic ops
    // and a pipe write), so spin it out before freeing what it touches.
    // A handler entered after the CAS reads null and is a no-op.
    while (g_handler_depth.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();
  }
  impl_->close_listeners();
  ::close(impl_->wake_rd);
  ::close(impl_->wake_wr);
  delete impl_;
}

void SocketServer::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // interrupt poll() rather than restarting it
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void SocketServer::shutdown() {
  // First call: graceful drain. A repeat (the operator's second ^C, or a
  // supervisor re-sending SIGTERM) escalates to force-closing connections
  // whose peers never read their responses. Both paths are
  // async-signal-safe: lock-free atomics plus a non-blocking pipe write
  // (a full pipe is fine — the poke is already pending).
  if (impl_->stopping.exchange(true, std::memory_order_acq_rel))
    impl_->force_stop.store(true, std::memory_order_release);
  const char byte = 1;
  (void)!::write(impl_->wake_wr, &byte, 1);
}

void SocketServer::run() {
  Impl& impl = *impl_;
  std::vector<pollfd> fds;
  fds.reserve(impl.listen_fds.size() + 1);
  for (const int fd : impl.listen_fds) fds.push_back({fd, POLLIN, 0});
  fds.push_back({impl.wake_rd, POLLIN, 0});

  while (!impl.stopping.load(std::memory_order_acquire)) {
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks stopping
      break;                         // poll failure: treat as shutdown
    }
    impl.reap_finished();
    if (fds.back().revents != 0) break;  // shutdown() poked the pipe
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        // A broken listener would keep poll() returning instantly; stop
        // polling it (poll ignores negative fds) but keep serving the
        // other listeners and the live connections.
        fds[i].fd = -1;
        continue;
      }
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) {
        // Out of fds, the pending connection stays in the backlog keeping
        // the listener readable — back off instead of hot-spinning until
        // a connection slot (and its fd) frees up.
        if (errno == EMFILE || errno == ENFILE || errno == ENOMEM)
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;  // otherwise: EAGAIN (aborted connection) etc., move on
      }
      set_cloexec(client);
      set_nodelay(client);
      impl.start_connection(client);
    }
  }

  impl.drain();
  impl.close_listeners();
}

SocketServerStats SocketServer::stats() const {
  const util::MutexLock lock(impl_->mu);
  SocketServerStats stats = impl_->stats;
  stats.active = impl_->connections.size();
  return stats;
}

util::Json SocketServer::stats_json() const {
  const SocketServerStats s = stats();
  util::Json connections = util::Json::object();
  connections.set("accepted", static_cast<std::int64_t>(s.accepted))
      .set("active", static_cast<std::int64_t>(s.active))
      .set("rejected", static_cast<std::int64_t>(s.rejected))
      .set("max", impl_->options.max_connections);
  util::Json doc = util::Json::object();
  doc.set("connections", std::move(connections));
  doc.set("requests", static_cast<std::int64_t>(s.requests));
  doc.set("errors", static_cast<std::int64_t>(s.errors));
  return doc;
}

int run_socket_client(const ListenAddress& address, std::istream& in,
                      std::ostream& out) {
  const int fd = connect_socket(address);
  SocketStreamBuf buf(fd);
  std::istream sock_in(&buf);
  std::ostream sock_out(&buf);
  // Responses stream back on their own thread while requests go out, so a
  // server answering out of order (or faster than we send) never deadlocks
  // the pumps; get/put areas of the shared buf are disjoint.
  std::thread reader([&sock_in, &out] {
    std::string line;
    while (std::getline(sock_in, line)) out << line << "\n" << std::flush;
  });
  std::string line;
  bool sent_everything = true;
  while (std::getline(in, line)) {
    sock_out << line << "\n" << std::flush;
    if (!sock_out) {
      // The server vanished mid-stream: remaining input lines were never
      // sent — scripts must see that in the exit code, not a silent
      // truncation of the conversation.
      sent_everything = false;
      break;
    }
  }
  ::shutdown(fd, SHUT_WR);  // input done: the server drains, answers, closes
  reader.join();
  ::close(fd);
  // read_failed(): the connection was reset with responses undelivered —
  // as much a truncated conversation as an unsent request.
  return (sent_everything && !buf.read_failed() && out) ? 0 : 1;
}

}  // namespace rsp::api
