#include "comm/socket_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "comm/handler_registry.hpp"

namespace tripoll::comm {

namespace {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Gathered send: one sendmsg(MSG_NOSIGNAL) syscall for the whole iovec
/// array (writev semantics, minus writev's SIGPIPE), retrying on partial
/// writes.  Zero-length entries are allowed.  The array is consumed.
void send_all_iov(int fd, iovec* iov, std::size_t iovcnt) {
  while (iovcnt > 0 && iov[0].iov_len == 0) {
    ++iov;
    --iovcnt;
  }
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text("socket_transport: sendmsg failed"));
    }
    std::size_t n = static_cast<std::size_t>(sent);
    while (iovcnt > 0 && n >= iov[0].iov_len) {
      n -= iov[0].iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + n;
      iov[0].iov_len -= n;
    }
  }
}

/// iovec over a const buffer (sendmsg never mutates the data; the iovec
/// API's non-const base predates const-correctness).
[[nodiscard]] iovec make_iov(const void* data, std::size_t n) noexcept {
  return iovec{const_cast<void*>(data), n};
}

/// Send whatever the socket accepts without blocking; returns bytes written
/// (stops at EAGAIN), throws on hard errors.
std::size_t send_some_nonblocking(int fd, const std::byte* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t sent =
        ::send(fd, data + done, n - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error(errno_text("socket_transport: send failed"));
    }
    done += static_cast<std::size_t>(sent);
  }
  return done;
}

/// Read exactly `n` bytes; false on clean EOF, throws on error.
bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text("socket_transport: recv failed"));
    }
    if (got == 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Wait until `fd` is readable or the deadline passes.
void wait_readable(int fd, clock_type::time_point deadline, const char* what) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - clock_type::now());
    if (left.count() <= 0) {
      throw std::runtime_error(std::string("socket_transport: timed out ") + what);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text("socket_transport: poll failed"));
    }
    if (n > 0) return;
  }
}

[[nodiscard]] std::string unix_path(const std::string& dir, int rank) {
  return dir + "/rank-" + std::to_string(rank) + ".sock";
}

void split_host_port(const std::string& endpoint, std::string& host, std::string& port) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    throw std::invalid_argument("socket_transport: endpoint '" + endpoint +
                                "' is not host:port");
  }
  host = endpoint.substr(0, colon);
  port = endpoint.substr(colon + 1);
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

constexpr std::size_t kMaxFrameBody = std::size_t{1} << 30;  // corruption guard

/// Monotone CAS-max (the done/release generation counters only move up).
void raise_to(std::atomic<std::uint64_t>& counter, std::uint64_t value) noexcept {
  std::uint64_t cur = counter.load(std::memory_order_seq_cst);
  while (cur < value &&
         !counter.compare_exchange_weak(cur, value, std::memory_order_seq_cst)) {
  }
}

}  // namespace

socket_options socket_options::from_env() {
  socket_options o;
  if (const char* s = std::getenv("TRIPOLL_RANK")) o.rank = std::atoi(s);
  if (const char* s = std::getenv("TRIPOLL_NRANKS")) o.nranks = std::atoi(s);
  if (const char* s = std::getenv("TRIPOLL_SOCKET_DIR")) o.socket_dir = s;
  if (const char* s = std::getenv("TRIPOLL_HOSTS")) {
    std::string list = s;
    std::size_t start = 0;
    while (start <= list.size()) {
      const auto comma = list.find(',', start);
      const auto end = comma == std::string::npos ? list.size() : comma;
      if (end > start) o.hosts.push_back(list.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return o;
}

socket_transport::socket_transport(const socket_options& opts, config cfg)
    : transport(opts.nranks, cfg), rank_(opts.rank) {
  if (rank_ < 0 || rank_ >= nranks_) {
    throw std::invalid_argument("socket_transport: rank out of range (set "
                                "TRIPOLL_RANK / TRIPOLL_NRANKS?)");
  }
  if (opts.hosts.empty() && opts.socket_dir.empty()) {
    throw std::invalid_argument("socket_transport: no rendezvous configured (set "
                                "TRIPOLL_SOCKET_DIR or TRIPOLL_HOSTS)");
  }
  if (!opts.hosts.empty() && opts.hosts.size() != static_cast<std::size_t>(nranks_)) {
    throw std::invalid_argument("socket_transport: TRIPOLL_HOSTS must list one "
                                "host:port per rank");
  }

  peers_.resize(static_cast<std::size_t>(nranks_));
  for (auto& p : peers_) p = std::make_unique<peer>();
  if (rank_ == 0) coord_.reports.resize(static_cast<std::size_t>(nranks_));

  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error(errno_text("socket_transport: pipe failed"));
  }

  try {
    bind_and_listen(opts);
    connect_mesh(opts);
  } catch (...) {
    for (auto& p : peers_) {
      if (p->fd >= 0) ::close(p->fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    throw;
  }

  receiver_ = std::thread([this] { receive_loop(); });
}

socket_transport::~socket_transport() {
  // Tell every peer this is a clean teardown before the connection EOFs.
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    auto& p = *peers_[static_cast<std::size_t>(r)];
    if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) continue;
    try {
      send_frame(r, frame_type::fin, nullptr, 0);
    } catch (...) {
      // peer already gone; EOF handling below is moot for it
    }
  }
  shutting_down_.store(true, std::memory_order_release);
  const char wake = 'w';
  (void)!::write(wake_pipe_[1], &wake, 1);
  // Unblock a receiver parked in a blocking mid-frame read (SHUT_WR was
  // already implied by fin; SHUT_RD abandons whatever is still queued).
  for (auto& p : peers_) {
    if (p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  if (receiver_.joinable()) receiver_.join();
  for (auto& p : peers_) {
    if (p->fd >= 0) ::close(p->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

// --- rendezvous -------------------------------------------------------------

void socket_transport::bind_and_listen(const socket_options& opts) {
  if (opts.hosts.empty()) {
    // Unix-domain mode.
    ::mkdir(opts.socket_dir.c_str(), 0777);  // best-effort; may pre-exist
    listen_path_ = unix_path(opts.socket_dir, rank_);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (listen_path_.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("socket_transport: socket path too long: " +
                                  listen_path_);
    }
    std::strncpy(addr.sun_path, listen_path_.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(listen_path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(errno_text("socket(AF_UNIX)"));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error(errno_text(("bind " + listen_path_).c_str()));
    }
  } else {
    // TCP mode: bind the port of our own endpoint on all interfaces.
    std::string host, port;
    split_host_port(opts.hosts[static_cast<std::size_t>(rank_)], host, port);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error(errno_text("socket(AF_INET)"));
    int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(std::atoi(port.c_str())));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error(errno_text(("bind :" + port).c_str()));
    }
  }
  if (::listen(listen_fd_, nranks_ > 8 ? nranks_ : 8) != 0) {
    throw std::runtime_error(errno_text("listen"));
  }
}

void socket_transport::send_hello(int fd) const {
  const auto& table = detail::thunk_table::instance();
  std::uint64_t words[3] = {static_cast<std::uint64_t>(rank_),
                            static_cast<std::uint64_t>(table.published()),
                            table.fingerprint()};
  std::byte body[3 * 8];
  for (int i = 0; i < 3; ++i) serial::store_u64_le(body + 8 * i, words[i]);
  std::byte hdr[serial::frame_header::kWireSize];
  serial::frame_header{sizeof(body), static_cast<std::uint8_t>(frame_type::hello)}
      .encode(hdr);
  iovec iov[2] = {make_iov(hdr, sizeof(hdr)), make_iov(body, sizeof(body))};
  send_all_iov(fd, iov, 2);
}

int socket_transport::read_hello(int fd, double deadline_seconds) const {
  const auto deadline =
      clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double>(deadline_seconds));
  wait_readable(fd, deadline, "waiting for HELLO");
  std::byte hdr[serial::frame_header::kWireSize];
  if (!read_all(fd, hdr, sizeof(hdr))) {
    throw std::runtime_error("socket_transport: peer closed during handshake");
  }
  const auto h = serial::frame_header::decode(hdr);
  if (h.type != static_cast<std::uint8_t>(frame_type::hello) || h.body_len != 3 * 8) {
    throw std::runtime_error("socket_transport: malformed HELLO frame");
  }
  std::byte body[3 * 8];
  if (!read_all(fd, body, sizeof(body))) {
    throw std::runtime_error("socket_transport: peer closed during handshake");
  }
  const auto peer_rank = static_cast<int>(serial::load_u64_le(body));
  const auto peer_count = serial::load_u64_le(body + 8);
  const auto peer_fp = serial::load_u64_le(body + 16);
  const auto& table = detail::thunk_table::instance();
  if (peer_count != table.published() || peer_fp != table.fingerprint()) {
    throw std::runtime_error(
        "socket_transport: RPC handler registry mismatch with rank " +
        std::to_string(peer_rank) +
        " (all ranks must run the same binary; handler ids are assigned in "
        "static-init order)");
  }
  if (peer_rank < 0 || peer_rank >= nranks_) {
    throw std::runtime_error("socket_transport: HELLO from out-of-range rank");
  }
  return peer_rank;
}

void socket_transport::connect_mesh(const socket_options& opts) {
  const auto deadline =
      clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                              std::chrono::duration<double>(opts.connect_timeout_seconds));

  // Connect to every lower rank (they bound their endpoint before connecting
  // anywhere themselves, so retrying until the deadline always converges).
  for (int r = 0; r < rank_; ++r) {
    int fd = -1;
    for (;;) {
      if (opts.hosts.empty()) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) throw std::runtime_error(errno_text("socket(AF_UNIX)"));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        const std::string path = unix_path(opts.socket_dir, r);
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
      } else {
        std::string host, port;
        split_host_port(opts.hosts[static_cast<std::size_t>(r)], host, port);
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* res = nullptr;
        if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 || !res) {
          throw std::runtime_error("socket_transport: cannot resolve " + host);
        }
        fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
        const bool ok = fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
        ::freeaddrinfo(res);
        if (fd < 0) throw std::runtime_error(errno_text("socket(AF_INET)"));
        if (ok) {
          set_nodelay(fd);
          break;
        }
      }
      ::close(fd);
      if (clock_type::now() >= deadline) {
        throw std::runtime_error("socket_transport: rank " + std::to_string(rank_) +
                                 " timed out connecting to rank " + std::to_string(r));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    send_hello(fd);
    const int who = read_hello(fd, opts.connect_timeout_seconds);
    if (who != r) {
      ::close(fd);
      throw std::runtime_error("socket_transport: connected endpoint claims rank " +
                               std::to_string(who) + ", expected " + std::to_string(r));
    }
    peers_[static_cast<std::size_t>(r)]->fd = fd;
  }

  // Accept one connection from every higher rank (any arrival order).
  for (int pending = nranks_ - 1 - rank_; pending > 0; --pending) {
    wait_readable(listen_fd_, deadline, "waiting for higher ranks to connect");
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) throw std::runtime_error(errno_text("accept"));
    if (!opts.hosts.empty()) set_nodelay(fd);
    const int who = read_hello(fd, opts.connect_timeout_seconds);
    auto& p = *peers_[static_cast<std::size_t>(who)];
    if (who <= rank_ || p.fd >= 0) {
      ::close(fd);
      throw std::runtime_error("socket_transport: unexpected connection from rank " +
                               std::to_string(who));
    }
    send_hello(fd);
    p.fd = fd;
  }
}

// --- framing ----------------------------------------------------------------

std::vector<std::byte> socket_transport::take_pending_locked(peer& p) {
  std::vector<std::byte> queued;
  if (!p.has_pending.load(std::memory_order_acquire)) return queued;
  const std::lock_guard lock(p.queue_mutex);
  queued.swap(p.pending_out);
  p.has_pending.store(false, std::memory_order_release);
  return queued;
}

void socket_transport::try_flush_pending(peer& p) noexcept {
  if (!p.has_pending.load(std::memory_order_acquire)) return;
  if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) return;
  // try_lock: if the main thread holds the write mutex (possibly blocked in
  // a long DATA send) it will drain the queue itself before its frame.
  if (!p.write_mutex.try_lock()) return;
  const std::lock_guard write_lock(p.write_mutex, std::adopt_lock);
  std::vector<std::byte> queued;
  {
    const std::lock_guard lock(p.queue_mutex);
    queued.swap(p.pending_out);
    p.has_pending.store(false, std::memory_order_release);
  }
  if (queued.empty()) return;
  std::size_t done = 0;
  try {
    done = send_some_nonblocking(p.fd, queued.data(), queued.size());
  } catch (...) {
    abort_run(std::current_exception());
    return;
  }
  if (done < queued.size()) {
    const std::lock_guard lock(p.queue_mutex);
    // Unsent remainder goes back to the FRONT: bytes already queued by the
    // receiver meanwhile must stay after it to keep the frame stream intact.
    p.pending_out.insert(p.pending_out.begin(), queued.begin() + static_cast<std::ptrdiff_t>(done),
                         queued.end());
    p.has_pending.store(true, std::memory_order_release);
  }
}

void socket_transport::wake_receiver() noexcept {
  const char wake = 'w';
  (void)!::write(wake_pipe_[1], &wake, 1);
}

void socket_transport::send_frame(int dest, frame_type type, const std::byte* body,
                                  std::size_t n) {
  auto& p = *peers_[static_cast<std::size_t>(dest)];
  if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) {
    throw std::runtime_error("socket_transport: connection to rank " +
                             std::to_string(dest) + " is down");
  }
  std::byte hdr[serial::frame_header::kWireSize];
  serial::frame_header{static_cast<std::uint32_t>(n), static_cast<std::uint8_t>(type)}
      .encode(hdr);
  const std::lock_guard lock(p.write_mutex);
  // One gathered syscall for (queued control bytes, header, body) -- the
  // frame stream stays intact and the kernel sees one contiguous write.
  const auto queued = take_pending_locked(p);
  iovec iov[3] = {make_iov(queued.data(), queued.size()), make_iov(hdr, sizeof(hdr)),
                  make_iov(body, n)};
  send_all_iov(p.fd, iov, 3);
}

void socket_transport::post_frame(int dest, frame_type type, const std::byte* body,
                                  std::size_t n) noexcept {
  auto& p = *peers_[static_cast<std::size_t>(dest)];
  if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) {
    if (type == frame_type::abort_run_ || type == frame_type::fin) return;  // best-effort
    // A dead control channel means the run is over; propagate as an abort
    // (idempotent) rather than unwinding the caller.
    abort_run(std::make_exception_ptr(std::runtime_error(
        "socket_transport: lost control connection to rank " + std::to_string(dest))));
    return;
  }
  std::byte hdr[serial::frame_header::kWireSize];
  serial::frame_header{static_cast<std::uint32_t>(n), static_cast<std::uint8_t>(type)}
      .encode(hdr);
  {
    const std::lock_guard lock(p.queue_mutex);
    p.pending_out.insert(p.pending_out.end(), hdr, hdr + sizeof(hdr));
    if (n > 0) p.pending_out.insert(p.pending_out.end(), body, body + n);
    p.has_pending.store(true, std::memory_order_release);
  }
  try_flush_pending(p);
  if (p.has_pending.load(std::memory_order_acquire)) {
    // Could not drain now (main thread holds the fd or the socket is
    // full): make sure the receiver's poll loop watches for POLLOUT.
    wake_receiver();
  }
}

void socket_transport::post_control_u64(int dest, frame_type type,
                                        const std::uint64_t* words,
                                        std::size_t n_words) noexcept {
  std::byte body[8 * 8];  // largest control frame: 6 words
  for (std::size_t i = 0; i < n_words; ++i) serial::store_u64_le(body + 8 * i, words[i]);
  post_frame(dest, type, body, n_words * 8);
}

// --- data plane --------------------------------------------------------------

void socket_transport::deliver(int src, int dst, serial::byte_buffer payload,
                               std::uint64_t n_messages) {
  auto& c = counters_;
  if (src == dst) {
    c.local_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  } else {
    c.remote_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  }
  c.buffers_sent.fetch_add(1, std::memory_order_relaxed);
  c.messages_sent.fetch_add(n_messages, std::memory_order_relaxed);

  // Count the send before it can possibly be acknowledged anywhere; the
  // termination detector compares cumulative sends against processes.
  sent_total_.fetch_add(1, std::memory_order_seq_cst);

  if (dst == rank_) {
    inbox_.push(mailbox::envelope{std::move(payload), src});
    return;
  }

  auto& p = *peers_[static_cast<std::size_t>(dst)];
  if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) {
    throw std::runtime_error("socket_transport: connection to rank " +
                             std::to_string(dst) + " is down");
  }
  if (8 + payload.size() > kMaxFrameBody) {
    // Fail loudly sender-side instead of silently truncating the u32 frame
    // length (or tripping the receiver's corruption guard).
    throw std::length_error(
        "socket_transport: single RPC payload of " + std::to_string(payload.size()) +
        " bytes exceeds the 1 GiB frame limit; split the message");
  }
  std::byte hdr[serial::frame_header::kWireSize];
  serial::frame_header{static_cast<std::uint32_t>(8 + payload.size()),
                       static_cast<std::uint8_t>(frame_type::data)}
      .encode(hdr);
  std::byte prefix[8];
  serial::store_u64_le(prefix, n_messages);
  const std::lock_guard lock(p.write_mutex);
  // Single gathered syscall for (queued control bytes, header, message
  // count, payload) instead of 3 sequential send_all calls: one kernel
  // crossing per frame and no small-segment dribble ahead of the payload.
  const auto queued = take_pending_locked(p);
  iovec iov[4] = {make_iov(queued.data(), queued.size()), make_iov(hdr, sizeof(hdr)),
                  make_iov(prefix, sizeof(prefix)),
                  make_iov(payload.data(), payload.size())};
  send_all_iov(p.fd, iov, 4);
}

// --- termination detection ----------------------------------------------------

socket_transport::report socket_transport::snapshot_idle_state() {
  const std::lock_guard lock(idle_mutex_);
  return report{announced_gen_, idle_seq_, announced_sent_, announced_recv_, idle_};
}

void socket_transport::announce_idle(int /*rank*/, std::uint64_t generation) {
  report rep;
  {
    const std::lock_guard lock(idle_mutex_);
    announced_gen_ = generation;
    announced_sent_ = sent_total_.load(std::memory_order_seq_cst);
    announced_recv_ = recv_total_.load(std::memory_order_seq_cst);
    ++idle_seq_;
    idle_ = true;
    rep = report{announced_gen_, idle_seq_, announced_sent_, announced_recv_, true};
  }
  if (rank_ == 0) {
    coordinator_note_idle(0, rep);
  } else {
    const std::uint64_t words[4] = {rep.gen, rep.seq, rep.sent, rep.recv};
    post_control_u64(0, frame_type::idle, words, 4);
  }
}

void socket_transport::retract_idle(int /*rank*/) {
  const std::lock_guard lock(idle_mutex_);
  idle_ = false;
}

bool socket_transport::poll_barrier(int /*rank*/, std::uint64_t generation) {
  return done_generation_.load(std::memory_order_acquire) >= generation;
}

void socket_transport::handle_probe(std::uint64_t epoch) {
  const report rep = snapshot_idle_state();
  const std::uint64_t words[6] = {epoch, rep.gen, rep.seq, rep.sent, rep.recv,
                                  rep.idle ? 1u : 0u};
  post_control_u64(0, frame_type::probe_reply, words, 6);
}

void socket_transport::coordinator_note_idle(int from, const report& rep) {
  const std::lock_guard lock(coord_.mutex);
  coord_.reports[static_cast<std::size_t>(from)] = rep;
  coordinator_maybe_start_wave_locked();
}

void socket_transport::coordinator_maybe_start_wave_locked() {
  if (coord_.wave_epoch != 0 || aborted()) return;
  const std::uint64_t gen = done_generation_.load(std::memory_order_acquire) + 1;
  for (const auto& rep : coord_.reports) {
    if (!rep.idle || rep.gen != gen) return;
  }
  // Every rank has an idle report for this generation: run a probe wave.
  // The replies must show nobody moved since reporting AND global sent ==
  // received; announce-then-probe are the two sequential waves that make
  // Mattern-style double counting sound (an in-flight message would leave
  // the sums unequal or force its receiver to move, failing the wave).
  coord_.wave_epoch = ++coord_.epoch_counter;
  coord_.wave_snapshot = coord_.reports;
  coord_.wave_pending = nranks_;
  coord_.wave_failed = false;
  const std::uint64_t epoch = coord_.wave_epoch;
  // Rank 0 replies to itself inline (this may already finish a 1-rank wave).
  coordinator_probe_reply_locked(0, epoch, snapshot_idle_state());
  if (coord_.wave_epoch != epoch) return;  // wave completed synchronously
  for (int r = 1; r < nranks_; ++r) {
    const std::uint64_t words[1] = {epoch};
    post_control_u64(r, frame_type::probe, words, 1);
  }
}

void socket_transport::coordinator_probe_reply(int from, std::uint64_t epoch,
                                               const report& rep) {
  const std::lock_guard lock(coord_.mutex);
  coordinator_probe_reply_locked(from, epoch, rep);
}

void socket_transport::coordinator_probe_reply_locked(int from, std::uint64_t epoch,
                                                      const report& rep) {
  if (epoch != coord_.wave_epoch) return;  // stale wave
  const report& snap = coord_.wave_snapshot[static_cast<std::size_t>(from)];
  if (!(rep.idle && rep.gen == snap.gen && rep.seq == snap.seq &&
        rep.sent == snap.sent && rep.recv == snap.recv)) {
    coord_.wave_failed = true;
  }
  // Fold the reply in for the retry wave unless it is older than the stored
  // report.  The rank's receiver thread samples its state before posting
  // the reply, and its main thread can post a newer announce in between;
  // folding that stale sample would leave the newest report lost, the retry
  // below would see nothing changed, and the barrier would never complete.
  auto& stored = coord_.reports[static_cast<std::size_t>(from)];
  if (rep.seq >= stored.seq) stored = rep;
  if (--coord_.wave_pending > 0) return;

  coord_.wave_epoch = 0;
  if (!coord_.wave_failed) {
    std::uint64_t sent = 0, received = 0;
    for (const auto& s : coord_.wave_snapshot) {
      sent += s.sent;
      received += s.recv;
    }
    if (sent == received) {
      publish_done(coord_.wave_snapshot[0].gen);
      return;
    }
  }
  // Messages were in flight (or a rank moved).  Retry ONLY if some report
  // refreshed during the wave -- with unchanged reports a retry would
  // observe the identical state and spin (for nranks==1 it would recurse
  // right here, since the self-reply completes waves inline).  Detection
  // re-arms when the rank that owes progress processes its in-flight
  // message and announces again (its inbox is non-empty, so its barrier
  // loop is guaranteed to retract, drain and re-announce).
  if (coord_.reports != coord_.wave_snapshot) {
    coordinator_maybe_start_wave_locked();
  }
}

void socket_transport::publish_done(std::uint64_t gen) {
  raise_to(done_generation_, gen);
  for (int r = 1; r < nranks_; ++r) {
    const std::uint64_t words[1] = {gen};
    post_control_u64(r, frame_type::done, words, 1);
  }
}

void socket_transport::exit_rendezvous(int /*rank*/) {
  throw_if_aborted();
  const std::uint64_t gen = ++exit_generation_;
  if (rank_ == 0) {
    coordinator_note_exit(gen);
  } else {
    const std::uint64_t words[1] = {gen};
    post_control_u64(0, frame_type::exit_barrier, words, 1);
  }
  // Wait for the coordinator's RELEASE: nobody proceeds (and can deliver
  // next-phase messages into a peer's still-active barrier drain loop)
  // until every rank has left its poll loop.  Arriving data stays queued in
  // the mailbox for the next drain, exactly like the inproc rendezvous.
  // The receiver notifies gen_cv_ when RELEASE lands (or the run aborts);
  // the timeout is belt-and-braces against a lost notification.  The
  // watchdog mirrors the barrier poll loop's: a RELEASE that never comes
  // (coordinator died silently, or ranks disagree on the number of
  // collectives) must abort loudly, not hang the job forever.
  std::unique_lock lock(gen_mutex_);
  const auto wait_start = clock_type::now();
  const double timeout = cfg().barrier_timeout_seconds;
  while (release_generation_.load(std::memory_order_acquire) < gen) {
    throw_if_aborted();
    gen_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return release_generation_.load(std::memory_order_acquire) >= gen || aborted();
    });
    if (timeout > 0.0 &&
        release_generation_.load(std::memory_order_acquire) < gen && !aborted()) {
      const double waited =
          std::chrono::duration<double>(clock_type::now() - wait_start).count();
      if (waited > timeout) {
        lock.unlock();
        abort_run(std::make_exception_ptr(std::runtime_error(
            "socket_transport: exit-rendezvous watchdog: rank " +
            std::to_string(rank_) + " got no RELEASE for barrier generation " +
            std::to_string(gen) + " after " + std::to_string(waited) +
            "s -- mismatched collectives, or the coordinator exited")));
        throw_if_aborted();
        return;  // unreachable: abort_run recorded an error to throw
      }
    }
  }
}

void socket_transport::coordinator_note_exit(std::uint64_t gen) {
  const std::lock_guard lock(coord_.mutex);
  // Ranks are released from exit generation g before any can send EXIT for
  // g+1, so a simple per-generation count suffices.
  (void)gen;
  if (++coord_.exit_count < nranks_) return;
  coord_.exit_count = 0;
  const std::uint64_t released = release_generation_.load(std::memory_order_acquire) + 1;
  // Queue the peers' RELEASE frames BEFORE unblocking this rank's own
  // exit_rendezvous.  The moment release_generation_ rises, the main
  // thread may return from the final barrier, finish the run and enter
  // the destructor: its FIN sends flush whatever is queued *at that
  // point* and then shut the sockets down, so a RELEASE queued by this
  // (receiver) thread after that instant would be silently discarded --
  // stranding every other rank in its final rendezvous.  Queue-first
  // closes the window: once the main thread can observe the release, the
  // frames are already in the per-peer queues the FIN path drains.
  for (int r = 1; r < nranks_; ++r) {
    const std::uint64_t words[1] = {released};
    post_control_u64(r, frame_type::release, words, 1);
  }
  raise_to(release_generation_, released);
  {
    const std::lock_guard wake_lock(gen_mutex_);
  }
  gen_cv_.notify_all();
}

// --- failure propagation ------------------------------------------------------

void socket_transport::abort_run(std::exception_ptr error) noexcept {
  const bool first = record_abort(error);
  // Unblock exit_rendezvous waiters regardless of who recorded first.
  {
    const std::lock_guard lock(gen_mutex_);
  }
  gen_cv_.notify_all();
  if (!first) return;
  std::string what = "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    // post_frame never blocks (abort can run on the receiver thread) and
    // drops the frame for peers that are already unreachable.
    post_frame(r, frame_type::abort_run_,
               reinterpret_cast<const std::byte*>(what.data()), what.size());
  }
}

// --- receiver thread ----------------------------------------------------------

void socket_transport::connection_lost(int src) {
  auto& p = *peers_[static_cast<std::size_t>(src)];
  p.dead.store(true, std::memory_order_release);
  if (p.fin_received.load(std::memory_order_acquire) ||
      shutting_down_.load(std::memory_order_acquire)) {
    return;  // clean teardown
  }
  abort_run(std::make_exception_ptr(std::runtime_error(
      "socket_transport: rank " + std::to_string(src) +
      " disconnected unexpectedly (crashed?)")));
}

bool socket_transport::read_frame(int src) {
  auto& p = *peers_[static_cast<std::size_t>(src)];
  std::byte hdr[serial::frame_header::kWireSize];
  if (!read_all(p.fd, hdr, sizeof(hdr))) return false;
  const auto h = serial::frame_header::decode(hdr);
  if (h.body_len > kMaxFrameBody) {
    throw std::runtime_error("socket_transport: oversized frame from rank " +
                             std::to_string(src));
  }

  switch (static_cast<frame_type>(h.type)) {
    case frame_type::data: {
      if (h.body_len < 8) throw std::runtime_error("socket_transport: short DATA frame");
      std::byte prefix[8];
      if (!read_all(p.fd, prefix, sizeof(prefix))) return false;
      const std::size_t payload_len = h.body_len - 8;
      serial::byte_buffer payload(payload_len);
      if (payload_len > 0 && !read_all(p.fd, payload.append_raw(payload_len), payload_len)) {
        return false;
      }
      inbox_.push(mailbox::envelope{std::move(payload), src});
      return true;
    }
    case frame_type::idle: {
      std::byte body[4 * 8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      report rep;
      rep.gen = serial::load_u64_le(body);
      rep.seq = serial::load_u64_le(body + 8);
      rep.sent = serial::load_u64_le(body + 16);
      rep.recv = serial::load_u64_le(body + 24);
      rep.idle = true;
      if (rank_ == 0) coordinator_note_idle(src, rep);
      return true;
    }
    case frame_type::probe: {
      std::byte body[8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      handle_probe(serial::load_u64_le(body));
      return true;
    }
    case frame_type::probe_reply: {
      std::byte body[6 * 8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      report rep;
      const std::uint64_t epoch = serial::load_u64_le(body);
      rep.gen = serial::load_u64_le(body + 8);
      rep.seq = serial::load_u64_le(body + 16);
      rep.sent = serial::load_u64_le(body + 24);
      rep.recv = serial::load_u64_le(body + 32);
      rep.idle = serial::load_u64_le(body + 40) != 0;
      if (rank_ == 0) coordinator_probe_reply(src, epoch, rep);
      return true;
    }
    case frame_type::done: {
      std::byte body[8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      raise_to(done_generation_, serial::load_u64_le(body));
      return true;
    }
    case frame_type::exit_barrier: {
      std::byte body[8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      if (rank_ == 0) coordinator_note_exit(serial::load_u64_le(body));
      return true;
    }
    case frame_type::release: {
      std::byte body[8];
      if (h.body_len != sizeof(body) || !read_all(p.fd, body, sizeof(body))) return false;
      raise_to(release_generation_, serial::load_u64_le(body));
      {
        const std::lock_guard lock(gen_mutex_);
      }
      gen_cv_.notify_all();
      return true;
    }
    case frame_type::abort_run_: {
      std::string what(h.body_len, '\0');
      if (h.body_len > 0 && !read_all(p.fd, what.data(), what.size())) return false;
      // aborted_error marks this rank as a secondary casualty: the origin
      // rank reports the root cause, everyone else unwinds quietly.
      record_abort(std::make_exception_ptr(
          aborted_error(what.empty() ? "remote rank aborted" : what)));
      return true;
    }
    case frame_type::fin: {
      p.fin_received.store(true, std::memory_order_release);
      return true;
    }
    case frame_type::hello:
    default:
      throw std::runtime_error("socket_transport: unexpected frame type " +
                               std::to_string(h.type) + " from rank " +
                               std::to_string(src));
  }
}

void socket_transport::receive_loop() {
  std::vector<pollfd> fds;
  std::vector<int> fd_ranks;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_ranks.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fd_ranks.push_back(-1);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      auto& p = *peers_[static_cast<std::size_t>(r)];
      if (p.fd < 0 || p.dead.load(std::memory_order_acquire)) continue;
      const short events = static_cast<short>(
          POLLIN | (p.has_pending.load(std::memory_order_acquire) ? POLLOUT : 0));
      fds.push_back(pollfd{p.fd, events, 0});
      fd_ranks.push_back(r);
    }
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      abort_run(std::make_exception_ptr(
          std::runtime_error(errno_text("socket_transport: receiver poll failed"))));
      return;
    }
    if (n == 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_ranks[i] < 0) {
        char buf[64];
        (void)!::read(wake_pipe_[0], buf, sizeof(buf));
        continue;
      }
      const int src = fd_ranks[i];
      auto& p = *peers_[static_cast<std::size_t>(src)];
      if ((fds[i].revents & POLLOUT) != 0) try_flush_pending(p);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      try {
        if (!read_frame(src)) connection_lost(src);
      } catch (...) {
        p.dead.store(true, std::memory_order_release);
        abort_run(std::current_exception());
      }
    }
  }
}

stats_snapshot socket_transport::snapshot() const {
  const auto& c = counters_;
  stats_snapshot s;
  s.remote_bytes = c.remote_bytes.load(std::memory_order_relaxed);
  s.local_bytes = c.local_bytes.load(std::memory_order_relaxed);
  s.buffers_sent = c.buffers_sent.load(std::memory_order_relaxed);
  s.messages_sent = c.messages_sent.load(std::memory_order_relaxed);
  s.handlers_run = c.handlers_run.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tripoll::comm
