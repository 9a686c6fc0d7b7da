#include "provml/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>

#include "provml/common/fault_inject.hpp"

namespace provml::net {
namespace {

// epoll_event.data.u64 tags for the loop's own fds; connection ids start
// at 16 so they can never collide.
constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kStopTag = 2;
constexpr std::uint64_t kWakeTag = 3;

constexpr int kAcceptBackoffMs = 100;  ///< pause after unrecoverable EMFILE

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string json_error(const std::string& message) {
  // Error strings are server-chosen constants: no escaping needed.
  return "{\"error\":\"" + message + "\"}";
}

/// Drains a self-pipe so level-triggered epoll stops reporting it.
void drain_pipe(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

}  // namespace

HttpServer::HttpServer(ServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  if (config_.threads == 0) config_.threads = 1;
}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_.load()) return Error{"server already running", config_.host};

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Error{std::strerror(errno), "socket"};
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (config_.host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    return Error{"invalid listen address", config_.host};
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    return Error{message, config_.host + ":" + std::to_string(config_.port)};
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    return Error{message, "listen"};
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  if (!set_nonblocking(listen_fd_)) {
    close_fd(listen_fd_);
    return Error{std::strerror(errno), "nonblocking listen socket"};
  }

  if (::pipe(stop_pipe_) != 0 || ::pipe(wake_pipe_) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    return Error{message, "pipe"};
  }
  // The stop write end is poked from signal handlers: never let it block.
  for (const int fd : {stop_pipe_[0], stop_pipe_[1], wake_pipe_[0], wake_pipe_[1]}) {
    (void)set_nonblocking(fd);
  }

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    return Error{message, "epoll_create1"};
  }
  if (!update_epoll(listen_fd_, kListenTag, EPOLLIN) ||
      !update_epoll(stop_pipe_[0], kStopTag, EPOLLIN) ||
      !update_epoll(wake_pipe_[0], kWakeTag, EPOLLIN)) {
    const std::string message = std::strerror(errno);
    close_fd(epoll_fd_);
    close_fd(listen_fd_);
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    return Error{message, "epoll_ctl"};
  }

  // Held in reserve so accept() can still succeed (and answer 503) once
  // the process hits its fd limit; see handle_fd_exhaustion().
  reserve_fd_ = ::open("/dev/null", O_RDONLY);

  stopping_.store(false);
  workers_quit_ = false;
  accept_paused_ = false;
  in_flight_ = 0;
  running_.store(true);
  event_thread_ = std::thread([this] { event_loop(); });
  workers_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return Status::ok_status();
}

void HttpServer::request_stop() noexcept {
  stopping_.store(true);
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    // Best effort; the pipe staying readable is all that matters.
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
}

void HttpServer::wait() {
  if (!running_.load()) return;
  pollfd pfd{stop_pipe_[0], POLLIN, 0};
  while (!stopping_.load()) {
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0 || (r < 0 && errno != EINTR)) break;
  }
  stop();
}

void HttpServer::stop() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_.load()) return;
  request_stop();
  if (event_thread_.joinable()) event_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    workers_quit_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  jobs_.clear();
  done_.clear();
  close_fd(reserve_fd_);
  close_fd(epoll_fd_);
  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  running_.store(false);
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.requests_handled = requests_handled_.load();
  s.responses_2xx = responses_2xx_.load();
  s.responses_4xx = responses_4xx_.load();
  s.responses_5xx = responses_5xx_.load();
  s.parse_errors = parse_errors_.load();
  s.read_timeouts = read_timeouts_.load();
  s.latency_us_total = latency_us_total_.load();
  s.open_connections = open_connections_.load();
  s.epoll_wakeups = epoll_wakeups_.load();
  s.connections_shed = connections_shed_.load();
  s.writev_batches = writev_batches_.load();
  return s;
}

bool HttpServer::update_epoll(int fd, std::uint64_t id, std::uint32_t events) const {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) return true;
  if (errno != ENOENT) return false;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

// ------------------------------------------------------------- event loop

void HttpServer::event_loop() {
  // The sweep granularity bounds how late a timeout fires; a quarter of
  // the configured timeout keeps the error small without scanning every
  // connection on every wakeup.
  const int sweep_ms =
      config_.read_timeout_ms > 0
          ? std::clamp(config_.read_timeout_ms / 4, 5, 250)
          : 250;
  epoll_event events[128];
  bool stop_seen = false;
  Clock::time_point next_sweep = Clock::now() + std::chrono::milliseconds(sweep_ms);

  for (;;) {
    // Sleep forever only when there is nothing to time out and no
    // pending accept-backoff or shutdown drain to re-check.
    const bool need_tick = !conns_.empty() || accept_paused_ || stop_seen;
    const int timeout_ms = need_tick ? sweep_ms : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
    ++epoll_wakeups_;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutdown race, bail out
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kStopTag) {
        // Leave the byte unread: wait() polls the same read end. Deleting
        // the registration stops level-triggered refiring here.
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, stop_pipe_[0], nullptr);
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        stop_seen = true;
      } else if (tag == kWakeTag) {
        drain_pipe(wake_pipe_[0]);
      } else if (tag == kListenTag) {
        if (!stop_seen) handle_accept();
      } else {
        handle_connection_event(tag, events[i].events);
      }
    }
    process_completions();

    const Clock::time_point now = Clock::now();
    if (now >= next_sweep) {
      sweep_timeouts(now);
      if (accept_paused_ && now >= accept_resume_at_ && !stop_seen) {
        accept_paused_ = false;
        (void)update_epoll(listen_fd_, kListenTag, EPOLLIN);
      }
      next_sweep = now + std::chrono::milliseconds(sweep_ms);
    }
    if (stop_seen && in_flight_ == 0) break;
  }

  // Drain: every dispatched job has been answered (in_flight_ == 0), so
  // remaining connections are idle or mid-read; close them all.
  for (auto& [id, conn] : conns_) {
    ::close(conn->fd);
  }
  conns_.clear();
  open_connections_.store(0);
}

void HttpServer::handle_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        handle_fd_exhaustion();
        return;
      }
      return;  // transient (ECONNABORTED etc.): re-polled next wakeup
    }
    ++connections_accepted_;
    if (config_.max_connections > 0 && conns_.size() >= config_.max_connections) {
      shed_connection(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(config_.limits);
    conn->fd = fd;
    conn->id = id;
    conn->last_activity = Clock::now();
    if (!update_epoll(fd, id, EPOLLIN)) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    open_connections_.store(conns_.size());
  }
}

/// The process is out of fds: accept() fails instantly, so a level-
/// triggered listen socket would spin the loop hot. Close the reserve fd
/// to accept exactly one peer and tell it 503 (instead of leaving it in
/// the backlog), then reopen the reserve. If the fd space is still
/// exhausted, pause accepting for a short backoff.
void HttpServer::handle_fd_exhaustion() {
  bool recovered = false;
  if (reserve_fd_ >= 0) {
    close_fd(reserve_fd_);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) shed_connection(fd);
    reserve_fd_ = ::open("/dev/null", O_RDONLY);
    recovered = fd >= 0 && reserve_fd_ >= 0;
  }
  if (!recovered) {
    pause_accepting(Clock::now() + std::chrono::milliseconds(kAcceptBackoffMs));
  }
}

void HttpServer::pause_accepting(Clock::time_point until) {
  if (!accept_paused_) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    accept_paused_ = true;
  }
  accept_resume_at_ = until;
}

/// Load shed at accept time: a one-shot 503 with Connection: close. The
/// fd is still blocking (accept does not inherit O_NONBLOCK) but the
/// response is far below any socket buffer, so the send cannot stall.
void HttpServer::shed_connection(int fd) {
  ++connections_shed_;
  HttpResponse overloaded;
  overloaded.status = 503;
  overloaded.body = json_error("server at connection capacity");
  overloaded.close = true;
  const std::string wire = serialize(overloaded, /*keep_alive=*/false);
  (void)!::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  ::close(fd);
}

void HttpServer::handle_connection_event(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;  // closed earlier this batch
  Connection& conn = *it->second;

  if (conn.state == Connection::State::kDispatched) {
    // Events are masked off while a worker owns the request, but
    // EPOLLERR/EPOLLHUP are always reported: the peer is fully gone, so
    // drop the connection now (the pending completion is discarded when
    // it finds no connection under this id).
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) close_connection(id);
    return;
  }
  if (conn.state == Connection::State::kWriting) {
    if ((events & EPOLLERR) != 0) {
      close_connection(id);
      return;
    }
    switch (flush_writes(conn)) {
      case Flush::kDone:
        finish_write(conn);
        return;
      case Flush::kBlocked:
        return;
      case Flush::kError:
        close_connection(id);
        return;
    }
    return;
  }
  // kReading: feed the parser from the socket.
  handle_readable(conn);
}

void HttpServer::handle_readable(Connection& conn) {
  char buf[16384];
  while (!conn.parser.complete() && !conn.parser.failed()) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      close_connection(conn.id);  // peer closed
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      close_connection(conn.id);
      return;
    }
    conn.last_activity = Clock::now();
    conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }

  if (conn.parser.failed()) {
    ++parse_errors_;
    HttpResponse error;
    error.status = conn.parser.error_status();
    error.body = json_error(conn.parser.error_message());
    record_response(error.status, 0);
    if (access_logger_) {
      access_logger_("(malformed) " + std::to_string(error.status));
    }
    std::string head = serialize_head(error, /*keep_alive=*/false);
    begin_write(conn, std::move(head), std::move(error.body), /*close_after=*/true);
    return;
  }
  dispatch(conn);
}

/// Hands the fully-parsed request to the worker pool and masks the fd's
/// events: nothing more is read from this connection until the response
/// has been written (strict serial per connection, as HTTP requires).
void HttpServer::dispatch(Connection& conn) {
  conn.state = Connection::State::kDispatched;
  (void)update_epoll(conn.fd, conn.id, 0);
  ++in_flight_;
  Job job;
  job.conn_id = conn.id;
  job.request = conn.parser.take_request();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void HttpServer::begin_write(Connection& conn, std::string head, std::string body,
                             bool close_after) {
  conn.write_head = std::move(head);
  conn.write_body = std::move(body);
  conn.write_off = 0;
  conn.close_after_write = close_after;
  conn.state = Connection::State::kWriting;
  if (fault::triggered("net.send")) {
    close_connection(conn.id);
    return;
  }
  switch (flush_writes(conn)) {
    case Flush::kDone:
      finish_write(conn);
      return;
    case Flush::kBlocked:
      (void)update_epoll(conn.fd, conn.id, EPOLLOUT);
      return;
    case Flush::kError:
      close_connection(conn.id);
      return;
  }
}

HttpServer::Flush HttpServer::flush_writes(Connection& conn) {
  // Gathered write: whatever remains of the head and the body goes out in
  // one sendmsg (writev with MSG_NOSIGNAL), so a small response — exactly
  // what paged queries produce — costs a single syscall instead of two.
  const std::size_t total = conn.write_head.size() + conn.write_body.size();
  while (conn.write_off < total) {
    iovec iov[2];
    int iovcnt = 0;
    if (conn.write_off < conn.write_head.size()) {
      iov[iovcnt].iov_base =
          const_cast<char*>(conn.write_head.data()) + conn.write_off;
      iov[iovcnt].iov_len = conn.write_head.size() - conn.write_off;
      ++iovcnt;
    }
    const std::size_t body_off = conn.write_off > conn.write_head.size()
                                     ? conn.write_off - conn.write_head.size()
                                     : 0;
    if (body_off < conn.write_body.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(conn.write_body.data()) + body_off;
      iov[iovcnt].iov_len = conn.write_body.size() - body_off;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Flush::kBlocked;
      return Flush::kError;
    }
    if (iovcnt == 2) ++writev_batches_;
    conn.write_off += static_cast<std::size_t>(n);
    conn.last_activity = Clock::now();
  }
  return Flush::kDone;
}

/// The response is fully on the wire: either close, or return to the
/// reading state. A pipelined request may already be buffered in the
/// parser, in which case it dispatches immediately.
void HttpServer::finish_write(Connection& conn) {
  if (conn.close_after_write) {
    close_connection(conn.id);
    return;
  }
  conn.write_head.clear();
  conn.write_body.clear();
  conn.write_off = 0;
  conn.state = Connection::State::kReading;
  conn.last_activity = Clock::now();
  conn.parser.reset();
  if (conn.parser.complete()) {
    dispatch(conn);
    return;
  }
  if (conn.parser.failed()) {
    ++parse_errors_;
    HttpResponse error;
    error.status = conn.parser.error_status();
    error.body = json_error(conn.parser.error_message());
    record_response(error.status, 0);
    std::string head = serialize_head(error, /*keep_alive=*/false);
    begin_write(conn, std::move(head), std::move(error.body), /*close_after=*/true);
    return;
  }
  (void)update_epoll(conn.fd, conn.id, EPOLLIN);
}

void HttpServer::process_completions() {
  std::deque<Done> batch;
  {
    const std::lock_guard<std::mutex> lock(done_mutex_);
    batch.swap(done_);
  }
  for (Done& done : batch) {
    --in_flight_;
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died while dispatched
    begin_write(*it->second, std::move(done.head), std::move(done.body), !done.keep);
  }
}

void HttpServer::sweep_timeouts(Clock::time_point now) {
  if (config_.read_timeout_ms <= 0) return;
  const auto timeout = std::chrono::milliseconds(config_.read_timeout_ms);
  // Collect first: timing out a connection mutates conns_.
  std::vector<Connection*> stale;
  for (auto& [id, conn] : conns_) {
    if (conn->state != Connection::State::kDispatched &&
        now - conn->last_activity > timeout) {
      stale.push_back(conn.get());
    }
  }
  for (Connection* conn : stale) {
    ++read_timeouts_;
    if (conn->state == Connection::State::kReading && !conn->parser.idle()) {
      // A half-received request timed out; tell the peer before closing.
      HttpResponse timeout_response;
      timeout_response.status = 408;
      timeout_response.body = json_error("request read timed out");
      timeout_response.close = true;
      std::string head = serialize_head(timeout_response, /*keep_alive=*/false);
      begin_write(*conn, std::move(head), std::move(timeout_response.body),
                  /*close_after=*/true);
    } else {
      // Idle keep-alive connections (and stuck writers) are reaped
      // silently.
      close_connection(conn->id);
    }
  }
}

void HttpServer::close_connection(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);  // closing also removes the fd from epoll
  conns_.erase(it);
  open_connections_.store(conns_.size());
}

// ---------------------------------------------------------------- workers

void HttpServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return workers_quit_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // quitting, queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    const auto t0 = std::chrono::steady_clock::now();
    HttpResponse response;
    std::string failure;  // the handler's exception text, for the access log
    try {
      response = handler_(job.request);
    } catch (const std::exception& e) {
      response = HttpResponse{};
      response.status = 500;
      response.body = json_error("internal error");
      failure = e.what();
    }
    const auto latency_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const bool keep =
        job.request.keep_alive() && !response.close && !stopping_.load();
    std::string head = serialize_head(response, keep);
    // Record before the response can reach the peer so stats are visible
    // to any observer who has already received it.
    record_response(response.status, latency_us);
    if (access_logger_) {
      access_logger_(job.request.method + " " + job.request.target + " " +
                     std::to_string(response.status) + " " +
                     std::to_string(head.size() + response.body.size()) + " " +
                     std::to_string(latency_us) + "us" +
                     (failure.empty() ? "" : " error: " + failure));
    }
    {
      const std::lock_guard<std::mutex> lock(done_mutex_);
      done_.push_back(Done{job.conn_id, std::move(head), std::move(response.body), keep});
    }
    const char byte = 'w';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

void HttpServer::record_response(int status, std::uint64_t latency_us) {
  ++requests_handled_;
  latency_us_total_ += latency_us;
  if (status >= 500) {
    ++responses_5xx_;
  } else if (status >= 400) {
    ++responses_4xx_;
  } else {
    ++responses_2xx_;
  }
}

}  // namespace provml::net
