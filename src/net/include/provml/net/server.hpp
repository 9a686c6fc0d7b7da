// From-scratch POSIX-socket HTTP/1.1 server built around an epoll
// readiness loop: one event thread owns every connection fd in
// non-blocking mode and drives a per-connection state machine
// (reading → dispatched → writing → keep-alive idle), so an idle
// keep-alive client costs one fd, not one thread. Only *ready,
// fully-parsed* requests are handed to the fixed worker pool; workers
// run the handler and serialize the response, then hand the bytes back
// to the event thread (the sole socket writer) through a completion
// queue. Overload is shed at accept time: beyond `max_connections` the
// peer gets 503 + Connection: close, and fd exhaustion (EMFILE/ENFILE)
// is absorbed by a reserve fd plus a short accept backoff instead of a
// busy re-poll. Shutdown is graceful through a self-pipe:
// request_stop() is async-signal-safe (a single write()), the event
// loop drains in-flight requests, and stop() joins all threads and
// releases the port.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/net/http.hpp"
#include "provml/net/parser.hpp"

namespace provml::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 → ephemeral; see HttpServer::port()
  unsigned threads = 4;          ///< handler worker pool size (min 1)
  int read_timeout_ms = 5000;    ///< per-connection idle read timeout
  int listen_backlog = 256;
  std::size_t max_connections = 0;  ///< open-connection cap; 0 = unlimited.
                                    ///< Beyond it, accepts are shed with
                                    ///< 503 + Connection: close.
  ParserLimits limits{};
};

/// Monotonic counters (plus the open-connection gauge), readable while
/// the server runs.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_handled = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t parse_errors = 0;     ///< malformed/oversized requests
  std::uint64_t read_timeouts = 0;
  std::uint64_t latency_us_total = 0; ///< handler time, summed
  std::uint64_t open_connections = 0; ///< gauge: fds currently in the loop
  std::uint64_t epoll_wakeups = 0;    ///< event-loop epoll_wait returns
  std::uint64_t connections_shed = 0; ///< 503'd at accept (cap or EMFILE)
  std::uint64_t writev_batches = 0;   ///< sendmsg calls that coalesced
                                      ///< header + body into one syscall

  [[nodiscard]] double mean_latency_us() const {
    return requests_handled == 0
               ? 0.0
               : static_cast<double>(latency_us_total) / static_cast<double>(requests_handled);
  }
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Called once per completed exchange with a pre-formatted line:
  /// `<method> <target> <status> <response-bytes> <micros>us`.
  /// Invoked from worker threads (and the event thread for malformed
  /// requests); the callback must be thread-safe.
  using AccessLogger = std::function<void(const std::string& line)>;

  HttpServer(ServerConfig config, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event-loop + worker threads.
  [[nodiscard]] Status start();

  /// Graceful shutdown: stops accepting, lets in-flight exchanges
  /// finish, joins all threads, closes every connection and the
  /// listening socket. Idempotent; also run by the destructor.
  void stop();

  /// Async-signal-safe stop request (one write to the self-pipe); pair
  /// with wait() from the serving thread.
  void request_stop() noexcept;

  /// Blocks until a stop is requested, then performs stop().
  void wait();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Actual bound port (useful when config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] ServerStats stats() const;

  /// Must be set before start(). One line per request; when the handler
  /// throws, the client gets a generic 500 and the line ends with
  /// "error: <what()>".
  void set_access_logger(AccessLogger logger) { access_logger_ = std::move(logger); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-connection state, owned exclusively by the event thread.
  /// Workers never touch a Connection: the parsed request moves out
  /// through the job queue and the response bytes move back through the
  /// completion queue, each handoff sequenced by its mutex.
  struct Connection {
    enum class State {
      kReading,     ///< fd armed for EPOLLIN, bytes feed the parser
      kDispatched,  ///< a worker owns the request; fd events masked off
      kWriting,     ///< draining write_buf; EPOLLOUT armed when blocked
    };
    int fd = -1;
    std::uint64_t id = 0;
    State state = State::kReading;
    RequestParser parser;
    // Response bytes kept as two buffers (status line + headers, body) so
    // the flush can gather both into a single writev-style syscall.
    std::string write_head;
    std::string write_body;
    std::size_t write_off = 0;  ///< progress over the concatenation [head|body]
    bool close_after_write = false;
    Clock::time_point last_activity{};
    explicit Connection(ParserLimits limits) : parser(limits) {}
  };

  /// A fully-parsed request on its way to a worker.
  struct Job {
    std::uint64_t conn_id = 0;
    HttpRequest request;
  };
  /// A serialized response on its way back to the event thread, head and
  /// body separate for the gathered write.
  struct Done {
    std::uint64_t conn_id = 0;
    std::string head;
    std::string body;
    bool keep = false;
  };

  enum class Flush { kDone, kBlocked, kError };

  void event_loop();
  void worker_loop();
  void handle_accept();
  void handle_fd_exhaustion();
  void shed_connection(int fd);
  void handle_connection_event(std::uint64_t id, std::uint32_t events);
  void handle_readable(Connection& conn);
  void dispatch(Connection& conn);
  void begin_write(Connection& conn, std::string head, std::string body,
                   bool close_after);
  [[nodiscard]] Flush flush_writes(Connection& conn);
  void finish_write(Connection& conn);
  void process_completions();
  void sweep_timeouts(Clock::time_point now);
  void close_connection(std::uint64_t id);
  void pause_accepting(Clock::time_point until);
  bool update_epoll(int fd, std::uint64_t id, std::uint32_t events) const;
  void record_response(int status, std::uint64_t latency_us);

  ServerConfig config_;
  Handler handler_;
  AccessLogger access_logger_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int reserve_fd_ = -1;          ///< held open so EMFILE can still accept+503
  int stop_pipe_[2] = {-1, -1};  ///< [read, write]; write end poked to stop
  int wake_pipe_[2] = {-1, -1};  ///< workers poke the event loop per Done
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Dispatch queue: event thread → workers.
  std::deque<Job> jobs_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool workers_quit_ = false;  ///< set under mutex_ after the loop exits

  // Completion queue: workers → event thread.
  std::deque<Done> done_;
  std::mutex done_mutex_;

  std::mutex lifecycle_mutex_;  ///< serializes start()/stop()

  // --- event-thread-only state (no locks needed) ---
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 16;  ///< ids below 16 tag loop-internal fds
  std::size_t in_flight_ = 0;        ///< dispatched jobs not yet completed
  bool accept_paused_ = false;
  Clock::time_point accept_resume_at_{};

  // Stats counters (atomics: touched by the event thread and workers).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_handled_{0};
  std::atomic<std::uint64_t> responses_2xx_{0};
  std::atomic<std::uint64_t> responses_4xx_{0};
  std::atomic<std::uint64_t> responses_5xx_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> latency_us_total_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> epoll_wakeups_{0};
  std::atomic<std::uint64_t> connections_shed_{0};
  std::atomic<std::uint64_t> writev_batches_{0};
};

}  // namespace provml::net
