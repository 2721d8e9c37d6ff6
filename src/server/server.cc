#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "server/json.h"
#include "server/prometheus.h"

namespace educe::server {

namespace {

/// Returns the session to the pool whatever exit path the query takes.
class SessionReturner {
 public:
  SessionReturner(AdmissionControl* admission, Session* session)
      : admission_(admission), session_(session) {}
  ~SessionReturner() { admission_->Release(session_); }
  SessionReturner(const SessionReturner&) = delete;
  SessionReturner& operator=(const SessionReturner&) = delete;

 private:
  AdmissionControl* admission_;
  Session* session_;
};

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Optional client-supplied correlation id. Sent as a decimal string
/// ("trace_id":"123...") because 64-bit ids do not survive the parser's
/// double representation; small ids as JSON numbers are accepted too.
/// Absent / malformed / 0 all mean "mint one server-side".
uint64_t RequestTraceId(const JsonValue& request) {
  const JsonValue* v = request.Find("trace_id");
  if (v == nullptr) return 0;
  if (v->is_number() && v->number >= 0 &&
      v->number < 9007199254740992.0) {  // 2^53: exact integer range
    return static_cast<uint64_t>(v->number);
  }
  if (v->is_string() && !v->string.empty() && v->string.size() <= 20) {
    uint64_t id = 0;
    for (char c : v->string) {
      if (c < '0' || c > '9') return 0;
      id = id * 10 + static_cast<uint64_t>(c - '0');
    }
    return id;
  }
  return 0;
}

/// The trace id rendered as it appears in every response line.
std::string TraceIdField(uint64_t trace_id) {
  return ",\"trace_id\":\"" + std::to_string(trace_id) + "\"";
}

/// An error response line, '\n' included. trace_id 0 omits the field.
std::string ErrorLine(uint64_t id, std::string_view code,
                      std::string_view message, uint64_t trace_id) {
  return "{\"type\":\"error\",\"id\":" + std::to_string(id) +
         ",\"code\":" + JsonQuote(code) + ",\"message\":" +
         JsonQuote(message) + (trace_id != 0 ? TraceIdField(trace_id) : "") +
         "}\n";
}

/// A query reply is written whenever its buffer reaches this size, and
/// once more at its end: one write for any reply under 64 KiB, while an
/// endless goal still reaches the client every 64 KiB.
constexpr size_t kReplyFlushBytes = 64 * 1024;

}  // namespace

/// One client connection, owned by exactly one handler thread — all
/// fields are touched only from that thread, so none of this needs a
/// lock.
struct QueryServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  uint64_t opened_ns = 0;
  std::string inbuf;  // bytes read but not yet framed into a line
};

struct QueryServer::Handler {
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: new sockets pending, or stop
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::mutex pending_mu;
  std::vector<int> pending;  // sockets handed over by the acceptor
};

QueryServer::QueryServer(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

QueryServer::~QueryServer() { Stop(); }

base::Status QueryServer::Start() {
  if (running_.exchange(true)) {
    return base::Status::FailedPrecondition("server already started");
  }

  EDUCE_ASSIGN_OR_RETURN(pool_,
                         SessionPool::Create(engine_, options_.pool_sessions));

  std::function<bool()> pressure = options_.pressure_fn;
  if (!pressure) {
    if (MemoryGovernor* governor = engine_->governor(); governor != nullptr) {
      // Default pressure signal: the governed stores hold substantially
      // more than their budget. That happens when a shrink decision is
      // blocked (e.g. pinned frames), i.e. exactly when parking more
      // queries behind the pool would make things worse.
      Engine* engine = engine_;
      pressure = [engine, governor] {
        const EngineMemoryReport mem = engine->Stats().memory;
        const uint64_t budget = governor->budget_bytes();
        return mem.buffer_resident_bytes + mem.code_cache_resident_bytes >
               budget + budget / 4;
      };
    }
  }
  admission_ = std::make_unique<AdmissionControl>(
      pool_.get(), AdmissionOptions{options_.queue_wait_ms, std::move(pressure)});

  // Nonblocking listener: the acceptor drains accept4 until EAGAIN and
  // parks in poll(), where the stop eventfd can always reach it.
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return base::Status::IOError(ErrnoText("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return base::Status::InvalidArgument("bad server host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return base::Status::IOError(ErrnoText("bind"));
  }
  if (::listen(listen_fd_, 1024) < 0) {
    return base::Status::IOError(ErrnoText("listen"));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  stop_event_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_event_ < 0) return base::Status::IOError(ErrnoText("eventfd"));

  uint32_t n_handlers = options_.handler_threads;
  if (n_handlers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n_handlers = hw == 0 ? 1 : (hw > 8 ? 8 : hw);
  }
  handlers_.reserve(n_handlers);
  for (uint32_t i = 0; i < n_handlers; ++i) {
    auto handler = std::make_unique<Handler>();
    handler->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (handler->epoll_fd < 0) {
      return base::Status::IOError(ErrnoText("epoll_create1"));
    }
    handler->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (handler->wake_fd < 0) {
      return base::Status::IOError(ErrnoText("eventfd"));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = handler->wake_fd;
    ::epoll_ctl(handler->epoll_fd, EPOLL_CTL_ADD, handler->wake_fd, &ev);
    handlers_.push_back(std::move(handler));
  }
  for (auto& handler : handlers_) {
    Handler* h = handler.get();
    h->thread = std::thread([this, h] { HandlerLoop(h); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return base::Status::OK();
}

void QueryServer::Stop() {
  if (!running_.load() || stopping_.exchange(true)) {
    // Never started, or another Stop already owns teardown. Still join if
    // this is a second call racing nothing (idempotent destructor path).
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& handler : handlers_) {
      if (handler->thread.joinable()) handler->thread.join();
    }
    return;
  }
  // Shed queued admissions first so handler threads cannot be parked on
  // the pool while we wait to join them.
  if (pool_ != nullptr) pool_->Shutdown();
  if (stop_event_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_event_, &one, sizeof(one));
  }
  for (auto& handler : handlers_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(handler->wake_fd, &one, sizeof(one));
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& handler : handlers_) {
    if (handler->thread.joinable()) handler->thread.join();
    if (handler->wake_fd >= 0) ::close(handler->wake_fd);
    if (handler->epoll_fd >= 0) ::close(handler->epoll_fd);
  }
  handlers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_event_ >= 0) ::close(stop_event_);
  listen_fd_ = -1;
  stop_event_ = -1;
  admission_.reset();
  pool_.reset();  // retires the sessions, unfreezing the engine
}

void QueryServer::AcceptLoop() {
  uint32_t next_handler = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_event_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained; anything else: retry on next poll
      }
      if (active_.load(std::memory_order_relaxed) >= options_.max_connections) {
        refused_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      active_.fetch_add(1, std::memory_order_relaxed);
      Handler* handler = handlers_[next_handler].get();
      next_handler = (next_handler + 1) % handlers_.size();
      {
        std::lock_guard<std::mutex> lock(handler->pending_mu);
        handler->pending.push_back(fd);
      }
      const uint64_t wake = 1;
      [[maybe_unused]] ssize_t n =
          ::write(handler->wake_fd, &wake, sizeof(wake));
    }
  }
}

void QueryServer::AdoptPending(Handler* handler) {
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(handler->pending_mu);
    pending.swap(handler->pending);
  }
  for (const int fd : pending) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->opened_ns = engine_->tracer()->NowNanos();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(handler->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    handler->conns.emplace(fd, std::move(conn));
  }
}

void QueryServer::HandlerLoop(Handler* handler) {
  epoll_event events[64];
  while (true) {
    const int n = ::epoll_wait(handler->epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == handler->wake_fd) {
        uint64_t drained = 0;
        while (::read(handler->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        woken = true;
        continue;
      }
      auto it = handler->conns.find(events[i].data.fd);
      if (it == handler->conns.end()) continue;
      // EPOLLHUP/EPOLLERR/EPOLLRDHUP all surface through the read path:
      // read() reports the close or the error precisely.
      ReadConn(handler, it->second.get());
    }
    if (woken) {
      if (stopping_.load(std::memory_order_acquire)) break;
      AdoptPending(handler);
    }
  }
  // Teardown: close every connection this handler still owns.
  while (!handler->conns.empty()) {
    CloseConn(handler, handler->conns.begin()->second.get());
  }
}

void QueryServer::ReadConn(Handler* handler, Conn* conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      // Frame and dispatch complete lines.
      size_t start = 0;
      while (true) {
        const size_t nl = conn->inbuf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string_view line(conn->inbuf.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        lines_.fetch_add(1, std::memory_order_relaxed);
        if (!HandleLine(conn, line)) {
          CloseConn(handler, conn);
          return;
        }
        start = nl + 1;
      }
      conn->inbuf.erase(0, start);
      if (conn->inbuf.size() > options_.max_line_bytes) {
        SendError(conn, 0, "line_too_long",
                  "request line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes");
        queries_error_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(handler, conn);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly close
      CloseConn(handler, conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
    CloseConn(handler, conn);  // ECONNRESET and friends
    return;
  }
}

bool QueryServer::HandleLine(Conn* conn, std::string_view line) {
  if (line.empty()) return true;
  if (line.substr(0, 4) == "GET ") return HandleHttp(conn, line);

  base::Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return SendError(conn, 0, "bad_json", parsed.status().message());
  }
  const JsonValue& request = *parsed;
  if (!request.is_object()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return SendError(conn, 0, "bad_request", "request must be a JSON object");
  }
  const std::string op = request.GetString("op");
  const uint64_t id = request.GetUint("id");
  if (op == "query") {
    const JsonValue* goal = request.Find("goal");
    if (goal == nullptr || !goal->is_string() || goal->string.empty()) {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(conn, id, "bad_request",
                       "query needs a non-empty string \"goal\"");
    }
    return HandleQuery(conn, id, goal->string, request.GetUint("limit"),
                       RequestTraceId(request));
  }
  if (op == "assert") {
    // Durable mutation over the wire: runs concurrently with the pool's
    // live query sessions (per-procedure latching, DESIGN.md §17.4) and
    // returns only after the WAL commit, so an acked assert survives a
    // crash. edb_retract stays reachable through the "query" op.
    const JsonValue* facts = request.Find("facts");
    if (facts == nullptr || !facts->is_string() || facts->string.empty()) {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(conn, id, "bad_request",
                       "assert needs a non-empty string \"facts\"");
    }
    const base::Status stored = engine_->StoreFactsExternal(facts->string);
    if (!stored.ok()) {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
      return SendError(conn, id, "assert_error", stored.ToString());
    }
    asserts_.fetch_add(1, std::memory_order_relaxed);
    std::string line = "{\"type\":\"asserted\",\"id\":" + std::to_string(id);
    if (engine_->wal() != nullptr) {
      line += ",\"durable_lsn\":" +
              std::to_string(engine_->wal()->durable_lsn());
    }
    return SendLine(conn, line + "}");
  }
  if (op == "metrics") {
    return SendLine(conn, "{\"type\":\"metrics\",\"data\":" +
                              engine_->ExportMetricsJson() + "}");
  }
  if (op == "ping") {
    return SendLine(conn, "{\"type\":\"pong\",\"id\":" + std::to_string(id) +
                              "}");
  }
  queries_error_.fetch_add(1, std::memory_order_relaxed);
  return SendError(conn, id, "bad_request", "unknown op: " + op);
}

bool QueryServer::HandleHttp(Conn* conn, std::string_view request_line) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  // "GET <path> HTTP/1.x" — one-shot: respond and close.
  std::string_view rest = request_line.substr(4);
  const size_t space = rest.find(' ');
  const std::string_view path =
      space == std::string_view::npos ? rest : rest.substr(0, space);
  std::string body;
  const char* status_line = "HTTP/1.0 200 OK";
  const char* content_type = "application/json";
  if (path == "/metrics") {
    body = engine_->ExportMetricsJson();
  } else if (path == "/metrics.prom") {
    // Prometheus scrape target (DESIGN.md §16.4).
    body = RenderPrometheus(engine_, this);
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/trace") {
    // Drains (and so consumes) the buffered spans as a Chrome trace
    // document — save the body to a file and open it in Perfetto.
    body = engine_->DrainSpansChromeTrace();
  } else if (path == "/server") {
    body = StatsJson();
  } else {
    body = "{\"error\":\"not found\"}";
    status_line = "HTTP/1.0 404 Not Found";
  }
  std::string response = std::string(status_line) + "\r\nContent-Type: " +
                         content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  SendAll(conn, response);
  return false;  // close regardless: HTTP here is strictly one-shot
}

bool QueryServer::HandleQuery(Conn* conn, uint64_t id, std::string_view goal,
                              uint64_t limit, uint64_t trace_id) {
  // Minted here (not in Session::Query) so every response line — errors
  // and admission sheds included — can echo the id, and so the
  // server-side span below carries it. The scope outlives the ScopedSpan,
  // whose destructor records while the id is still installed.
  if (trace_id == 0) trace_id = obs::MintTraceId();
  obs::TraceIdScope trace_scope(trace_id);
  obs::ScopedSpan span(engine_->tracer(), obs::SpanKind::kServerQuery,
                       conn->id);
  const AdmissionControl::Ticket ticket = admission_->Admit();
  if (ticket.session == nullptr) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    const bool pressured = ticket.outcome == AdmitOutcome::kShedPressure;
    return SendError(conn, id, "unavailable",
                     pressured
                         ? "server under memory pressure, retry later"
                         : "all sessions busy, queue wait exceeded",
                     trace_id);
  }
  SessionReturner returner(admission_.get(), ticket.session);

  base::Result<std::unique_ptr<Solutions>> opened =
      ticket.session->Query(goal, trace_id);
  if (!opened.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return SendError(conn, id, "query_error", opened.status().ToString(),
                     trace_id);
  }
  std::unique_ptr<Solutions> solutions = std::move(opened).value();

  // The reply is one write: binding lines collect in `reply` and go out
  // with the done (or error) line, or as soon as `reply` reaches
  // kReplyFlushBytes, so an endless goal still streams. A failed write
  // means the client is gone — destroy the Solutions (which frees the
  // session's machine mid-enumeration) and give the session back.
  const std::string trace_field = TraceIdField(trace_id);
  std::string reply;
  auto flush = [&] {
    if (SendAll(conn, reply)) {
      reply.clear();
      return true;
    }
    queries_aborted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  uint64_t seq = 0;
  bool more = false;
  while (true) {
    if (limit != 0 && seq >= limit) {
      more = true;
      break;
    }
    base::Result<bool> next = solutions->Next();
    if (!next.ok()) {
      queries_error_.fetch_add(1, std::memory_order_relaxed);
      reply += ErrorLine(id, "query_error", next.status().ToString(),
                         trace_id);
      return flush();
    }
    if (!*next) break;
    reply += "{\"type\":\"binding\",\"id\":" + std::to_string(id) +
             ",\"seq\":" + std::to_string(seq) + trace_field +
             ",\"bindings\":{";
    bool first = true;
    for (const auto& [name, value] : solutions->All()) {
      if (!first) reply += ',';
      first = false;
      reply += JsonQuote(name) + ":" + JsonQuote(value);
    }
    reply += "}}\n";
    ++seq;
    bindings_sent_.fetch_add(1, std::memory_order_relaxed);
    if (reply.size() >= kReplyFlushBytes && !flush()) return false;
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);
  reply += "{\"type\":\"done\",\"id\":" + std::to_string(id) +
           ",\"count\":" + std::to_string(seq) +
           ",\"more\":" + (more ? "true" : "false") + trace_field + "}\n";
  return flush();
}

void QueryServer::CloseConn(Handler* handler, Conn* conn) {
  obs::Tracer* tracer = engine_->tracer();
  if (tracer->enabled()) {
    const uint64_t now = tracer->NowNanos();
    tracer->Record(obs::SpanKind::kServerConn, conn->opened_ns,
                   now > conn->opened_ns ? now - conn->opened_ns : 0, conn->id);
  }
  ::epoll_ctl(handler->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  active_.fetch_sub(1, std::memory_order_relaxed);
  handler->conns.erase(conn->fd);  // frees conn
}

bool QueryServer::SendAll(Conn* conn, std::string_view bytes) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd out{conn->fd, POLLOUT, 0};
      const int ready =
          ::poll(&out, 1, static_cast<int>(options_.write_timeout_ms));
      if (ready <= 0) return false;  // stuck client (or poll error)
      continue;
    }
    return false;  // EPIPE / ECONNRESET: peer is gone
  }
  return true;
}

bool QueryServer::SendLine(Conn* conn, std::string line) {
  line += '\n';
  return SendAll(conn, line);
}

bool QueryServer::SendError(Conn* conn, uint64_t id, std::string_view code,
                            std::string_view message, uint64_t trace_id) {
  return SendAll(conn, ErrorLine(id, code, message, trace_id));
}

QueryServer::Stats QueryServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.lines = lines_.load(std::memory_order_relaxed);
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_error = queries_error_.load(std::memory_order_relaxed);
  s.queries_aborted = queries_aborted_.load(std::memory_order_relaxed);
  s.bindings_sent = bindings_sent_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.asserts = asserts_.load(std::memory_order_relaxed);
  s.http_requests = http_requests_.load(std::memory_order_relaxed);
  return s;
}

std::string QueryServer::StatsJson() const {
  const Stats s = stats();
  auto num = [](uint64_t v) { return std::to_string(v); };
  std::string out = "{\"accepted\":" + num(s.accepted) +
                    ",\"refused\":" + num(s.refused) +
                    ",\"active\":" + num(s.active) +
                    ",\"lines\":" + num(s.lines) +
                    ",\"queries_ok\":" + num(s.queries_ok) +
                    ",\"queries_error\":" + num(s.queries_error) +
                    ",\"queries_aborted\":" + num(s.queries_aborted) +
                    ",\"bindings_sent\":" + num(s.bindings_sent) +
                    ",\"writes\":" + num(s.writes) +
                    ",\"asserts\":" + num(s.asserts) +
                    ",\"http_requests\":" + num(s.http_requests);
  if (pool_ != nullptr) {
    out += ",\"pool\":{\"size\":" + num(pool_->size()) +
           ",\"idle\":" + num(pool_->idle()) +
           ",\"acquired\":" + num(pool_->acquired()) +
           ",\"waited\":" + num(pool_->waited()) +
           ",\"exhausted\":" + num(pool_->exhausted()) + "}";
  }
  if (admission_ != nullptr) {
    out += ",\"admission\":{\"admitted\":" + num(admission_->admitted()) +
           ",\"shed_pressure\":" + num(admission_->shed_pressure()) +
           ",\"shed_timeout\":" + num(admission_->shed_timeout()) + "}";
  }
  out += "}";
  return out;
}

}  // namespace educe::server
