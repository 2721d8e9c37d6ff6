#ifndef EDUCE_SERVER_SERVER_H_
#define EDUCE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "educe/engine.h"
#include "server/admission.h"
#include "server/session_pool.h"

namespace educe::server {

/// Query server configuration. The defaults suit tests (ephemeral port,
/// small pool); server_main exposes the interesting ones as flags.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;

  /// Connection-handling threads (each runs its own epoll loop). 0 picks
  /// from hardware_concurrency, clamped to [1, 8].
  uint32_t handler_threads = 0;

  /// Worker sessions opened at Start (the concurrent-query ceiling).
  uint32_t pool_sessions = 4;

  /// A request line longer than this closes the connection (protocol
  /// error); bounds per-connection buffering against hostile input.
  uint64_t max_line_bytes = 1 << 20;

  /// Accept ceiling; connections beyond it are closed immediately.
  uint32_t max_connections = 8192;

  /// A streamed write that cannot make progress for this long marks the
  /// client dead and aborts its query.
  uint64_t write_timeout_ms = 10000;

  /// Admission queueing bound (see AdmissionOptions::queue_wait_ms).
  uint64_t queue_wait_ms = 2000;

  /// Memory-pressure probe override. Unset, the server derives one from
  /// the engine's MemoryGovernor: pressure when pool + cache residency
  /// overshoot the governed budget (e.g. pinned frames blocking a
  /// shrink). Without a governor the default never sheds on pressure.
  std::function<bool()> pressure_fn;
};

/// The Educe* query server (DESIGN.md §13): a line-oriented JSON
/// protocol over TCP, one engine, many clients.
///
/// Protocol — one JSON object per '\n'-terminated line, both ways:
///   -> {"op":"query","goal":"reach(a,X)","id":7,"limit":100}
///   <- {"type":"binding","id":7,"seq":0,"trace_id":"...","bindings":{"X":"b"}}
///      (per solution; a query's reply is written once at its end, or
///      once per 64 KiB of it, so an endless goal still streams)
///   <- {"type":"done","id":7,"count":12,"more":false,"trace_id":"..."}
///   <- {"type":"error","id":7,"code":"...","message":"...","trace_id":"..."}
///   -> {"op":"metrics"}   <- {"type":"metrics","data":{...}}
///   -> {"op":"ping"}      <- {"type":"pong"}
/// A query may carry "trace_id" (a decimal string; a JSON number under
/// 2^53 works too) to correlate the response stream with the engine's
/// trace spans; omitted, the server mints one. Either way every
/// binding/done/error line echoes it back as a decimal string
/// (DESIGN.md §16.2).
/// A line starting with "GET " switches the connection to one-shot HTTP:
/// "GET /metrics" returns Engine::ExportMetricsJson, "GET /metrics.prom"
/// the Prometheus text exposition, "GET /trace" drains the span buffer
/// as a Chrome trace_event document (open in Perfetto), "GET /server"
/// the server's own stats; all close after one response.
///
/// Threading: an acceptor thread hands sockets round-robin to N handler
/// threads; each handler multiplexes its connections with epoll and runs
/// admitted queries synchronously, collecting a query's binding lines in
/// a reply buffer local to the query and writing it with the done line,
/// or whenever it reaches 64 KiB. A slow client therefore holds only its
/// handler (bounded by write_timeout_ms), never the engine. Disconnect
/// mid-stream surfaces as a failed write; the handler destroys the
/// Solutions (freeing the session's machine) and returns the session to
/// the pool.
class QueryServer {
 public:
  /// `engine` must outlive the server and have all program/data setup
  /// done: Start opens the session pool, which freezes the engine.
  QueryServer(Engine* engine, ServerOptions options);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, opens the pool, spawns threads. Not restartable.
  base::Status Start();

  /// Graceful stop: closes the listener and every connection, joins all
  /// threads, retires the pool (unfreezing the engine). Idempotent; also
  /// run by the destructor.
  void Stop();

  /// The bound port (after Start), for ephemeral-port tests.
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t accepted = 0;
    uint64_t refused = 0;       // over max_connections
    uint64_t active = 0;
    uint64_t lines = 0;         // protocol lines parsed (ok or not)
    uint64_t queries_ok = 0;    // reached "done"
    uint64_t queries_error = 0; // any error line sent
    // A reply write failed (client gone). The query's ok/error count,
    // taken before its last write, stands.
    uint64_t queries_aborted = 0;
    uint64_t bindings_sent = 0;    // binding lines put in a reply
    uint64_t writes = 0;           // buffers handed to SendAll
    uint64_t asserts = 0;       // "assert" ops durably stored
    uint64_t http_requests = 0;
  };
  Stats stats() const;

  /// stats() plus pool/admission gauges as one JSON object (the HTTP
  /// "GET /server" body).
  std::string StatsJson() const;

  AdmissionControl* admission() const { return admission_.get(); }
  SessionPool* pool() const { return pool_.get(); }

 private:
  struct Conn;
  struct Handler;

  void AcceptLoop();
  void HandlerLoop(Handler* handler);
  void AdoptPending(Handler* handler);
  void ReadConn(Handler* handler, Conn* conn);
  /// False: close the connection (protocol violation or dead peer).
  bool HandleLine(Conn* conn, std::string_view line);
  bool HandleHttp(Conn* conn, std::string_view request_line);
  bool HandleQuery(Conn* conn, uint64_t id, std::string_view goal,
                   uint64_t limit, uint64_t trace_id);
  void CloseConn(Handler* handler, Conn* conn);

  /// Blocking send of the whole buffer on a nonblocking socket (polls
  /// for writability, bounded by write_timeout_ms). False: peer dead or
  /// stuck — caller must close.
  bool SendAll(Conn* conn, std::string_view bytes);
  bool SendLine(Conn* conn, std::string line);
  bool SendError(Conn* conn, uint64_t id, std::string_view code,
                 std::string_view message, uint64_t trace_id = 0);

  Engine* engine_;
  ServerOptions options_;
  std::unique_ptr<SessionPool> pool_;
  std::unique_ptr<AdmissionControl> admission_;

  int listen_fd_ = -1;
  int stop_event_ = -1;  // eventfd: wakes the acceptor on Stop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::unique_ptr<Handler>> handlers_;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> lines_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_aborted_{0};
  std::atomic<uint64_t> bindings_sent_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> asserts_{0};
  std::atomic<uint64_t> http_requests_{0};
};

}  // namespace educe::server

#endif  // EDUCE_SERVER_SERVER_H_
