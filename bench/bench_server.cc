// Query-server load bench (DESIGN.md §13): holds >=1000 concurrent TCP
// clients against one in-process QueryServer, fires bursts where every
// client has a query outstanding at once, and gates on p50/p99
// end-to-end latency (send -> done line read) plus exact answer counts.
//
// The burst shape is the point: with pool_sessions worker sessions and a
// handful of handler threads, a 1000-client burst exercises the whole
// admission path — kernel-buffered request lines, synchronous handler
// execution, one write per query reply (or per 64 KiB of it) — rather
// than a polite one-at-a-time request loop. Counts (bindings, dones,
// errors) are exact, so any dropped or duplicated answer under load
// aborts the run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "educe/engine.h"
#include "obs/histogram.h"
#include "server/server.h"

namespace educe {
namespace {

using bench::BenchJson;
using bench::Check;
using bench::Table;

constexpr uint32_t kClients = 1000;
constexpr uint32_t kDrivers = 8;
constexpr uint32_t kRounds = 3;   // measured burst rounds (plus 1 warmup)
constexpr uint32_t kRows = 25;    // solutions per query, verified exactly

// End-to-end latency bars for one query inside a 1000-client burst.
// Generous: they catch a serialization collapse (a held engine lock, a
// blocking accept, a per-binding flush stall), not scheduler noise.
constexpr uint64_t kP50BarNs = 2'000'000'000;   // 2 s
constexpr uint64_t kP99BarNs = 10'000'000'000;  // 10 s

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Fatal(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "FATAL: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  std::abort();
}

/// Minimal blocking line client; a long receive timeout turns a server
/// stall into a loud failure instead of a hung bench.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendLine(std::string line) {
    line += '\n';
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string ItemFacts(uint32_t n) {
  std::string out;
  for (uint32_t i = 0; i < n; ++i) {
    out += "item(" + std::to_string(i) + ", " + std::to_string(2 * i) + "). ";
  }
  return out;
}

/// Reads one response stream (bindings then done) off `client`, checking
/// seq ordering and the exact row count. Returns the done-read time.
uint64_t DrainResponse(Client* client, uint64_t client_index) {
  std::string line;
  uint64_t seq = 0;
  while (true) {
    if (!client->ReadLine(&line)) {
      Fatal("client %llu: connection died mid-response (after seq %llu)",
            (unsigned long long)client_index, (unsigned long long)seq);
    }
    if (line.find("\"type\":\"binding\"") != std::string::npos) {
      const std::string want = "\"seq\":" + std::to_string(seq);
      if (line.find(want) == std::string::npos) {
        Fatal("client %llu: out-of-order binding, wanted %s in: %s",
              (unsigned long long)client_index, want.c_str(), line.c_str());
      }
      ++seq;
      continue;
    }
    if (line.find("\"type\":\"done\"") != std::string::npos) {
      const std::string want = "\"count\":" + std::to_string(kRows);
      if (seq != kRows || line.find(want) == std::string::npos) {
        Fatal("client %llu: done after %llu bindings, line: %s",
              (unsigned long long)client_index, (unsigned long long)seq,
              line.c_str());
      }
      return NowNs();
    }
    Fatal("client %llu: unexpected line: %s", (unsigned long long)client_index,
          line.c_str());
  }
}

/// One burst: every driver fires a query on each of its clients, then
/// drains the responses, recording send->done latency per query.
void RunBurst(std::vector<Client>& clients, obs::Histogram* merged,
              bool record) {
  std::vector<obs::Histogram> per_driver(kDrivers);
  std::vector<std::thread> drivers;
  const uint32_t per = kClients / kDrivers;
  for (uint32_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const uint32_t begin = d * per;
      const uint32_t end = (d + 1 == kDrivers) ? kClients : begin + per;
      std::vector<uint64_t> sent_at(end - begin);
      for (uint32_t i = begin; i < end; ++i) {
        sent_at[i - begin] = NowNs();
        if (!clients[i].SendLine(
                R"json({"op":"query","goal":"item(X, Y)","id":1})json")) {
          Fatal("client %u: send failed", i);
        }
      }
      for (uint32_t i = begin; i < end; ++i) {
        const uint64_t done_at = DrainResponse(&clients[i], i);
        per_driver[d].Record(done_at - sent_at[i - begin]);
      }
    });
  }
  for (auto& t : drivers) t.join();
  if (record) {
    for (const auto& h : per_driver) merged->Merge(h);
  }
}

int Main() {
  // 1000 client sockets + 1000 server-side conns + epoll/event fds.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < 4096 && nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max < 4096 ? nofile.rlim_max : 4096;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
    ::getrlimit(RLIMIT_NOFILE, &nofile);
  }
  if (nofile.rlim_cur < 2200) {
    Fatal("RLIMIT_NOFILE %llu too low for %u clients (need ~2200)",
          (unsigned long long)nofile.rlim_cur, kClients);
  }

  Engine engine;
  Check(engine.DeclareRelation("item", 2), "declare item");
  Check(engine.StoreFactsExternal(ItemFacts(kRows)), "item facts");

  server::ServerOptions options;
  options.pool_sessions = 4;
  options.handler_threads = 4;
  options.max_connections = 2048;
  // A full burst queues ~kClients/pool queries behind each session;
  // queueing is the scenario under test, so never shed on wait.
  options.queue_wait_ms = 60000;
  server::QueryServer server(&engine, options);
  Check(server.Start(), "server start");
  const uint16_t port = server.port();
  std::printf("bench_server: %u clients, %u drivers, pool %u, port %u\n",
              kClients, kDrivers, options.pool_sessions, port);

  // --- Phase 1: connect everyone, prove liveness with a ping wave ---------
  base::Stopwatch connect_watch;
  std::vector<Client> clients(kClients);
  {
    std::vector<std::thread> drivers;
    const uint32_t per = kClients / kDrivers;
    for (uint32_t d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&, d] {
        const uint32_t begin = d * per;
        const uint32_t end = (d + 1 == kDrivers) ? kClients : begin + per;
        for (uint32_t i = begin; i < end; ++i) {
          if (!clients[i].Connect(port)) Fatal("client %u: connect failed", i);
          if (!clients[i].SendLine(R"json({"op":"ping"})json")) {
            Fatal("client %u: ping send failed", i);
          }
        }
        std::string line;
        for (uint32_t i = begin; i < end; ++i) {
          if (!clients[i].ReadLine(&line) ||
              line.find("pong") == std::string::npos) {
            Fatal("client %u: no pong: %s", i, line.c_str());
          }
        }
      });
    }
    for (auto& t : drivers) t.join();
  }
  const double connect_seconds = connect_watch.ElapsedSeconds();

  // --- Phase 2: warmup burst (compiles the goal in every session) ---------
  obs::Histogram latency;
  RunBurst(clients, &latency, /*record=*/false);

  // --- Phase 3: measured bursts -------------------------------------------
  base::Stopwatch burst_watch;
  for (uint32_t round = 0; round < kRounds; ++round) {
    RunBurst(clients, &latency, /*record=*/true);
  }
  const double burst_seconds = burst_watch.ElapsedSeconds();

  for (auto& client : clients) client.Close();

  // --- Checks: exact server-side accounting -------------------------------
  // A client reads its "done" line a moment before the handler's RAII
  // returns the session and bumps queries_ok, so give the server a beat
  // to settle before demanding exact counts.
  const uint64_t expected_queries =
      static_cast<uint64_t>(kClients) * (kRounds + 1);
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.pool()->idle() == options.pool_sessions &&
        server.stats().queries_ok == expected_queries) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const server::QueryServer::Stats stats = server.stats();
  if (stats.queries_ok != expected_queries) {
    Fatal("queries_ok %llu != %llu", (unsigned long long)stats.queries_ok,
          (unsigned long long)expected_queries);
  }
  if (stats.queries_error != 0 || stats.queries_aborted != 0) {
    Fatal("server saw %llu errors, %llu aborts",
          (unsigned long long)stats.queries_error,
          (unsigned long long)stats.queries_aborted);
  }
  if (stats.bindings_sent != expected_queries * kRows) {
    Fatal("bindings_sent %llu != %llu",
          (unsigned long long)stats.bindings_sent,
          (unsigned long long)(expected_queries * kRows));
  }
  const uint64_t shed_pressure = server.admission()->shed_pressure();
  const uint64_t shed_timeout = server.admission()->shed_timeout();
  const uint64_t shed = shed_pressure + shed_timeout;
  if (shed != 0) {
    Fatal("%llu queries shed with an idle-capable pool",
          (unsigned long long)shed);
  }
  const uint64_t pool_acquired = server.pool()->acquired();
  const uint64_t pool_waited = server.pool()->waited();
  if (server.pool()->idle() != options.pool_sessions) {
    Fatal("pool leaked: %u idle of %u", server.pool()->idle(),
          options.pool_sessions);
  }

  server.Stop();
  if (engine.active_sessions() != 0) {
    Fatal("engine still has %llu sessions after Stop",
          (unsigned long long)engine.active_sessions());
  }

  const uint64_t measured = static_cast<uint64_t>(kClients) * kRounds;
  const double queries_per_s = measured / burst_seconds;
  Table table("Query server under a 1000-client burst");
  table.Header({"phase", "wall ms", "queries", "p50 ms", "p99 ms", "max ms"});
  table.Row({"connect+ping", bench::Ms(connect_seconds),
             bench::Num(kClients), "-", "-", "-"});
  table.Row({"bursts", bench::Ms(burst_seconds), bench::Num(measured),
             bench::Ms(latency.Percentile(50) * 1e-9),
             bench::Ms(latency.Percentile(99) * 1e-9),
             bench::Ms(latency.max() * 1e-9)});
  table.Print();
  std::printf("\nthroughput: %.0f queries/s (pool %u, %u handler threads), "
              "pool waited %llu of %llu acquires\n",
              queries_per_s, options.pool_sessions, options.handler_threads,
              (unsigned long long)pool_waited,
              (unsigned long long)pool_acquired);

  BenchJson json;
  json.Add("bench", std::string("server"));
  json.AddHostCores();
  json.AddToolchain();
  json.Add("client_count", static_cast<uint64_t>(kClients));
  json.Add("burst_rounds", static_cast<uint64_t>(kRounds));
  json.AddHistogram("query", latency);
  json.Add("binding_rows", stats.bindings_sent);
  json.Add("error_count", stats.queries_error);
  json.Add("aborted_count", stats.queries_aborted);
  json.Add("shed_pressure", shed_pressure);
  json.Add("shed_timeout", shed_timeout);
  json.Add("pool_waited", pool_waited);
  json.Add("connect_ms", connect_seconds * 1e3);
  json.Add("burst_ms", burst_seconds * 1e3);
  json.Add("queries_per_s", queries_per_s);
  json.Print();

  // --- Bars ---------------------------------------------------------------
  if (latency.Percentile(50) > kP50BarNs) {
    Fatal("p50 %.1f ms over the %.0f ms bar", latency.Percentile(50) * 1e-6,
          kP50BarNs * 1e-6);
  }
  if (latency.Percentile(99) > kP99BarNs) {
    Fatal("p99 %.1f ms over the %.0f ms bar", latency.Percentile(99) * 1e-6,
          kP99BarNs * 1e-6);
  }
  std::printf("bench_server: OK\n");
  return 0;
}

}  // namespace
}  // namespace educe

int main() { return educe::Main(); }
