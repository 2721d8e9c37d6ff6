// Query-server tests (DESIGN.md §13): the JSON line protocol against
// adversarial input, real streaming (bindings arrive while enumeration
// is still running), session-pool recovery when clients die mid-stream,
// admission shedding, and the metrics endpoints. The concurrent-clients
// test doubles as the TSan workout for the server's threading (run via
// scripts/check_sanitizers.sh thread).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "educe/engine.h"
#include "server/admission.h"
#include "server/json.h"
#include "server/server.h"
#include "server/session_pool.h"

namespace educe::server {
namespace {

// --- JSON parser unit tests -------------------------------------------------

TEST(JsonTest, ParsesObjectsStringsAndNumbers) {
  auto doc = ParseJson(
      R"json({"op":"query","goal":"nat(X)","id":7,"limit":10,"deep":{"a":[1,2,true,null]}})json");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(doc->is_object());
  EXPECT_EQ(doc->GetString("op"), "query");
  EXPECT_EQ(doc->GetString("goal"), "nat(X)");
  EXPECT_EQ(doc->GetUint("id"), 7u);
  EXPECT_EQ(doc->GetUint("limit"), 10u);
  EXPECT_EQ(doc->GetUint("missing", 42), 42u);
  const JsonValue* deep = doc->Find("deep");
  ASSERT_NE(deep, nullptr);
  const JsonValue* arr = deep->Find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 4u);
  EXPECT_EQ(arr->array[0].number, 1.0);
  EXPECT_EQ(arr->array[2].kind, JsonValue::Kind::kBool);
  EXPECT_EQ(arr->array[3].kind, JsonValue::Kind::kNull);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  auto doc = ParseJson(R"json({"s":"a\"b\\c\nd\u0041\u00e9\ud83d\ude00"})json");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("s"), "a\"b\\c\ndA\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("not json").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\":01x}").ok());
  EXPECT_FALSE(ParseJson("truthy").ok());
  EXPECT_FALSE(ParseJson("{\"a\":\"\\q\"}").ok());      // unknown escape
  EXPECT_FALSE(ParseJson("{\"a\":\"\\ud800\"}").ok());  // unpaired surrogate
  EXPECT_FALSE(ParseJson("{\"a\":\"\x01\"}").ok());     // raw control char
}

TEST(JsonTest, BoundsNestingDepth) {
  std::string nested(40, '[');
  nested += std::string(40, ']');
  EXPECT_FALSE(ParseJson(nested, 32).ok());
  EXPECT_TRUE(ParseJson(nested, 64).ok());
}

TEST(JsonTest, RejectsInvalidUtf8InStrings) {
  // 0xC3 0x28: truncated 2-byte sequence; 0xED 0xA0 0x80: encoded
  // surrogate; 0xC0 0xAF: overlong '/'.
  EXPECT_FALSE(ParseJson("{\"a\":\"\xC3\x28\"}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":\"\xED\xA0\x80\"}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":\"\xC0\xAF\"}").ok());
  EXPECT_TRUE(ParseJson("{\"a\":\"\xC3\xA9\"}").ok());  // é is fine raw
}

TEST(JsonTest, ValidUtf8Classifies) {
  EXPECT_TRUE(ValidUtf8("plain ascii"));
  EXPECT_TRUE(ValidUtf8("caf\xC3\xA9 \xF0\x9F\x98\x80"));
  EXPECT_FALSE(ValidUtf8("\xFF"));
  EXPECT_FALSE(ValidUtf8("\x80"));                  // stray continuation
  EXPECT_FALSE(ValidUtf8("\xE2\x82"));              // truncated 3-byte
  EXPECT_FALSE(ValidUtf8("\xF4\x90\x80\x80"));      // > U+10FFFF
}

TEST(JsonTest, QuoteEscapesControls) {
  EXPECT_EQ(JsonQuote("a\"b\\c\nd\x01"), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// --- TCP test client --------------------------------------------------------

/// Minimal blocking line client with a receive timeout so a server bug
/// fails the test instead of hanging it.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendLine(std::string line) {
    line += '\n';
    return SendRaw(line);
  }

  /// Reads one '\n'-terminated line (stripped). False on EOF/timeout.
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

  /// Reads to EOF, returning everything (for the HTTP one-shot paths).
  std::string ReadAll() {
    std::string out = buf_;
    buf_.clear();
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buf_;
};

JsonValue MustParse(const std::string& line) {
  auto doc = ParseJson(line);
  EXPECT_TRUE(doc.ok()) << doc.status() << " parsing: " << line;
  return doc.ok() ? *doc : JsonValue{};
}

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

std::string ItemFacts(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "item(" + std::to_string(i) + ", " + std::to_string(2 * i) + "). ";
  }
  return out;
}

// --- server tests -----------------------------------------------------------

TEST(ServerTest, AnswersPingAndFiniteQuery) {
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(10)).ok());
  ServerOptions options;
  options.pool_sessions = 2;
  options.handler_threads = 2;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"ping","id":3})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "pong");

  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"item(X, Y)","id":4})json"));
  int bindings = 0;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    const std::string type = doc.GetString("type");
    if (type == "binding") {
      EXPECT_EQ(doc.GetUint("id"), 4u);
      const JsonValue* b = doc.Find("bindings");
      ASSERT_NE(b, nullptr);
      EXPECT_NE(b->Find("X"), nullptr);
      EXPECT_NE(b->Find("Y"), nullptr);
      ++bindings;
      continue;
    }
    ASSERT_EQ(type, "done") << line;
    EXPECT_EQ(doc.GetUint("count"), 10u);
    break;
  }
  EXPECT_EQ(bindings, 10);
  server.Stop();
  EXPECT_EQ(server.stats().queries_ok, 1u);
}

// A reply under 64 KiB leaves the server as one write: the binding
// lines travel with their done line.
TEST(ServerTest, WritesASmallReplyOnce) {
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(10)).ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"ping","id":1})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const uint64_t writes_before = server.stats().writes;
  EXPECT_GE(writes_before, 1u);  // the pong

  ASSERT_TRUE(
      client.SendLine(R"json({"op":"query","goal":"item(X, Y)","id":2})json"));
  int bindings = 0;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    if (doc.GetString("type") != "binding") {
      ASSERT_EQ(doc.GetString("type"), "done") << line;
      EXPECT_EQ(doc.GetUint("count"), 10u);
      break;
    }
    ++bindings;
  }
  EXPECT_EQ(bindings, 10);
  EXPECT_EQ(server.stats().writes, writes_before + 1);
  EXPECT_NE(server.StatsJson().find("\"writes\":" +
                                    std::to_string(writes_before + 1)),
            std::string::npos);
  server.Stop();
}

// A reply over 64 KiB goes out in several writes, with every line in
// order and none lost at a write boundary.
TEST(ServerTest, LargeReplySpansSeveralWritesInOrder) {
  constexpr uint64_t kRows = 3000;  // ~100 bytes a line: ~300 KB
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const uint64_t writes_before = server.stats().writes;
  ASSERT_TRUE(
      client.SendLine(R"json({"op":"query","goal":"item(X, Y)","id":5})json"));
  uint64_t seq = 0;
  std::string line;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    if (doc.GetString("type") != "binding") {
      ASSERT_EQ(doc.GetString("type"), "done") << line;
      EXPECT_EQ(doc.GetUint("count"), kRows);
      break;
    }
    ASSERT_EQ(doc.GetUint("seq"), seq) << line;
    EXPECT_EQ(doc.GetUint("id"), 5u);
    ++seq;
  }
  EXPECT_EQ(seq, kRows);
  const QueryServer::Stats stats = server.stats();
  EXPECT_GE(stats.writes, writes_before + 2);
  EXPECT_EQ(stats.bindings_sent, kRows);
  EXPECT_EQ(stats.queries_ok, 1u);
  server.Stop();
}

// Bindings found before Next() fails reach the client ahead of the
// error line, in the same write, and the connection stays usable.
TEST(ServerTest, MidStreamErrorFollowsTheBindingsBeforeIt) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("q(1). q(2). q(3). q(a).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const uint64_t writes_before = server.stats().writes;
  const uint64_t errors_before = server.stats().queries_error;
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"q(X), Y is X + 1","id":8})json"));
  std::string line;
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    ASSERT_EQ(doc.GetString("type"), "binding") << line;
    EXPECT_EQ(doc.GetUint("seq"), i);
    const JsonValue* b = doc.Find("bindings");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->GetString("Y"), std::to_string(i + 2));
  }
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue error = MustParse(line);
  EXPECT_EQ(error.GetString("type"), "error") << line;
  EXPECT_EQ(error.GetString("code"), "query_error");
  EXPECT_EQ(error.GetUint("id"), 8u);
  EXPECT_EQ(server.stats().queries_error, errors_before + 1);
  EXPECT_EQ(server.stats().writes, writes_before + 1);

  ASSERT_TRUE(client.SendLine(R"json({"op":"ping","id":9})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "pong");
  server.Stop();
}

TEST(ServerTest, StreamsBindingsWhileEnumerationStillRunning) {
  // nat/1 enumerates 0,1,2,... forever; the query never completes. Any
  // binding the client receives therefore *proves* the server writes a
  // reply per 64 KiB of it instead of buffering the whole result set —
  // a server that waited for the done line would never write a byte.
  Engine engine;
  ASSERT_TRUE(engine.Consult("nat(0). nat(X) :- nat(Y), X is Y + 1.").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  options.write_timeout_ms = 5000;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"nat(X)","id":1})json"));
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    ASSERT_EQ(doc.GetString("type"), "binding") << line;
    const JsonValue* b = doc.Find("bindings");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->GetString("X"), std::to_string(i));
    EXPECT_EQ(doc.GetUint("seq"), static_cast<uint64_t>(i));
  }

  // Kill the client mid-stream. The server discovers the dead peer on a
  // failed send, destroys the Solutions mid-enumeration, and returns the
  // session to the pool.
  client.Close();
  EXPECT_TRUE(WaitFor([&] { return server.pool()->idle() == 1u; }))
      << "session not released after client death";
  EXPECT_TRUE(WaitFor([&] { return server.stats().active == 0u; }));
  EXPECT_EQ(server.stats().queries_aborted, 1u);

  // The recycled session still works.
  Client again;
  ASSERT_TRUE(again.Connect(server.port()));
  ASSERT_TRUE(
      again.SendLine(R"json({"op":"query","goal":"nat(X)","id":2,"limit":2})json"));
  std::string line;
  ASSERT_TRUE(again.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "binding");
  ASSERT_TRUE(again.ReadLine(&line));
  ASSERT_TRUE(again.ReadLine(&line));
  const JsonValue done = MustParse(line);
  EXPECT_EQ(done.GetString("type"), "done");
  EXPECT_EQ(done.GetUint("count"), 2u);
  const JsonValue* more = done.Find("more");
  ASSERT_NE(more, nullptr);
  EXPECT_TRUE(more->bool_value);
  server.Stop();
}

TEST(ServerTest, SurvivesAdversarialInput) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",                          // not an object
      R"json({"op":"query"})json",                // missing goal
      R"json({"op":"query","goal":42})json",      // goal not a string
      R"json({"op":"frobnicate"})json",           // unknown op
      "{\"op\":\"ping\",\"x\":\"\xC3\x28\"}",  // invalid UTF-8 in string
      std::string(40, '[') + std::string(40, ']'),  // nesting bomb
      R"json({"op":"query","goal":"p(("})json",   // Prolog syntax error
  };
  for (const std::string& line : bad) {
    ASSERT_TRUE(client.SendLine(line)) << line;
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << line;
    EXPECT_EQ(MustParse(response).GetString("type"), "error") << line;
  }
  // The connection survived all of it.
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"p(X)","id":9})json"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(MustParse(response).GetString("type"), "binding");
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(MustParse(response).GetString("type"), "done");
  server.Stop();
}

TEST(ServerTest, OversizedLineIsRefusedAndConnectionClosed) {
  Engine engine;
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  options.max_line_bytes = 1024;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(std::string(4096, 'a')));  // no newline
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue doc = MustParse(line);
  EXPECT_EQ(doc.GetString("type"), "error");
  EXPECT_EQ(doc.GetString("code"), "line_too_long");
  EXPECT_FALSE(client.ReadLine(&line));  // server closed the connection
  EXPECT_TRUE(WaitFor([&] { return server.stats().active == 0u; }));
  server.Stop();
}

TEST(ServerTest, MidMessageDisconnectCleansUp) {
  Engine engine;
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(R"json({"op":"qu)json"));  // half a message
  EXPECT_TRUE(WaitFor([&] { return server.stats().accepted == 1u; }));
  client.Close();
  EXPECT_TRUE(WaitFor([&] { return server.stats().active == 0u; }));
  EXPECT_EQ(server.pool()->idle(), 1u);  // never acquired
  server.Stop();
}

TEST(ServerTest, ShedsWhenPoolBusyAndRecoversAfterRelease) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("nat(0). nat(X) :- nat(Y), X is Y + 1.").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 2;  // so the shed victim has its own handler
  options.queue_wait_ms = 50;
  options.write_timeout_ms = 30000;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Client A occupies the only session with an endless stream it stops
  // reading; B must then be shed after the 50 ms queue wait.
  Client a;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(a.SendLine(R"json({"op":"query","goal":"nat(X)","id":1})json"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));  // query is definitely running

  Client b;
  ASSERT_TRUE(b.Connect(server.port()));
  ASSERT_TRUE(b.SendLine(R"json({"op":"query","goal":"nat(X)","id":2,"limit":1})json"));
  ASSERT_TRUE(b.ReadLine(&line));
  const JsonValue shed = MustParse(line);
  EXPECT_EQ(shed.GetString("type"), "error");
  EXPECT_EQ(shed.GetString("code"), "unavailable");
  EXPECT_GE(server.admission()->shed_timeout(), 1u);

  // A dies; the session comes back; B's retry succeeds.
  a.Close();
  EXPECT_TRUE(WaitFor([&] { return server.pool()->idle() == 1u; }));
  ASSERT_TRUE(b.SendLine(R"json({"op":"query","goal":"nat(X)","id":3,"limit":1})json"));
  ASSERT_TRUE(b.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "binding");
  ASSERT_TRUE(b.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "done");
  server.Stop();
}

TEST(ServerTest, MemoryPressureShedsImmediately) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  std::atomic<bool> pressured{true};
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  options.queue_wait_ms = 10000;  // would park forever if queueing applied
  options.pressure_fn = [&pressured] { return pressured.load(); };
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Stage 1: pressure on but the pool idle — the try-acquire still
  // admits (pressure only disables queueing, it never refuses capacity
  // that exists right now).
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(
      client.SendLine(R"json({"op":"query","goal":"p(X)","id":1,"limit":1})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "binding");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "done");

  // Stage 2: pressure on and the pool drained (simulated by acquiring
  // the only session out from under the server) -> immediate shed, no
  // 10-second queue wait. The handler thread releases the session
  // asynchronously after writing "done", so wait for it rather than
  // try-acquire (which races the release on slow hosts).
  Session* hog = server.pool()->Acquire(2000);
  ASSERT_NE(hog, nullptr);
  const auto before = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"p(X)","id":2})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  const auto elapsed = std::chrono::steady_clock::now() - before;
  const JsonValue doc = MustParse(line);
  EXPECT_EQ(doc.GetString("type"), "error");
  EXPECT_EQ(doc.GetString("code"), "unavailable");
  EXPECT_NE(doc.GetString("message").find("pressure"), std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000)
      << "pressure shed must bypass the queue wait";
  EXPECT_GE(server.admission()->shed_pressure(), 1u);

  // Pressure off, session back -> queueing admission works again.
  pressured = false;
  server.pool()->Release(hog);
  ASSERT_TRUE(
      client.SendLine(R"json({"op":"query","goal":"p(X)","id":3,"limit":1})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "binding");
  server.Stop();
}

TEST(ServerTest, MetricsOverProtocolAndHttp) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"metrics"})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue doc = MustParse(line);
  EXPECT_EQ(doc.GetString("type"), "metrics");
  const JsonValue* data = doc.Find("data");
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(data->is_object());
  EXPECT_NE(data->Find("query_latency_ns"), nullptr);
  client.Close();

  Client http;
  ASSERT_TRUE(http.Connect(server.port()));
  ASSERT_TRUE(http.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string response = http.ReadAll();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_TRUE(ParseJson(response.substr(body_at + 4)).ok());
  http.Close();

  Client stats;
  ASSERT_TRUE(stats.Connect(server.port()));
  ASSERT_TRUE(stats.SendRaw("GET /server HTTP/1.0\r\n\r\n"));
  response = stats.ReadAll();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"pool\""), std::string::npos);
  stats.Close();

  Client missing;
  ASSERT_TRUE(missing.Connect(server.port()));
  ASSERT_TRUE(missing.SendRaw("GET /nope HTTP/1.0\r\n\r\n"));
  EXPECT_NE(missing.ReadAll().find("404"), std::string::npos);
  server.Stop();
}

TEST(ServerTest, EchoesClientSuppliedTraceIdOnEveryLine) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  // As a string: the only lossless form for ids above 2^53.
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"p(X)","id":1,"trace_id":"12345678901234567890"})json"));
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    EXPECT_EQ(doc.GetString("type"), "binding");
    EXPECT_EQ(doc.GetString("trace_id"), "12345678901234567890");
  }
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue done = MustParse(line);
  EXPECT_EQ(done.GetString("type"), "done");
  EXPECT_EQ(done.GetString("trace_id"), "12345678901234567890");

  // As a number (fits a double exactly) — echoed back as a string.
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"p(X)","id":2,"limit":1,"trace_id":777})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("trace_id"), "777");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("trace_id"), "777");

  // Query errors carry the id too, so a client can correlate failures.
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"p(","id":3,"trace_id":"42"})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonValue error = MustParse(line);
  EXPECT_EQ(error.GetString("type"), "error");
  EXPECT_EQ(error.GetString("trace_id"), "42");
  client.Close();
  server.Stop();
}

TEST(ServerTest, MintsATraceIdWhenTheClientSendsNone) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"p(X)","id":1})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const std::string id = MustParse(line).GetString("trace_id");
  EXPECT_FALSE(id.empty());
  EXPECT_NE(id, "0");
  ASSERT_TRUE(client.ReadLine(&line));
  // The same minted id on every line of the response stream.
  EXPECT_EQ(MustParse(line).GetString("trace_id"), id);

  // A fresh query gets a fresh id.
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"p(X)","id":2})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(MustParse(line).GetString("trace_id"), id);
  client.Close();
  server.Stop();
}

TEST(ServerTest, PrometheusEndpointServesTextExposition) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // One query first, so the latency histogram has a sample.
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"p(X)","id":1})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));
  client.Close();
  ASSERT_TRUE(WaitFor([&] { return server.stats().queries_ok == 1u; }));

  Client http;
  ASSERT_TRUE(http.Connect(server.port()));
  ASSERT_TRUE(http.SendRaw("GET /metrics.prom HTTP/1.0\r\n\r\n"));
  const std::string response = http.ReadAll();
  http.Close();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("# TYPE educe_query_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(body.find("educe_query_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(body.find("educe_build_info"), std::string::npos);
  EXPECT_NE(body.find("educe_server_queries_ok_total 1"), std::string::npos);
  EXPECT_NE(body.find("educe_server_pool_sessions 1"), std::string::npos);
  EXPECT_NE(body.find("# TYPE educe_lock_wait_seconds_total counter"),
            std::string::npos);
  server.Stop();
}

// Pool sessions live until Stop(), so a live server's metrics only count
// its queries if each query reports as it retires. Both endpoints must
// show every served query's latency sample while the server still runs.
TEST(ServerTest, MetricsCountEveryQueryWhileSessionsStayOpen) {
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(10)).ok());
  ServerOptions options;
  options.pool_sessions = 2;
  options.handler_threads = 2;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr uint64_t kQueries = 6;
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (uint64_t id = 1; id <= kQueries; ++id) {
    ASSERT_TRUE(client.SendLine(R"json({"op":"query","goal":"item(X, Y)","id":)json" +
                                std::to_string(id) + "}"));
    std::string line;
    do {
      ASSERT_TRUE(client.ReadLine(&line));
    } while (MustParse(line).GetString("type") == "binding");
    ASSERT_EQ(MustParse(line).GetString("type"), "done") << line;
  }
  client.Close();

  auto http_body = [&](const char* path) {
    Client http;
    EXPECT_TRUE(http.Connect(server.port()));
    EXPECT_TRUE(http.SendRaw(std::string("GET ") + path +
                             " HTTP/1.0\r\n\r\n"));
    const std::string response = http.ReadAll();
    const size_t body_at = response.find("\r\n\r\n");
    return body_at == std::string::npos ? std::string()
                                        : response.substr(body_at + 4);
  };
  const std::string prom = http_body("/metrics.prom");
  EXPECT_NE(prom.find("\neduce_query_latency_seconds_count " +
                      std::to_string(kQueries) + "\n"),
            std::string::npos)
      << prom;

  const JsonValue metrics = MustParse(http_body("/metrics"));
  const JsonValue* latency = metrics.Find("query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->GetUint("count"), kQueries);
  // The sessions' WAM work reaches the engine totals live too.
  const JsonValue* totals = metrics.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->GetUint("instructions"), 0u);
  server.Stop();
}

TEST(ServerTest, ChromeTraceEndpointDrainsRequestCorrelatedSpans) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  engine.SetProfiling(true);  // enables the tracer the server records into
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 1;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"p(X)","id":1,"trace_id":"424242"})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("type"), "done");
  client.Close();

  Client http;
  ASSERT_TRUE(http.Connect(server.port()));
  ASSERT_TRUE(http.SendRaw("GET /trace HTTP/1.0\r\n\r\n"));
  const std::string response = http.ReadAll();
  http.Close();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto doc = ParseJson(response.substr(body_at + 4));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("displayTimeUnit"), "ns");
  // The client's id flows server -> session -> engine: both the server's
  // own request span and the engine-side execution spans carry it.
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int correlated = 0;
  bool server_span = false;
  for (const JsonValue& event : events->array) {
    if (event.GetString("ph") != "X") continue;
    const JsonValue* args = event.Find("args");
    if (args == nullptr || args->GetString("trace_id") != "424242") continue;
    ++correlated;
    if (event.GetString("name") == "server_query") server_span = true;
  }
  EXPECT_GE(correlated, 2) << "expected server + engine spans";
  EXPECT_TRUE(server_span);
  server.Stop();
}

TEST(ServerTest, ManyConcurrentClientsGetCorrectAnswers) {
  Engine engine;
  constexpr int kRows = 30;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ServerOptions options;
  options.pool_sessions = 4;
  options.handler_threads = 4;
  options.queue_wait_ms = 30000;  // queue, don't shed: assert correctness
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 12;
  constexpr int kQueriesEach = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(server.port())) {
        ++failures;
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        const uint64_t id = static_cast<uint64_t>(c * 100 + q);
        if (!client.SendLine(R"json({"op":"query","goal":"item(X, Y)","id":)json" +
                             std::to_string(id) + "}")) {
          ++failures;
          return;
        }
        int bindings = 0;
        while (true) {
          std::string line;
          if (!client.ReadLine(&line)) {
            ++failures;
            return;
          }
          auto doc = ParseJson(line);
          if (!doc.ok()) {
            ++failures;
            return;
          }
          const std::string type = doc->GetString("type");
          if (type == "binding") {
            if (doc->GetUint("id") != id) ++failures;
            ++bindings;
            continue;
          }
          if (type != "done" || bindings != kRows ||
              doc->GetUint("count") != static_cast<uint64_t>(kRows)) {
            ++failures;
          }
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(stats.bindings_sent,
            static_cast<uint64_t>(kClients * kQueriesEach * kRows));
  server.Stop();
  EXPECT_EQ(engine.active_sessions(), 0u);  // pool retired, engine unfrozen
}

TEST(ServerTest, AssertOpStoresFactsVisibleToLiveQueries) {
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(2)).ok());
  ServerOptions options;
  options.pool_sessions = 2;
  options.handler_threads = 2;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Mutate while the pool's sessions are live: the per-procedure latches
  // (not a whole-store freeze) make this safe.
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"assert","facts":"item(7, 14). item(8, 16).","id":1})json"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  {
    const JsonValue doc = MustParse(line);
    EXPECT_EQ(doc.GetString("type"), "asserted") << line;
    EXPECT_EQ(doc.GetUint("id"), 1u);
  }
  // The same connection immediately observes the committed rows.
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"query","goal":"item(X, Y)","id":2})json"));
  int bindings = 0;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line));
    const JsonValue doc = MustParse(line);
    if (doc.GetString("type") == "binding") {
      ++bindings;
      continue;
    }
    ASSERT_EQ(doc.GetString("type"), "done") << line;
    break;
  }
  EXPECT_EQ(bindings, 4);

  // Malformed ops: missing facts, then an unparsable program.
  ASSERT_TRUE(client.SendLine(R"json({"op":"assert","id":3})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("code"), "bad_request") << line;
  ASSERT_TRUE(client.SendLine(
      R"json({"op":"assert","facts":"item(","id":4})json"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MustParse(line).GetString("code"), "assert_error") << line;

  server.Stop();
  EXPECT_EQ(server.stats().asserts, 1u);
  EXPECT_NE(server.StatsJson().find("\"asserts\":1"), std::string::npos);
}

TEST(ServerTest, StopWithConnectedIdleClientsIsClean) {
  Engine engine;
  ServerOptions options;
  options.pool_sessions = 1;
  options.handler_threads = 2;
  QueryServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  Client a, b;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  EXPECT_TRUE(WaitFor([&] { return server.stats().active == 2u; }));
  server.Stop();  // must not hang on the idle connections
  std::string line;
  EXPECT_FALSE(a.ReadLine(&line));  // server closed both sides
  EXPECT_FALSE(b.ReadLine(&line));
  EXPECT_EQ(engine.active_sessions(), 0u);
}

}  // namespace
}  // namespace educe::server
