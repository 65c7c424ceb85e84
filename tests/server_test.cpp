// Tests for the embedded HTTP endpoint: JSON serialization (escaping,
// SPARQL results format, ASK, unbound cells, typed/tagged literals),
// URL decoding, socket-free routing (method/path dispatch, engine
// Status -> HTTP status mapping), and — where the sandbox permits
// binding a loopback socket — a real client/server round trip with
// concurrent requests and clean shutdown.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "rdf/turtle_parser.h"
#include "server/http_server.h"
#include "server/json.h"
#include "util/failpoint.h"
#include "util/retry.h"

namespace sparqlog::server {
namespace {

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonString("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonString(std::string_view("nul\0byte", 8)),
            "\"nul\\u0000byte\"");
  EXPECT_EQ(JsonString("newline\n"), "\"newline\\n\"");
  // UTF-8 passes through unmodified.
  EXPECT_EQ(JsonString("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(JsonTest, WriterBuildsNestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Number(uint64_t{1});
  w.Key("b").BeginArray().String("x").Bool(false).EndArray();
  w.Key("c").BeginObject().Key("d").Number(2.5).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[\"x\",false],\"c\":{\"d\":2.5}}");
}

TEST(JsonTest, ResultToJsonSelectWithLiteralsAndUndef) {
  rdf::TermDictionary dict;
  eval::QueryResult result;
  result.columns = {"s", "v"};
  rdf::TermId iri = dict.InternIri("http://ex.org/a");
  rdf::TermId lang = dict.InternLiteral("hi", "", "en");
  rdf::TermId typed = dict.InternInteger(42);
  rdf::TermId bnode = dict.InternBlank("b0");
  result.rows = {{iri, lang},
                 {bnode, typed},
                 {iri, rdf::TermDictionary::kUndef}};

  std::string json = ResultToJson(result, dict);
  EXPECT_NE(json.find("\"vars\":[\"s\",\"v\"]"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"type\":\"uri\",\"value\":\"http://ex.org/a\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"xml:lang\":\"en\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"type\":\"bnode\""), std::string::npos) << json;
  EXPECT_NE(
      json.find(
          "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""),
      std::string::npos)
      << json;
  // The unbound cell's binding object contains only "s".
  EXPECT_NE(json.find("{\"s\":{\"type\":\"uri\",\"value\":"
                      "\"http://ex.org/a\"}}"),
            std::string::npos)
      << json;
}

TEST(JsonTest, ResultToJsonAsk) {
  rdf::TermDictionary dict;
  eval::QueryResult result;
  result.is_ask = true;
  result.ask_value = true;
  EXPECT_EQ(ResultToJson(result, dict), "{\"head\":{},\"boolean\":true}");
}

// --- URL / form decoding ---------------------------------------------------

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("%20%7Bx%7D"), " {x}");
  EXPECT_EQ(UrlDecode("100%"), "100%");     // dangling % passes through
  EXPECT_EQ(UrlDecode("%zz"), "%zz");       // bad hex passes through
  EXPECT_EQ(UrlDecode("SELECT+%3Fs"), "SELECT ?s");
}

TEST(UrlDecodeTest, FormValueFindsKey) {
  EXPECT_EQ(FormValue("query=ASK+%7B%7D&format=json", "query"), "ASK {}");
  EXPECT_EQ(FormValue("a=1&b=2", "b"), "2");
  EXPECT_EQ(FormValue("a=1&b=2", "c"), "");
  EXPECT_EQ(FormValue("", "query"), "");
  EXPECT_EQ(FormValue("queryx=1", "query"), "");
}

// --- Routing (socket-free) -------------------------------------------------

class ServerRoutingTest : public ::testing::Test {
 protected:
  ServerRoutingTest() : dataset_(&dict_) {
    auto st = rdf::ParseTurtle(R"(
      @prefix ex: <http://ex.org/> .
      ex:a ex:p ex:b . ex:b ex:p ex:c .
    )",
                               &dataset_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    engine_ = std::make_unique<core::Engine>(&dataset_, &dict_);
    EXPECT_TRUE(engine_->Load().ok());
    server_ = std::make_unique<HttpServer>(engine_.get(), &dict_);
  }

  HttpResponse Get(const std::string& path, const std::string& query = "") {
    HttpRequest r;
    r.method = "GET";
    r.path = path;
    r.query = query;
    return server_->Route(r);
  }

  HttpResponse Post(const std::string& body,
                    const std::string& content_type = "") {
    HttpRequest r;
    r.method = "POST";
    r.path = "/sparql";
    r.body = body;
    r.content_type = content_type;
    return server_->Route(r);
  }

  rdf::TermDictionary dict_;
  rdf::Dataset dataset_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerRoutingTest, GetQueryReturnsSparqlJson) {
  HttpResponse r = Get("/sparql",
                       "query=SELECT+%3Fo+WHERE+%7B+%3Chttp%3A%2F%2Fex.org"
                       "%2Fa%3E+%3Chttp%3A%2F%2Fex.org%2Fp%3E+%3Fo+%7D");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/sparql-results+json");
  EXPECT_NE(r.body.find("http://ex.org/b"), std::string::npos) << r.body;
  // Per-query stats ride the response.
  EXPECT_NE(r.body.find("\"stats\":{"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"program_source\":"), std::string::npos) << r.body;
}

TEST_F(ServerRoutingTest, PostBodyVariants) {
  // Raw SPARQL body.
  HttpResponse raw = Post("ASK { ?s ?p ?o }", "application/sparql-query");
  EXPECT_EQ(raw.status, 200);
  EXPECT_NE(raw.body.find("\"boolean\":true"), std::string::npos) << raw.body;
  // Form-encoded body.
  HttpResponse form = Post("query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D",
                           "application/x-www-form-urlencoded");
  EXPECT_EQ(form.status, 200);
  EXPECT_NE(form.body.find("\"boolean\":true"), std::string::npos)
      << form.body;
  // Raw SPARQL mislabeled as form-encoded (curl's default) still works.
  HttpResponse lax = Post("ASK { ?s ?p ?o }",
                          "application/x-www-form-urlencoded");
  EXPECT_EQ(lax.status, 200);
}

TEST_F(ServerRoutingTest, ErrorMapping) {
  // Missing query.
  EXPECT_EQ(Get("/sparql").status, 400);
  // Parse error -> 400.
  HttpResponse bad = Post("SELECT ?x WHERE { broken");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("parse_error"), std::string::npos) << bad.body;
  // Unsupported feature -> 400.
  HttpResponse unsupported =
      Post("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }");
  EXPECT_EQ(unsupported.status, 400);
  EXPECT_NE(unsupported.body.find("not_supported"), std::string::npos);
  // Unknown path -> 404; wrong method -> 405.
  EXPECT_EQ(Get("/nope").status, 404);
  HttpRequest del;
  del.method = "DELETE";
  del.path = "/sparql";
  EXPECT_EQ(server_->Route(del).status, 405);
}

TEST_F(ServerRoutingTest, UnloadedEngineMapsTo503) {
  core::Engine cold(&dataset_, &dict_);  // never Load()ed
  HttpServer server(&cold, &dict_);
  HttpRequest r;
  r.method = "POST";
  r.path = "/sparql";
  r.body = "ASK { ?s ?p ?o }";
  HttpResponse response = server.Route(r);
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("not_loaded"), std::string::npos)
      << response.body;

  HttpRequest health;
  health.method = "GET";
  health.path = "/healthz";
  HttpResponse h = server.Route(health);
  EXPECT_EQ(h.status, 503);
  EXPECT_NE(h.body.find("\"loaded\":false"), std::string::npos) << h.body;
}

TEST_F(ServerRoutingTest, StatsAndHealthRoutes) {
  // Run one query so the counters are non-trivial.
  EXPECT_EQ(Post("ASK { ?s ?p ?o }").status, 200);
  HttpResponse stats = Get("/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"queries\":1"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"storage\":{\"tuples\":"), std::string::npos)
      << stats.body;
  HttpResponse health = Get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"loaded\":true"), std::string::npos);
}

// --- Status -> HTTP mapping ------------------------------------------------

// Table-driven over EVERY StatusCode: each code's HTTP rendering is a
// deliberate decision, not a default-500 fallthrough. If a new code is
// added, StatusToHttp's exhaustive switch breaks the build and this
// table documents what the decision should look like.
TEST(StatusToHttpTest, EveryStatusCodeMapsDeliberately) {
  struct Row {
    Status status;
    int http;
    const char* code;
    int retry_after;
  };
  const Row kTable[] = {
      {Status::OK(), 200, "ok", 0},
      {Status::InvalidArgument("x"), 400, "invalid_argument", 0},
      {Status::ParseError("x"), 400, "parse_error", 0},
      {Status::NotSupported("x"), 400, "not_supported", 0},
      {Status::NotFound("x"), 404, "not_found", 0},
      {Status::Timeout("x"), 504, "timeout", 0},
      {Status::ResourceExhausted("x"), 413, "budget_exceeded", 0},
      {Status::FailedPrecondition("x"), 503, "not_loaded", 1},
      {Status::Unavailable("x"), 503, "overloaded", 1},
      {Status::Internal("x"), 500, "internal", 0},
  };
  for (const Row& row : kTable) {
    HttpStatusMapping m = StatusToHttp(row.status);
    EXPECT_EQ(m.http, row.http) << row.code;
    EXPECT_STREQ(m.code, row.code);
    EXPECT_EQ(m.retry_after_seconds, row.retry_after) << row.code;
    // Typed statuses never leak as a generic 500.
    if (row.status.code() != StatusCode::kInternal && !row.status.ok()) {
      EXPECT_NE(m.http, 500) << row.code;
    }
  }
}

// --- Overload: admission queue, shedding, degraded mode --------------------

class OverloadTest : public ::testing::Test {
 protected:
  OverloadTest() : dataset_(&dict_) {
    auto st = rdf::ParseTurtle(R"(
      @prefix ex: <http://ex.org/> .
      ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:d .
    )",
                               &dataset_);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  void TearDown() override { util::Failpoints::Instance().DisarmAll(); }

  /// Engine with one admitted slot, caching off (so every query truly
  /// evaluates and the delay failpoint is hit deterministically).
  std::unique_ptr<core::Engine> MakeEngine(core::Engine::Options options) {
    options.caching.program_cache = false;
    options.caching.stratum_memo = false;
    auto engine = std::make_unique<core::Engine>(&dataset_, &dict_, options);
    EXPECT_TRUE(engine->Load().ok());
    return engine;
  }

  /// Starts a thread holding the single in-flight slot for ~hold_ms (a
  /// delay failpoint inside stratum evaluation) and waits until the
  /// engine has actually admitted it.
  std::thread HoldSlot(core::Engine* engine, int hold_ms) {
    auto spec = "once:delay(" + std::to_string(hold_ms) + ")";
    EXPECT_TRUE(util::Failpoints::Instance()
                    .Arm("datalog.stratum.begin", spec)
                    .ok());
    std::thread holder([engine] {
      EXPECT_TRUE(engine->ExecuteText("ASK { ?s ?p ?o }").ok());
    });
    while (engine->stats().in_flight == 0) {
      std::this_thread::yield();
    }
    return holder;
  }

  rdf::TermDictionary dict_;
  rdf::Dataset dataset_;
};

TEST_F(OverloadTest, QueueAdmitsWhenSlotFreesWithinDeadline) {
  core::Engine::Options options;
  options.serving.max_in_flight = 1;
  options.serving.queue_limit = 4;
  options.serving.queue_timeout = std::chrono::milliseconds(5000);
  auto engine = MakeEngine(options);

  std::thread holder = HoldSlot(engine.get(), 100);
  // The slot is taken; this call queues, then runs when the holder
  // finishes well inside the deadline.
  auto queued = engine->ExecuteText("ASK { ?s ?p ?o }");
  EXPECT_TRUE(queued.ok()) << queued.status().ToString();
  holder.join();
  EXPECT_EQ(engine->stats().rejected, 0u);
  EXPECT_GE(engine->stats().queued, 1u);
}

TEST_F(OverloadTest, QueueShedsPastDeadlineWith503AndRetryAfter) {
  core::Engine::Options options;
  options.serving.max_in_flight = 1;
  options.serving.queue_limit = 4;
  options.serving.queue_timeout = std::chrono::milliseconds(30);
  auto engine = MakeEngine(options);
  HttpServer server(engine.get(), &dict_);

  std::thread holder = HoldSlot(engine.get(), 400);
  // Queues for 30ms, then is shed: the deadline passes long before the
  // holder's 400ms delay releases the slot.
  HttpRequest r;
  r.method = "POST";
  r.path = "/sparql";
  r.body = "ASK { ?s ?p ?o }";
  HttpResponse shed = server.Route(r);
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("overloaded"), std::string::npos) << shed.body;
  EXPECT_NE(shed.body.find("deadline"), std::string::npos) << shed.body;
  EXPECT_EQ(shed.retry_after_seconds, 1);
  holder.join();
  EXPECT_GE(engine->stats().rejected, 1u);
}

TEST_F(OverloadTest, RetryWithBackoffRidesOutTransientShedding) {
  core::Engine::Options options;
  options.serving.max_in_flight = 1;
  options.serving.queue_limit = 0;  // fail fast, so the first try sheds
  auto engine = MakeEngine(options);

  std::thread holder = HoldSlot(engine.get(), 100);
  // One-shot call sheds; the backoff client retries past the holder's
  // 100ms window and lands the query.
  EXPECT_TRUE(
      engine->ExecuteText("ASK { ?s ?p ?o }").status().IsUnavailable());
  util::BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_delay = std::chrono::milliseconds(25);
  policy.seed = 1;
  Status st = util::RetryWithBackoff(policy, [&] {
    return engine->ExecuteText("ASK { ?s ?p ?o }").status();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  holder.join();
}

TEST_F(OverloadTest, SustainedSheddingEntersDegradedModeAndRecovers) {
  core::Engine::Options options;
  options.serving.max_in_flight = 1;
  options.serving.queue_limit = 0;  // fail fast: every overflow is a shed
  options.degrade.enabled = true;
  options.degrade.window = 16;
  options.degrade.min_events = 4;
  auto engine = MakeEngine(options);
  HttpServer server(engine.get(), &dict_);
  HttpRequest health;
  health.method = "GET";
  health.path = "/healthz";
  HttpRequest stats;
  stats.method = "GET";
  stats.path = "/stats";

  EXPECT_FALSE(engine->degraded());

  std::thread holder = HoldSlot(engine.get(), 400);
  // Sustained overload: every one of these is shed while the slot is
  // held, driving the outcome window past the enter threshold.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        engine->ExecuteText("ASK { ?s ?p ?o }").status().IsUnavailable());
  }
  EXPECT_TRUE(engine->degraded());

  // Degraded is visible on both surfaces, and /healthz stays 200 —
  // the node is degraded, not dead.
  HttpResponse h = server.Route(health);
  EXPECT_EQ(h.status, 200);
  EXPECT_NE(h.body.find("\"status\":\"degraded\""), std::string::npos)
      << h.body;
  HttpResponse s = server.Route(stats);
  EXPECT_NE(s.body.find("\"degraded\":true"), std::string::npos) << s.body;
  EXPECT_NE(s.body.find("\"degrade_entries\":1"), std::string::npos)
      << s.body;
  holder.join();

  // Load drops: successful queries wash the bad outcomes out of the
  // window and the engine exits degraded mode on its own.
  for (int i = 0; i < 32 && engine->degraded(); ++i) {
    EXPECT_TRUE(engine->ExecuteText("ASK { ?s ?p ?o }").ok());
  }
  EXPECT_FALSE(engine->degraded());
  h = server.Route(health);
  EXPECT_NE(h.body.find("\"status\":\"ok\""), std::string::npos) << h.body;
  s = server.Route(stats);
  EXPECT_NE(s.body.find("\"degrade_exits\":1"), std::string::npos) << s.body;
}

// --- Live socket round trip ------------------------------------------------

/// Minimal blocking HTTP client for loopback tests.
std::string HttpRoundTrip(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ServerSocketTest : public ServerRoutingTest {
 protected:
  void SetUp() override {
    HttpServerOptions options;
    options.port = 0;  // ephemeral
    options.num_workers = 4;
    live_ = std::make_unique<HttpServer>(engine_.get(), &dict_, options);
    Status st = live_->Start();
    if (!st.ok()) {
      GTEST_SKIP() << "cannot bind loopback socket here: " << st.ToString();
    }
  }

  void TearDown() override {
    if (live_) live_->Stop();
  }

  std::unique_ptr<HttpServer> live_;
};

TEST_F(ServerSocketTest, GetAndPostOverRealSocket) {
  std::string get = HttpRoundTrip(
      live_->port(),
      "GET /sparql?query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n");
  EXPECT_NE(get.find("HTTP/1.1 200 OK"), std::string::npos) << get;
  EXPECT_NE(get.find("\"boolean\":true"), std::string::npos) << get;

  const std::string body = "SELECT ?o WHERE { <http://ex.org/a> "
                           "<http://ex.org/p> ?o }";
  std::string post = HttpRoundTrip(
      live_->port(),
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(post.find("HTTP/1.1 200 OK"), std::string::npos) << post;
  EXPECT_NE(post.find("http://ex.org/b"), std::string::npos) << post;

  std::string missing = HttpRoundTrip(
      live_->port(), "GET /gone HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  std::string malformed = HttpRoundTrip(live_->port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400"), std::string::npos) << malformed;
}

/// A query nested far past the parser's depth limit (about 120 KB, well
/// under the request cap) is a 400, not a crashed server: the next
/// request on a fresh connection is answered normally.
TEST_F(ServerSocketTest, HostileNestingIs400AndServerKeepsServing) {
  const std::string body = "SELECT * WHERE " + std::string(30000, '{') +
                           " ?s ?p ?o " + std::string(30000, '}');
  std::string hostile = HttpRoundTrip(
      live_->port(),
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(hostile.find("HTTP/1.1 400"), std::string::npos) << hostile;
  EXPECT_NE(hostile.find("nesting deeper than"), std::string::npos)
      << hostile;

  std::string next = HttpRoundTrip(
      live_->port(),
      "GET /sparql?query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\n"
      "Host: localhost\r\n\r\n");
  EXPECT_NE(next.find("HTTP/1.1 200 OK"), std::string::npos) << next;
}

TEST_F(ServerSocketTest, ConcurrentClientsAllAnswered) {
  constexpr int kClients = 16;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[static_cast<size_t>(i)] = HttpRoundTrip(
          live_->port(),
          "GET /sparql?query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D HTTP/1.1\r\n"
          "Host: localhost\r\n\r\n");
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("HTTP/1.1 200 OK"), std::string::npos) << r;
    EXPECT_NE(r.find("\"boolean\":true"), std::string::npos) << r;
  }
  // Engine-side serving counters saw the traffic.
  EXPECT_GE(engine_->stats().queries, static_cast<uint64_t>(kClients));
}

TEST_F(ServerSocketTest, OversizedRequestRejectedWith413) {
  HttpServerOptions options;
  options.port = 0;
  options.max_request_bytes = 1024;
  HttpServer small(engine_.get(), &dict_, options);
  ASSERT_TRUE(small.Start().ok());

  // Declared body larger than the cap: rejected from the Content-Length
  // header alone, before buffering the body.
  std::string body(4096, 'x');
  std::string post = HttpRoundTrip(
      small.port(),
      "POST /sparql HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(post.find("HTTP/1.1 413"), std::string::npos) << post;
  EXPECT_NE(post.find("payload_too_large"), std::string::npos) << post;

  // A head that never terminates within the cap is 413 too (it used to
  // be misreported as 400 after overshooting the cap by a recv chunk).
  std::string junk_head = "GET /sparql?query=" + std::string(8192, 'a');
  std::string oversized_head = HttpRoundTrip(small.port(), junk_head);
  EXPECT_NE(oversized_head.find("HTTP/1.1 413"), std::string::npos)
      << oversized_head;
  small.Stop();
}

TEST_F(ServerSocketTest, StalledClientGets408) {
  HttpServerOptions options;
  options.port = 0;
  options.recv_timeout_ms = 200;
  HttpServer strict(engine_.get(), &dict_, options);
  ASSERT_TRUE(strict.Start().ok());

  // Send a partial request head and then stall: the worker must answer
  // 408 after the receive deadline instead of blocking forever.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(strict.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /healthz HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  EXPECT_NE(response.find("request_timeout"), std::string::npos) << response;
  strict.Stop();
}

/// Stop() must never lose the wake-up of a worker that is about to wait
/// for a connection: back-to-back start/stop cycles, each with two
/// workers and an ephemeral port, all complete. One server runs at a
/// time, so at most three server threads exist at once. The race window
/// is narrow: on a 4-vCPU host the unfixed Stop() hung in two of four
/// runs of this loop when the four ran side by side.
TEST_F(ServerSocketTest, StartStopCyclesNeverHang) {
  live_->Stop();
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  constexpr int kCycles = 20000;
  for (int i = 0; i < kCycles; ++i) {
    HttpServer server(engine_.get(), &dict_, options);
    Status st = server.Start();
    ASSERT_TRUE(st.ok()) << "cycle " << i << ": " << st.ToString();
    server.Stop();
    ASSERT_FALSE(server.running()) << "cycle " << i;
  }
}

TEST_F(ServerSocketTest, StopIsIdempotentAndRestartable) {
  uint16_t first_port = live_->port();
  EXPECT_TRUE(live_->running());
  live_->Stop();
  live_->Stop();  // idempotent
  EXPECT_FALSE(live_->running());
  // A second server instance can bind a fresh port immediately.
  HttpServerOptions options;
  options.port = 0;
  HttpServer again(engine_.get(), &dict_, options);
  Status st = again.Start();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(again.port(), 0);
  std::string health = HttpRoundTrip(
      again.port(), "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  again.Stop();
  (void)first_port;
}

}  // namespace
}  // namespace sparqlog::server
