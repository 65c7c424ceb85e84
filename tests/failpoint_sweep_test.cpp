// Full-registry failpoint sweep: every registered site must have a
// driver here that pushes an execution through it, and the injected
// error must come back as a typed Status (never a crash, never a
// default-500-style mangling) with the engine healthy again once the
// site is disarmed. A site this file does not know how to drive fails
// the sweep — adding a failpoint obligates adding its driver.
//
// On top of the sweep, the ApplyUpdate sites get the strong check the
// tentpole promises: a failure injected at any stage of a publish —
// after deletions, after staged inserts, just before the version
// publish — must leave the engine bit-identical to its pre-update
// state (query results, dataset generation, update counters), and the
// engine must accept the next update normally.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rdf/turtle_parser.h"
#include "server/http_server.h"
#include "util/failpoint.h"

namespace sparqlog {
namespace {

using core::Engine;
using util::Failpoints;

constexpr const char* kPrefix = "PREFIX r: <http://r.org/>\n";

constexpr const char* kTurtle = R"(
@prefix r: <http://r.org/> .
r:n0 r:p r:n1 . r:n1 r:p r:n2 . r:n2 r:p r:n3 .
r:n3 r:p r:n4 . r:n1 r:q r:n5 . r:n2 r:q r:n6 .
r:n5 r:q r:n0 . r:n4 r:p r:n0 .
)";

rdf::TermId Node(rdf::TermDictionary* dict, size_t i) {
  return dict->InternIri("http://r.org/n" + std::to_string(i));
}

rdf::TermId Pred(rdf::TermDictionary* dict, const std::string& name) {
  return dict->InternIri("http://r.org/" + name);
}

/// Copies every triple of `src` into `dst` (shared dictionary, so the
/// copy is id-for-id).
void CopyDataset(const rdf::Dataset& src, rdf::Dataset* dst) {
  for (const rdf::Triple& t : src.default_graph().triples()) {
    dst->default_graph().Add(t);
  }
  for (const auto& [name, graph] : src.named_graphs()) {
    for (const rdf::Triple& t : graph.triples()) {
      dst->named_graph(name).Add(t);
    }
  }
}

/// One engine world (dictionary + dataset + engine) built while every
/// failpoint is disarmed, so arming a site never corrupts the setup
/// the driver is about to exercise.
struct World {
  rdf::TermDictionary dict;
  rdf::Dataset dataset{&dict};
  std::unique_ptr<Engine> engine;

  explicit World(Engine::Options options = {}, bool load = true) {
    Status st = rdf::ParseTurtle(kTurtle, &dataset);
    EXPECT_TRUE(st.ok()) << st.ToString();
    engine = std::make_unique<Engine>(&dataset, &dict, options);
    if (load) {
      EXPECT_TRUE(engine->Load().ok());
    }
  }

  Status Query() {
    return engine
        ->ExecuteText(kPrefix + std::string("SELECT ?x ?y WHERE "
                                            "{ ?x r:p+ ?y }"))
        .status();
  }

  Status Update() {
    rdf::Triple fresh{Node(&dict, 90), Pred(&dict, "p"), Node(&dict, 91)};
    rdf::Triple present{Node(&dict, 0), Pred(&dict, "p"), Node(&dict, 1)};
    return engine->ApplyUpdate({fresh}, {present}, nullptr);
  }
};

/// Sends one raw HTTP request to 127.0.0.1:port and returns everything
/// the server wrote back ("" on connect failure or a dropped response).
std::string HttpRoundTrip(uint16_t port, const std::string& raw) {
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
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

constexpr const char* kHealthRequest =
    "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

class FailpointSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

// ---------------------------------------------------------------------
// The sweep: every registered site, driven, typed, recovered.
TEST_F(FailpointSweepTest, EveryRegisteredSiteInjectsTypedStatusAndRecovers) {
  struct Driver {
    /// Runs with the site armed `error(unavailable)`; returns the
    /// Status the injection surfaced as.
    std::function<Status()> op;
    /// Runs after disarm; must succeed — proves the failure did not
    /// wedge anything.
    std::function<Status()> canary;
  };

  // Each driver builds its world up front (all sites disarmed during
  // the lambda's *construction*; the world inside is built lazily on
  // first call, which happens only after arming — so worlds that must
  // pre-exist are captured as shared state here).
  std::map<std::string, Driver> drivers;

  auto parse_driver = [] {
    return Driver{
        [] {
          rdf::TermDictionary dict;
          rdf::Dataset dataset(&dict);
          return rdf::ParseTurtle(kTurtle, &dataset);
        },
        [] {
          rdf::TermDictionary dict;
          rdf::Dataset dataset(&dict);
          return rdf::ParseTurtle(kTurtle, &dataset);
        }};
  };
  drivers["rdf.turtle.statement"] = parse_driver();
  drivers["rdf.intern.term"] = parse_driver();

  // Load-path sites: the world is constructed (parse only) before the
  // site arms; Load runs armed and must fail without leaving a
  // half-loaded engine.
  auto load_driver = [](const char* /*site*/) {
    auto world = std::make_shared<World>(Engine::Options{}, /*load=*/false);
    return Driver{[world] {
                    Status st = world->engine->Load();
                    EXPECT_FALSE(world->engine->loaded())
                        << "failed Load left the engine marked loaded";
                    return st;
                  },
                  [world] {
                    SPARQLOG_RETURN_NOT_OK(world->engine->Load());
                    return world->Query();
                  }};
  };
  drivers["core.edb.translate"] = load_driver("core.edb.translate");
  drivers["core.edb.bulk_load"] = load_driver("core.edb.bulk_load");
  drivers["engine.load.publish"] = load_driver("engine.load.publish");

  {
    auto world = std::make_shared<World>();
    drivers["datalog.stratum.begin"] =
        Driver{[world] { return world->Query(); },
               [world] { return world->Query(); }};
  }

  for (const char* site :
       {"engine.update.net", "engine.update.translate",
        "engine.update.stage", "engine.update.publish"}) {
    auto world = std::make_shared<World>();
    drivers[site] = Driver{[world] { return world->Update(); },
                           [world] {
                             SPARQLOG_RETURN_NOT_OK(world->Update());
                             return world->Query();
                           }};
  }
  {
    Engine::Options options;
    options.update.incremental = false;
    auto world = std::make_shared<World>(options);
    drivers["engine.update.rebuild"] =
        Driver{[world] { return world->Update(); },
               [world] {
                 SPARQLOG_RETURN_NOT_OK(world->Update());
                 return world->Query();
               }};
  }

  // HTTP sites need a real socket round trip (Route() never passes
  // through the connection-handling code the sites live in). If the
  // sandbox forbids binding even a loopback socket, these drivers
  // degrade to "skipped" rather than failing the sweep.
  auto http_world = std::make_shared<World>();
  auto http_server = std::make_shared<server::HttpServer>(
      http_world->engine.get(), &http_world->dict);
  const bool http_ok = http_server->Start().ok();
  drivers["server.http.read"] = Driver{
      [http_server] {
        // The injected read error is mapped through StatusToHttp and
        // written back: the client sees 503 + the failpoint message.
        std::string reply = HttpRoundTrip(http_server->port(),
                                          kHealthRequest);
        if (reply.find("HTTP/1.1 503") == std::string::npos ||
            reply.find("failpoint") == std::string::npos) {
          return Status::Internal("injected read error not mapped: " + reply);
        }
        if (reply.find("Retry-After:") == std::string::npos) {
          return Status::Internal("503 without Retry-After: " + reply);
        }
        return Status::Unavailable(reply.substr(reply.find("failpoint")));
      },
      [http_server] {
        std::string reply = HttpRoundTrip(http_server->port(),
                                          kHealthRequest);
        return reply.find("HTTP/1.1 200") != std::string::npos
                   ? Status::OK()
                   : Status::Internal("canary health check failed: " + reply);
      }};
  drivers["server.http.write"] = Driver{
      [http_server] {
        // The injected write failure drops the response on the floor —
        // the client observes a closed connection with no bytes.
        std::string reply = HttpRoundTrip(http_server->port(),
                                          kHealthRequest);
        if (!reply.empty()) {
          return Status::Internal("response written despite injected write "
                                  "failure: " + reply);
        }
        return Status::Unavailable(
            "failpoint 'server.http.write' dropped the response");
      },
      drivers["server.http.read"].canary};

  size_t swept = 0;
  for (const std::string& site : Failpoints::Instance().Sites()) {
    SCOPED_TRACE("site: " + site);
    auto it = drivers.find(site);
    // The teeth of the sweep: a site without a driver is a test gap.
    ASSERT_NE(it, drivers.end())
        << "failpoint site '" << site
        << "' has no sweep driver — add one to failpoint_sweep_test.cpp";
    const bool is_http = site.rfind("server.http.", 0) == 0;
    if (is_http && !http_ok) continue;  // sandbox without loopback bind

    util::FailpointSite* fp = Failpoints::Instance().Find(site);
    ASSERT_NE(fp, nullptr);
    const uint64_t fired_before = fp->fired();
    ASSERT_TRUE(
        Failpoints::Instance().Arm(site, "error(unavailable)").ok());

    Status st = it->second.op();
    EXPECT_FALSE(st.ok()) << "armed site did not surface a failure";
    EXPECT_TRUE(st.IsUnavailable())
        << "injected kUnavailable surfaced as a different code: "
        << st.ToString();
    EXPECT_NE(st.message().find("failpoint"), std::string::npos)
        << "injected error lost its failpoint provenance: " << st.ToString();
    EXPECT_GT(fp->fired(), fired_before) << "site never actually fired";

    Failpoints::Instance().Disarm(site);
    Status canary = it->second.canary();
    EXPECT_TRUE(canary.ok())
        << "engine unhealthy after disarm: " << canary.ToString();
    ++swept;
  }
  // Belt and braces: the registry is not empty and the engine/server/
  // parser sites this PR wired are all present.
  EXPECT_GE(swept, http_ok ? 13u : 11u);
  http_server->Stop();
}

// ---------------------------------------------------------------------
// Tentpole check: a publish that dies at ANY stage rolls back to a
// bit-identical engine.
class UpdateRollbackTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_F(UpdateRollbackTest, MidPublishFailureLeavesEngineBitIdentical) {
  struct Scenario {
    const char* site;
    const char* spec;
    bool incremental;  // engine option; rebuild-path site needs false
  };
  const Scenario scenarios[] = {
      {"engine.update.net", "error(internal)", true},
      {"engine.update.translate", "error(internal)", true},
      // First check fires after the first predicate's deletions…
      {"engine.update.stage", "error(internal)", true},
      // …and skipping one hit lands the failure after its staged
      // inserts too, so rollback unwinds both kinds of mutation.
      {"engine.update.stage", "after(1):error(internal)", true},
      {"engine.update.publish", "error(internal)", true},
      {"engine.update.rebuild", "error(internal)", false},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(std::string(scenario.site) + " [" + scenario.spec + "]");

    Engine::Options options;
    options.update.incremental = scenario.incremental;
    World world(options);
    Engine& engine = *world.engine;

    // A successful update first, so the rollback exercises an engine
    // with live occurrence counters and a pending published delta —
    // the realistic mid-life state, not a freshly loaded one.
    ASSERT_TRUE(engine
                    .ApplyUpdate({{Node(&world.dict, 6), Pred(&world.dict, "p"),
                                   Node(&world.dict, 7)}},
                                 {}, nullptr)
                    .ok());

    const std::string ordered = kPrefix +
                                std::string("SELECT ?x ?y WHERE { ?x r:p+ ?y }"
                                            " ORDER BY ?x ?y");
    auto before = engine.ExecuteText(ordered);
    ASSERT_TRUE(before.ok());
    const uint64_t updates_before = engine.stats().updates;
    const uint64_t generation_before = world.dataset.Generation();

    ASSERT_TRUE(Failpoints::Instance().Arm(scenario.site, scenario.spec).ok());
    Engine::UpdateStats us;
    rdf::Triple fresh{Node(&world.dict, 80), Pred(&world.dict, "p"),
                      Node(&world.dict, 81)};
    rdf::Triple doomed{Node(&world.dict, 0), Pred(&world.dict, "p"),
                       Node(&world.dict, 1)};
    Status st = engine.ApplyUpdate({fresh}, {doomed}, &us);
    ASSERT_FALSE(st.ok()) << "armed site did not fail the update";
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    Failpoints::Instance().Disarm(scenario.site);

    // Counters: a failed update is not an update.
    EXPECT_EQ(engine.stats().updates, updates_before);
    if (scenario.incremental) {
      // The incremental path must not have touched the graph at all —
      // the commit point is after the last failpoint. (The rebuild
      // path reverts *content* but its generation counter keeps moving
      // forward by design; content identity is checked below.)
      EXPECT_EQ(world.dataset.Generation(), generation_before);
    }

    // Bit-identity, directly: the rolled-back engine answers the fully
    // ordered closure exactly as before the doomed update.
    auto after = engine.ExecuteText(ordered);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(after->result.rows == before->result.rows)
        << "rolled-back engine diverged from its pre-update state:\nbefore:\n"
        << before->result.ToString(world.dict, 30) << "\nafter:\n"
        << after->result.ToString(world.dict, 30);

    // Bit-identity, differentially: the rolled-back engine matches a
    // cold engine over a copy of the (unchanged) dataset.
    rdf::Dataset reference_data(&world.dict);
    CopyDataset(world.dataset, &reference_data);
    Engine reference(static_cast<const rdf::Dataset*>(&reference_data),
                     &world.dict, options);
    ASSERT_TRUE(reference.Load().ok());
    auto want = reference.ExecuteText(ordered);
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(after->result.rows == want->result.rows)
        << "rolled-back engine diverged from a fresh load";

    // And the engine is not wedged: the same mutation applies cleanly
    // now, and the result again matches a fresh load over the mutated
    // dataset.
    ASSERT_TRUE(engine.ApplyUpdate({fresh}, {doomed}, &us).ok());
    EXPECT_EQ(engine.stats().updates, updates_before + 1);
    rdf::Dataset mutated_ref(&world.dict);
    CopyDataset(world.dataset, &mutated_ref);
    Engine mutated_reference(
        static_cast<const rdf::Dataset*>(&mutated_ref), &world.dict, options);
    ASSERT_TRUE(mutated_reference.Load().ok());
    auto got = engine.ExecuteText(ordered);
    auto expect = mutated_reference.ExecuteText(ordered);
    ASSERT_TRUE(got.ok() && expect.ok());
    EXPECT_TRUE(got->result.rows == expect->result.rows)
        << "post-rollback update diverged from a fresh load";
  }
}

// ---------------------------------------------------------------------
// Satellite: malformed Turtle through POST /update is a clean 400 with
// a position-bearing message, and no engine state moves.
TEST_F(FailpointSweepTest, MalformedUpdatePayloadIs400AndTouchesNothing) {
  World world;
  server::HttpServer server(world.engine.get(), &world.dict);

  const uint64_t generation_before = world.dataset.Generation();
  Engine::EngineStats stats_before = world.engine->stats();

  server::HttpRequest bad;
  bad.method = "POST";
  bad.path = "/update";
  bad.query = "op=insert";
  bad.body = "@prefix r: <http://r.org/> .\nr:a r:p ;;; broken .";
  server::HttpResponse response = server.Route(bad);

  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("parse_error"), std::string::npos)
      << response.body;
  // The turtle parser reports where it gave up; the endpoint must not
  // swallow the position.
  EXPECT_NE(response.body.find("line"), std::string::npos) << response.body;

  EXPECT_EQ(world.dataset.Generation(), generation_before);
  Engine::EngineStats stats_after = world.engine->stats();
  EXPECT_EQ(stats_after.updates, stats_before.updates);
  EXPECT_EQ(stats_after.update_noops, stats_before.update_noops);
  EXPECT_EQ(stats_after.invalidations, stats_before.invalidations);

  // A well-formed payload right after goes through — the reject left
  // the update path fully operational.
  server::HttpRequest good = bad;
  good.body = "@prefix r: <http://r.org/> .\nr:n50 r:p r:n51 .";
  server::HttpResponse ok_response = server.Route(good);
  EXPECT_EQ(ok_response.status, 200) << ok_response.body;
  EXPECT_EQ(world.engine->stats().updates, stats_before.updates + 1);
}

}  // namespace
}  // namespace sparqlog
