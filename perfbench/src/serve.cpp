// serve_mixed: an embedded HttpServer on loopback over a 10k-triple
// SP2Bench dataset with default engine options (caches on). An open-loop
// generator in the same process sends a seeded read mix plus insert/delete
// batches at a fixed rate, first at a base rate and then up a fixed rate
// ladder. The run ends with a probe set whose answers must equal those of
// a freshly Load()ed engine over the final dataset.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.h"
#include "core/engine.h"
#include "pipeline.h"
#include "rdf/turtle_parser.h"
#include "server/http_server.h"
#include "sparql/parser.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads/sp2bench.h"

namespace perfbench {

using namespace sparqlog;

namespace {

constexpr size_t kTriples = 10000;
/// setup_s is the median of set-ups timed in four batches of about
/// kSetupBatchSeconds each (StopServer's pauses included), spread over the
/// run: before the warm-up, after the base step, after the ladder and
/// after the suite passes.
constexpr double kSetupBatchSeconds = 1.0;
/// T_D builds behind the traced run's core.td_s and datalog.stats_s.
constexpr int kBuilds = 25;
/// Offered read rate of the base step, and the ladder above it (req/s).
constexpr double kBaseRate = 150.0;
constexpr double kLadder[] = {500.0,  650.0,  850.0,  1100.0,
                               1400.0, 1800.0, 2300.0, 3000.0};
/// Writes per second, at every step, in groups of kWriteGroup.
constexpr double kWriteRate = 10.0;
constexpr uint64_t kWriteGroup = 8;
/// A step passes when its read p99 stays within this limit, nothing
/// fails, and the generator keeps up (no growing backlog).
constexpr double kP99LimitMs = 100.0;
constexpr double kBacklogLimitMs = 20.0;
/// Shares of the run spent at the base step, on the ladder (split evenly
/// over its steps) and on the in-process suite. Before the base step, a
/// warm-up fills the caches.
constexpr double kBaseShare = 0.4;
constexpr double kLadderShare = 0.2;
constexpr double kSuiteShare = 0.3;
constexpr double kWarmupSeconds = 1.0;
/// Length of the traced run's request sequence, as a share of the run.
constexpr double kTracedShare = 0.3;
/// Read classes and their shares of the read mix.
enum Class : int { kLookup = 0, kStar, kAnalytic, kPath, kUpdate, kClasses };
constexpr const char* kClassNames[] = {"lookup", "star", "analytic", "path",
                                       "update"};
constexpr double kClassShare[] = {0.60, 0.25, 0.10, 0.05};
/// Zipf exponent over query shapes.
constexpr double kZipf = 1.0;

constexpr char kP[] =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX bench: <http://localhost/vocabulary/bench/>\n"
    "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
    "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
    "PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n"
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// One request of the mix.
struct Op {
  Class cls;
  std::string text;  ///< SPARQL query, or the Turtle body of an update
  bool insert = true;
};

std::string Iri(const rdf::TermDictionary& dict, rdf::TermId id) {
  return dict.get(id).ToString();
}

/// Seeded generator of the serve mix over one generated dataset.
class Mix {
 public:
  Mix(const rdf::Dataset& ds, const rdf::TermDictionary& dict, uint64_t seed)
      : dict_(dict), rng_(seed * 2654435761ULL + 99) {
    const auto lookup = [&](const char* iri) {
      auto id = dict.Lookup(rdf::Term::Iri(iri));
      return id ? *id : rdf::TermDictionary::kUndef;
    };
    const rdf::TermId type =
        lookup("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    const rdf::TermId article = lookup("http://localhost/vocabulary/bench/Article");
    const rdf::TermId inproc =
        lookup("http://localhost/vocabulary/bench/Inproceedings");
    const rdf::TermId proc = lookup("http://localhost/vocabulary/bench/Proceedings");
    const rdf::TermId person = lookup("http://xmlns.com/foaf/0.1/Person");
    const rdf::TermId refs = lookup("http://purl.org/dc/terms/references");
    for (const rdf::Triple& t : ds.default_graph().triples()) {
      if (t.p == type && (t.o == article || t.o == inproc)) papers_.push_back(t.s);
      if (t.p == type && t.o == article) articles_.push_back(t.s);
      if (t.p == type && t.o == proc) procs_.push_back(t.s);
      if (t.p == type && t.o == person) persons_.push_back(t.s);
      if (t.p == refs) citing_.push_back(t.s);
      triples_.push_back(t);
    }
    for (const auto& [name, text] : workloads::Sp2bQueries()) {
      if (name == "q2" || name == "q3a" || name == "q9") analytic_.push_back(text);
    }
  }

  static constexpr int kLookupShapes = 16;
  static constexpr int kStarShapes = 112;
  int distinct_shapes() const {
    return kLookupShapes + kStarShapes + int(analytic_.size()) + 1;
  }

  size_t analytic_count() const { return analytic_.size(); }
  Op Analytic(size_t i) const { return {kAnalytic, analytic_[i]}; }

  Op NextRead() {
    const double u = rng_.NextDouble();
    double acc = 0.0;
    for (int c = 0; c < kUpdate; ++c) {
      acc += kClassShare[c];
      if (u < acc || c == kPath) return Read(static_cast<Class>(c));
    }
    return Read(kLookup);
  }

  Op Read(Class cls) {
    switch (cls) {
      case kLookup:
        return {kLookup, LookupQuery(Zipf(kLookupShapes))};
      case kStar:
        return {kStar, StarQuery(Zipf(kStarShapes))};
      case kAnalytic:
        return {kAnalytic, analytic_[rng_.Uniform(analytic_.size())]};
      default:
        return {kPath, std::string(kP) + "SELECT ?d WHERE { " +
                           Iri(dict_, Pick(citing_)) +
                           " dcterms:references+ ?d }"};
    }
  }

  /// Write number `n`, in groups of kWriteGroup: the first
  /// kWriteGroup - 1 writes each insert a fresh paper (six triples), the
  /// last deletes the group's papers again, so the dataset does not grow.
  /// (Inserts and deletes have distinct latencies; an unequal split keeps
  /// the update median and p90 each inside one of the two modes.)
  Op Write(uint64_t n) {
    if (n % kWriteGroup == kWriteGroup - 1) {
      std::string all;
      for (const std::string& b : group_) all += b;
      group_.clear();
      return {kUpdate, all, false};
    }
    const std::string s =
        "<http://localhost/publications/perfbench" + std::to_string(n) + ">";
    group_.push_back(
        s + " <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://localhost/vocabulary/bench/Inproceedings> .\n" +
        s + " <http://purl.org/dc/elements/1.1/creator> " +
        Iri(dict_, Pick(persons_)) + " .\n" + s +
        " <http://purl.org/dc/terms/partOf> " + Iri(dict_, Pick(procs_)) +
        " .\n" + s + " <http://purl.org/dc/elements/1.1/title> \"perfbench " +
        std::to_string(n) + "\" .\n" + s +
        " <http://swrc.ontoware.org/ontology#pages> \"" +
        std::to_string(1 + rng_.Uniform(400)) + "\" .\n" + s +
        " <http://purl.org/dc/terms/references> " +
        Iri(dict_, Pick(articles_)) + " .\n");
    return {kUpdate, group_.back(), true};
  }

 private:
  /// Shape popularity is fixed: shape r has weight 1 / (r + 1)^s (an
  /// inverse-CDF draw). The seed varies constants and the draw sequence,
  /// not which shapes are hot.
  int Zipf(int n) {
    double total = 0.0;
    for (int r = 0; r < n; ++r) total += 1.0 / std::pow(r + 1, kZipf);
    double u = rng_.NextDouble() * total;
    for (int r = 0; r < n; ++r) {
      u -= 1.0 / std::pow(r + 1, kZipf);
      if (u <= 0) return r;
    }
    return n - 1;
  }
  rdf::TermId Pick(const std::vector<rdf::TermId>& pool) {
    return pool[rng_.Uniform(pool.size())];
  }

  /// 16 single-pattern shapes: 4 bound-position templates x DISTINCT x
  /// ORDER BY, each with fresh constants.
  std::string LookupQuery(int shape) {
    const bool distinct = shape & 4, order = shape & 8;
    const rdf::Triple& t = triples_[rng_.Uniform(triples_.size())];
    std::string vars, body, first;
    switch (shape & 3) {
      case 0:
        vars = "?o";
        body = Iri(dict_, t.s) + " " + Iri(dict_, t.p) + " ?o";
        break;
      case 1:
        vars = "?s";
        body = "?s " + Iri(dict_, t.p) + " " + Iri(dict_, t.o);
        break;
      case 2:
        vars = "?p ?o";
        body = Iri(dict_, t.s) + " ?p ?o";
        break;
      default:
        vars = "?s ?p";
        body = "?s ?p " + Iri(dict_, t.o);
        break;
    }
    first = vars.substr(0, 2);
    return std::string(kP) + "SELECT " + (distinct ? "DISTINCT " : "") + vars +
           " WHERE { " + body + " }" + (order ? " ORDER BY " + first : "");
  }

  /// 112 star shapes: 2-4 arms around a paper, the arms after the first
  /// optionally OPTIONAL (14 masks), x DISTINCT x ORDER BY, x whether the
  /// centre is the constant paper (shapes 0-55) or a variable joined to a
  /// constant creator (shapes 56-111, the slower and rarer half).
  std::string StarQuery(int shape) {
    static const char* kArms[] = {"dc:title",   "dcterms:issued", "swrc:pages",
                                  "swrc:month", "bench:abstract", "dc:creator"};
    int mask_index = shape % 14;
    const bool distinct = (shape / 14) & 1;
    const bool order = (shape / 28) & 1;
    const bool var_centre = (shape / 56) & 1;
    int arms = 2, optional_mask = mask_index;
    if (mask_index >= 2) arms = 3, optional_mask -= 2;
    if (mask_index >= 6) arms = 4, optional_mask -= 4;
    const std::string centre = var_centre ? "?doc" : Iri(dict_, Pick(papers_));
    std::string body, vars = var_centre ? "?doc" : "";
    if (var_centre) {
      body += "?doc dc:creator " + Iri(dict_, Pick(persons_)) + " . ";
    }
    for (int a = 0; a < arms; ++a) {
      const std::string v = "?v" + std::to_string(a);
      const std::string arm = centre + " " + kArms[a] + " " + v;
      if (a > 0 && (optional_mask >> (a - 1)) & 1) {
        body += "OPTIONAL { " + arm + " } ";
      } else {
        body += arm + " . ";
      }
      vars += (vars.empty() ? "" : " ") + v;
    }
    return std::string(kP) + "SELECT " + (distinct ? "DISTINCT " : "") + vars +
           " WHERE { " + body + "}" + (order ? " ORDER BY ?v0" : "");
  }

  const rdf::TermDictionary& dict_;
  Rng rng_;
  std::vector<rdf::TermId> papers_, articles_, procs_, persons_, citing_;
  std::vector<rdf::Triple> triples_;
  std::vector<std::string> analytic_;
  std::vector<std::string> group_;  ///< inserted, not yet deleted
};

/// A timed schedule: ops[i] is due at start + due_s[i].
struct Schedule {
  std::vector<Op> ops;
  std::vector<double> due_s;
};

/// Reads at `read_rate` and writes at kWriteRate for `seconds`, evenly
/// spaced, merged in due order. `writes` numbers the writes across steps.
Schedule MakeSchedule(Mix* mix, double read_rate, double seconds,
                      uint64_t* writes) {
  Schedule s;
  const size_t reads = static_cast<size_t>(read_rate * seconds);
  const size_t nwrites = static_cast<size_t>(kWriteRate * seconds);
  size_t r = 0, w = 0;
  while (r < reads || w < nwrites) {
    const double tr = r < reads ? double(r) / read_rate : 1e300;
    const double tw = w < nwrites ? (double(w) + 0.5) / kWriteRate : 1e300;
    if (tr <= tw) {
      s.ops.push_back(mix->NextRead());
      s.due_s.push_back(tr);
      ++r;
    } else {
      s.ops.push_back(mix->Write((*writes)++));
      s.due_s.push_back(tw);
      ++w;
    }
  }
  return s;
}

/// No request starts after this point (steady_clock ticks): a stalled
/// server makes the run end with failed requests instead of hanging past
/// its time limit. Set once by RunServe.
std::atomic<Clock::rep> g_http_deadline{Clock::time_point::max().time_since_epoch().count()};

/// Minimal blocking HTTP/1.1 client (one connection per request, as the
/// server closes after each response). Returns the status code, or -1 on
/// a transport error, a 10 s socket timeout, or after g_http_deadline.
int HttpCall(uint16_t port, const std::string& target,
             const std::string& content_type, const std::string& body,
             std::string* response_body) {
  if (Clock::now().time_since_epoch().count() >
      g_http_deadline.load(std::memory_order_relaxed)) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  std::string request = "POST " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
                        content_type + "\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return -1;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return -1;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  const size_t head_end = response.find("\r\n\r\n");
  if (response_body != nullptr && head_end != std::string::npos) {
    *response_body = response.substr(head_end + 4);
  }
  return std::atoi(response.c_str() + 9);
}

int Send(uint16_t port, const Op& op, std::string* body) {
  if (op.cls == kUpdate) {
    return HttpCall(port, op.insert ? "/update?op=insert" : "/update?op=delete",
                    "text/turtle", op.text, body);
  }
  return HttpCall(port, "/sparql", "application/sparql-query", op.text, body);
}

/// Result rows reported in the server's per-query stats object.
int64_t RowsOf(const std::string& body) {
  const size_t at = body.rfind("\"rows\":");
  return at == std::string::npos ? -1 : std::atoll(body.c_str() + at + 7);
}

struct Sample {
  Class cls;
  double done_s;      ///< completion, from the schedule start
  double late_ms;     ///< send time - due time
  double latency_ms;  ///< completion - due time
  double service_ms;  ///< completion - send time
  bool ok;
};

/// Open-loop run: `threads` senders take the next due request in order,
/// wait until it is due, send it and record latency from the due time, so
/// a stall delays (and is charged to) later requests too.
std::vector<Sample> RunOpenLoop(uint16_t port, const Schedule& schedule,
                                unsigned threads, Tracer* tracer,
                                uint64_t request_base) {
  std::vector<Sample> samples(schedule.ops.size());
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto sender = [&] {
    std::string body;
    for (size_t i = next.fetch_add(1); i < schedule.ops.size();
         i = next.fetch_add(1)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       schedule.due_s[i]));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      int status;
      {
        auto span = tracer->Open("server.request", request_base + i);
        status = Send(port, schedule.ops[i], &body);
      }
      const auto done = Clock::now();
      samples[i] = Sample{schedule.ops[i].cls, SecondsBetween(start, done),
                          SecondsBetween(due, sent) * 1e3,
                          SecondsBetween(due, done) * 1e3,
                          SecondsBetween(sent, done) * 1e3, status == 200};
      if (status != 200) {
        std::fprintf(stderr, "perfbench: %s request %zu -> HTTP %d %s\n",
                     kClassNames[schedule.ops[i].cls], i, status,
                     body.substr(0, 200).c_str());
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(sender);
  for (std::thread& t : pool) t.join();
  return samples;
}

/// Stops a server after letting its workers settle. HttpServer::Stop()
/// clears its running flag without holding the connection-queue mutex, so
/// a worker that is checking its wait condition at that moment (right
/// after it starts, or right after it finishes a connection) misses the
/// wake-up, and Stop() waits for it forever. In a stress loop, starting
/// and at once stopping a 4-worker server hung after 1836 and after 8538
/// cycles; with a 5 ms pause before Stop(), 6000 cycles passed. The pause
/// is not part of any timing.
void StopServer(server::HttpServer* server) {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Stop();
}

/// Everything one serving set-up owns. Members are declared in
/// destruction-safe order: the server stops before the engine goes.
struct Instance {
  std::unique_ptr<rdf::TermDictionary> dict;
  std::unique_ptr<rdf::Dataset> dataset;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<server::HttpServer> server;
  ~Instance() {
    if (server) StopServer(server.get());
  }
};

/// Stops and frees an instance, the server first.
void Clear(Instance* inst) {
  if (inst->server) StopServer(inst->server.get());
  inst->server.reset();
  inst->engine.reset();
  inst->dataset.reset();
  inst->dict.reset();
}

/// Default engine options (both caches on) but one fixpoint thread, so an
/// in-process request runs entirely on its calling thread and its CPU
/// time can be measured (README.md, "Steadiness").
core::Engine::Options ServeOptions() {
  core::Engine::Options options;
  options.parallelism.num_threads = 1;
  return options;
}

Status SetUp(uint64_t seed, bool with_server, unsigned workers, Instance* inst) {
  Clear(inst);
  inst->dict = std::make_unique<rdf::TermDictionary>();
  inst->dataset = std::make_unique<rdf::Dataset>(inst->dict.get());
  workloads::Sp2bOptions options;
  options.target_triples = kTriples;
  options.seed = seed;
  workloads::GenerateSp2b(options, inst->dataset.get());
  inst->engine = std::make_unique<core::Engine>(
      inst->dataset.get(), inst->dict.get(), ServeOptions());
  SPARQLOG_RETURN_NOT_OK(inst->engine->Load());
  if (!with_server) return Status::OK();
  server::HttpServerOptions sopts;
  sopts.num_workers = workers;
  inst->server = std::make_unique<server::HttpServer>(
      inst->engine.get(), inst->dict.get(), sopts);
  return inst->server->Start();
}

/// Times full set-ups (generation, Load, server start) of a spare instance
/// for about `seconds`, at least one, appending each one's CPU seconds to
/// `setup_s`. Freeing the previous one is not timed.
Status TimeSetUps(uint64_t seed, unsigned workers, double seconds,
                  std::vector<double>* setup_s) {
  Instance spare;
  const auto start = Clock::now();
  do {
    Clear(&spare);
    MoveToCpu(static_cast<unsigned>(setup_s->size()));
    const double t0 = ThreadCpuSeconds();
    Status st = SetUp(seed, /*with_server=*/true, workers, &spare);
    setup_s->push_back(ThreadCpuSeconds() - t0);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return st;
    }
  } while (SecondsBetween(start, Clock::now()) < seconds);
  return Status::OK();
}

struct StepResult {
  double rate = 0;
  double achieved = 0;
  double p99 = 0;
  double backlog_ms = 0;
  size_t errors = 0;
  bool pass = false;
};

StepResult Judge(double rate, const std::vector<Sample>& samples) {
  StepResult r;
  r.rate = rate;
  std::vector<double> reads, tail_late;
  double end_s = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    end_s = std::max(end_s, s.done_s);
    if (!s.ok) ++r.errors;
    if (s.cls != kUpdate) reads.push_back(s.latency_ms);
    if (i >= samples.size() * 3 / 4) tail_late.push_back(s.late_ms);
  }
  // Completed requests per second, first due time to last completion.
  r.achieved = end_s > 0 ? double(samples.size() - r.errors) / end_s : 0.0;
  r.p99 = Quantile(reads, 0.99);
  r.backlog_ms = Median(tail_late);
  r.pass = r.errors == 0 && r.p99 <= kP99LimitMs &&
           r.backlog_ms <= kBacklogLimitMs;
  return r;
}

/// Probe set: kProbes reads drawn from the read mix, plus every analytic
/// query.
constexpr int kProbes = 200;
std::vector<Op> Probes(Mix* mix) {
  std::vector<Op> probes;
  for (int i = 0; i < kProbes; ++i) probes.push_back(mix->NextRead());
  for (size_t i = 0; i < mix->analytic_count(); ++i) {
    probes.push_back(mix->Analytic(i));
  }
  return probes;
}

/// Checks every probe on the serving engine (over HTTP: row count; in
/// process: full answer digest) against a freshly loaded engine over the
/// final dataset. Stops the server.
void CheckProbes(Instance* inst, const std::vector<Op>& probes,
                 Outcomes* tally) {
  std::vector<int64_t> http_rows;
  std::string body;
  for (const Op& op : probes) {
    const int status = Send(inst->server->port(), op, &body);
    http_rows.push_back(status == 200 ? RowsOf(body) : -1);
  }
  StopServer(inst->server.get());
  core::Engine::Options cold = ServeOptions();
  cold.caching.program_cache = false;
  cold.caching.stratum_memo = false;
  core::Engine fresh(static_cast<const rdf::Dataset*>(inst->dataset.get()),
                     inst->dict.get(), cold);
  const Status loaded = fresh.Load();
  for (size_t i = 0; i < probes.size(); ++i) {
    ++tally->attempted;
    auto got = inst->engine->ExecuteText(probes[i].text);
    auto want = fresh.ExecuteText(probes[i].text);
    if (!loaded.ok() || !got.ok() || !want.ok()) {
      ++tally->failed;
      std::fprintf(stderr, "perfbench: probe %zu failed\n", i);
      continue;
    }
    const Answer a = Digest(got->result, *inst->dict);
    const Answer b = Digest(want->result, *inst->dict);
    if (a != b || http_rows[i] != int64_t(b.rows)) {
      ++tally->wrong;
      std::fprintf(stderr,
                   "perfbench: probe %zu (%s) differs from a fresh engine: "
                   "rows %llu (http %lld) vs %llu\n",
                   i, kClassNames[probes[i].cls],
                   static_cast<unsigned long long>(a.rows),
                   static_cast<long long>(http_rows[i]),
                   static_cast<unsigned long long>(b.rows));
    }
  }
}

/// One read or write of the in-process suite, by the client thread:
/// ExecuteText for reads, Turtle parse + ApplyUpdate for writes. Returns
/// false if it failed.
bool RunInProcess(core::Engine* engine, rdf::TermDictionary* dict,
                  const Op& op) {
  if (op.cls != kUpdate) return engine->ExecuteText(op.text).ok();
  rdf::Graph staged;
  if (!rdf::ParseTurtleIntoGraph(op.text, dict, &staged).ok()) return false;
  const std::vector<rdf::Triple> none;
  return (op.insert ? engine->ApplyUpdate(staged.triples(), none)
                    : engine->ApplyUpdate(none, staged.triples()))
      .ok();
}

/// The in-process suite behind serve_mixed's gated metrics: passes of the
/// serve mix run back to back by one thread over its own copy of the
/// seed's dataset and engine (ServeOptions), each request timed in CPU
/// time. Its requests depend on the seed only, not on how far the HTTP
/// ladder got. A pass holds each read class in its mix share (120
/// lookups, 50 stars, 20 analytic, 10 paths) with freshly drawn constants,
/// in a seeded order, and one write after every kReadsPerWrite reads (the
/// base step's read:write ratio), so writes invalidate the memo and the
/// program cache rebinds as they do over HTTP. One warm-up pass, then
/// passes for `seconds` (at least kMinSuitePasses).
constexpr int kSuiteReads = 200;
constexpr int kReadsPerWrite = static_cast<int>(kBaseRate / kWriteRate);
constexpr int kMinSuitePasses = 10;
struct SuiteResult {
  std::vector<double> pass_s;                   ///< CPU seconds per pass
  std::vector<std::vector<double>> by_class_ms{kClasses};  ///< CPU ms
};
SuiteResult RunSuite(uint64_t seed, double seconds, Outcomes* tally) {
  SuiteResult out;
  Instance inst;
  ++tally->attempted;
  if (!SetUp(seed, /*with_server=*/false, 0, &inst).ok()) {
    ++tally->failed;
    return out;
  }
  Mix mix(*inst.dataset, *inst.dict, seed + 0x5eed);
  Rng order_rng(seed * 7 + 3);
  uint64_t writes = 0;
  const auto start = Clock::now();
  for (int pass = 0;
       pass <= kMinSuitePasses || SecondsBetween(start, Clock::now()) < seconds;
       ++pass) {
    std::vector<Op> reads;
    for (int c = 0; c < kUpdate; ++c) {
      const long n = std::lround(kClassShare[c] * kSuiteReads);
      for (long i = 0; i < n; ++i) {
        reads.push_back(mix.Read(static_cast<Class>(c)));
      }
    }
    for (size_t i = reads.size(); i > 1; --i) {
      std::swap(reads[i - 1], reads[order_rng.Uniform(i)]);
    }
    std::vector<Op> ops;
    for (size_t i = 0; i < reads.size(); ++i) {
      ops.push_back(std::move(reads[i]));
      if ((i + 1) % kReadsPerWrite == 0) ops.push_back(mix.Write(writes++));
    }
    MoveToCpu(static_cast<unsigned>(pass));
    double pass_s = 0.0;
    for (const Op& op : ops) {
      const double t0 = ThreadCpuSeconds();
      const bool ok = RunInProcess(inst.engine.get(), inst.dict.get(), op);
      const double s = ThreadCpuSeconds() - t0;
      ++tally->attempted;
      if (!ok) ++tally->failed;
      if (pass == 0) continue;  // warm-up
      pass_s += s;
      out.by_class_ms[op.cls].push_back(s * 1e3);
    }
    if (pass > 0) out.pass_s.push_back(pass_s);
  }
  return out;
}

void CountSamples(const std::vector<Sample>& samples, Outcomes* tally) {
  for (const Sample& s : samples) {
    ++tally->attempted;
    if (!s.ok) ++tally->failed;
  }
}

/// Fixpoint counters summed over a replay's reads.
struct ReplayCounters {
  uint64_t reads = 0, derived = 0, rows = 0, rounds = 0, parallel_rounds = 0,
           tc = 0;
  std::vector<double> qerrors;
};
/// In-process replay of a schedule's requests, one after another:
/// ParseQuery + Engine::Execute for reads, Turtle parse + ApplyUpdate for
/// writes; request i is traced as request `request_base + i`. Returns
/// per-request wall time in ms.
std::vector<double> ReplayInProcess(Instance* inst, const Schedule& schedule,
                                    Tracer* tracer, uint64_t request_base,
                                    ReplayCounters* counters,
                                    Outcomes* tally) {
  std::vector<double> ms;
  const std::vector<rdf::Triple> none;
  for (size_t n = 0; n < schedule.ops.size(); ++n) {
    const Op& op = schedule.ops[n];
    const uint64_t i = request_base + n;
    const auto t0 = Clock::now();
    bool ok = true;
    {
      auto root = tracer->Open("bench.request", i);
      if (op.cls == kUpdate) {
        rdf::Graph staged;
        Status st;
        {
          auto span = tracer->Open("rdf.turtle", i);
          st = rdf::ParseTurtleIntoGraph(op.text, inst->dict.get(), &staged);
        }
        if (st.ok()) {
          auto span = tracer->Open("core.update", i);
          st = op.insert ? inst->engine->ApplyUpdate(staged.triples(), none)
                         : inst->engine->ApplyUpdate(none, staged.triples());
        }
        ok = st.ok();
      } else {
        Result<sparql::Query> query = Status::Internal("unparsed");
        {
          auto span = tracer->Open("sparql.parse", i);
          query = sparql::ParseQuery(op.text, inst->dict.get(),
                                     sparql::ParserOptions());
        }
        if (query.ok()) {
          Result<core::Engine::Execution> exec = Status::Internal("unrun");
          {
            auto span = tracer->Open("core.engine", i);
            exec = inst->engine->Execute(*query);
          }
          ok = exec.ok();
          if (ok) {
            const core::Engine::QueryStats& qs = exec->stats;
            ++counters->reads;
            counters->derived += qs.fixpoint.tuples_derived;
            counters->rows += exec->result.rows.size();
            counters->rounds += qs.fixpoint.rounds;
            counters->parallel_rounds += qs.fixpoint.parallel_rounds;
            counters->tc += qs.fixpoint.tc_kernels_hit;
            if (qs.planned) counters->qerrors.push_back(qs.plan_estimate_error);
          }
        } else {
          ok = false;
        }
      }
    }
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    ++tally->attempted;
    if (!ok) ++tally->failed;
  }
  return ms;
}

std::string Fixed(double v, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

int RunServe(const Settings& settings) {
  g_http_deadline.store(
      (Clock::now() + std::chrono::seconds(static_cast<int64_t>(
                          settings.seconds + 60)))
          .time_since_epoch()
          .count());
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = nproc;
  Report report;
  Outcomes tally;
  Instance inst;
  std::vector<double> setup_s;
  {
    Status st = SetUp(settings.seed, /*with_server=*/!settings.trace, nproc,
                      &inst);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  const size_t triples = inst.dataset->default_graph().size();
  // Storage of the EDB as loaded (arenas and dedup tables; indexes are
  // built lazily by queries, and updates can drop them, so they are left
  // out to keep the figure a property of the data).
  const double edb_bytes_per_triple =
      double(inst.engine->edb_storage().bytes) / double(triples);
  Mix mix(*inst.dataset, *inst.dict, settings.seed);
  report.Note(
      "nproc=" + std::to_string(nproc) + " sender_threads=" +
      std::to_string(threads) + " triples=" + std::to_string(triples) +
      " distinct_shapes=" + std::to_string(mix.distinct_shapes()) +
      " program_cache_capacity=" +
      std::to_string(core::Engine::Options().caching.program_cache_capacity));
  uint64_t writes = 0;

  if (!settings.trace) {
    const double base_seconds = settings.seconds * kBaseShare;
    const double ladder_seconds =
        settings.seconds * kLadderShare / std::size(kLadder);
    const uint16_t port = inst.server->port();
    Tracer off(false);
    const StealMeter steal;
    if (!TimeSetUps(settings.seed, nproc, kSetupBatchSeconds, &setup_s).ok()) {
      return 1;
    }
    const auto before = inst.engine->stats();
    CountSamples(
        RunOpenLoop(port, MakeSchedule(&mix, kBaseRate, kWarmupSeconds, &writes),
                    threads, &off, 0),
        &tally);
    const Schedule base = MakeSchedule(&mix, kBaseRate, base_seconds, &writes);
    const std::vector<Sample> base_samples =
        RunOpenLoop(port, base, threads, &off, 0);
    CountSamples(base_samples, &tally);
    if (!TimeSetUps(settings.seed, nproc, kSetupBatchSeconds, &setup_s).ok()) {
      return 1;
    }
    std::vector<StepResult> steps{Judge(kBaseRate, base_samples)};
    // Up the ladder until a step fails. An error is how a step above the
    // base one is meant to fail: it counts in that step's verdict only,
    // not in attempted/failed or error_rate.
    for (double rate : kLadder) {
      if (!steps.back().pass) break;
      steps.push_back(Judge(
          rate, RunOpenLoop(port,
                            MakeSchedule(&mix, rate, ladder_seconds, &writes),
                            threads, &off, 0)));
    }
    const auto after = inst.engine->stats();
    if (!TimeSetUps(settings.seed, nproc, kSetupBatchSeconds, &setup_s).ok()) {
      return 1;
    }
    CheckProbes(&inst, Probes(&mix), &tally);
    const SuiteResult suite =
        RunSuite(settings.seed, settings.seconds * kSuiteShare, &tally);
    if (!TimeSetUps(settings.seed, nproc, kSetupBatchSeconds, &setup_s).ok()) {
      return 1;
    }

    std::vector<std::vector<double>> by_class(kClasses);
    std::vector<double> reads, late;
    for (const Sample& s : base_samples) {
      by_class[s.cls].push_back(s.latency_ms);
      if (s.cls != kUpdate) reads.push_back(s.latency_ms);
      late.push_back(s.late_ms);
    }
    std::vector<double> class_medians;
    std::string classes = "base-step class medians (ms):";
    for (int c = 0; c < kUpdate; ++c) {
      class_medians.push_back(Median(by_class[c]));
      classes += std::string(" ") + kClassNames[c] + "=" +
                 Fixed(class_medians.back(), 3) + " (n=" +
                 std::to_string(by_class[c].size()) + ")";
    }
    report.Note(classes);
    double max_rate = steps[0].achieved;
    for (const StepResult& s : steps) {
      report.Note("step rate=" + Fixed(s.rate, 0) + "/s achieved=" +
                  Fixed(s.achieved, 1) + "/s p99=" + Fixed(s.p99, 3) +
                  "ms tail_lateness=" + Fixed(s.backlog_ms, 3) + "ms errors=" +
                  std::to_string(s.errors) + (s.pass ? " PASS" : " FAIL"));
    }
    for (const StepResult& s : steps) {
      if (!s.pass) break;
      max_rate = s.achieved;
    }
    std::string uq = "base-step update latency quantiles (ms):";
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99}) {
      uq += " p" + Fixed(q * 100, 0) + "=" +
            Fixed(Quantile(by_class[kUpdate], q), 2);
    }
    report.Note(uq);
    std::vector<double> inserts, deletes;
    for (size_t i = 0; i < base_samples.size(); ++i) {
      if (base.ops[i].cls != kUpdate) continue;
      (base.ops[i].insert ? inserts : deletes)
          .push_back(base_samples[i].latency_ms);
    }
    report.Note("base-step update medians (ms): insert=" +
                Fixed(Median(inserts), 3) + " (n=" +
                std::to_string(inserts.size()) + ") delete=" +
                Fixed(Median(deletes), 3) + " (n=" +
                std::to_string(deletes.size()) + ")");
    report.Note("setups=" + std::to_string(setup_s.size()));
    report.Note("base step: reads=" + std::to_string(reads.size()) +
                " updates=" + std::to_string(by_class[kUpdate].size()) +
                " p99_gen_lateness_ms=" + Fixed(Quantile(late, 0.99), 3));
    const double hits = double(after.program_hits + after.program_rebinds -
                               before.program_hits - before.program_rebinds);
    const double misses = double(after.program_misses - before.program_misses);
    report.Note("program cache: hit+rebind ratio=" +
                Fixed(hits + misses == 0 ? 0.0 : hits / (hits + misses), 3) +
                " evictions=" +
                std::to_string(after.program_evictions -
                               before.program_evictions) +
                "; stratum memo evictions=" +
                std::to_string(after.stratum_evictions -
                               before.stratum_evictions));
    std::vector<double> suite_reads, suite_medians;
    std::string suite_classes = "suite class medians (CPU ms):";
    for (int c = 0; c < kUpdate; ++c) {
      const std::vector<double>& v = suite.by_class_ms[c];
      suite_reads.insert(suite_reads.end(), v.begin(), v.end());
      suite_medians.push_back(Median(v));
      suite_classes += std::string(" ") + kClassNames[c] + "=" +
                       Fixed(suite_medians.back(), 3) + " (n=" +
                       std::to_string(v.size()) + ")";
    }
    suite_classes += " update=" + Fixed(Median(suite.by_class_ms[kUpdate]), 3) +
                     " (n=" + std::to_string(suite.by_class_ms[kUpdate].size()) +
                     ")";
    report.Note(suite_classes);
    report.Note("suite passes=" + std::to_string(suite.pass_s.size()) +
                "; host steal = " + Fixed(steal.Share() * 100, 1) +
                "% of busy vCPU time");
    // Gated: the in-process suite and the set-ups, in CPU time.
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("suite_s", Median(suite.pass_s), "s");
    report.Add("query_geomean_ms", GeoMean(suite_medians), "ms");
    report.Add("query_p50_ms", Median(suite_reads), "ms");
    report.Add("query_p99_ms", Quantile(suite_reads, 0.99), "ms");
    // Printed only: the HTTP base step and ladder, in wall time from the
    // due time.
    report.Add("http.query_geomean_ms", GeoMean(class_medians), "ms");
    report.Add("http.query_p50_ms", Median(reads), "ms");
    report.Add("http.query_p99_ms", Quantile(reads, 0.99), "ms");
    report.Add("max_rate_qps", max_rate, "1/s");
    report.Add("update_p50_ms", Median(by_class[kUpdate]), "ms");
    report.Add("update_p90_ms", Quantile(by_class[kUpdate], 0.90), "ms");
    report.Add("error_rate", tally.error_rate(), "ratio");
    report.Add("ok_rate", 1.0 - tally.error_rate(), "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("edb_bytes_per_triple", edb_bytes_per_triple, "B");
    report.Print(settings, tally.wrong == 0, tally.attempted, tally.bad(),
                 EndToEndMetricNames());
    return 0;
  }

  // ---- Traced run ------------------------------------------------------
  // (a) A base-rate request sequence (kTracedShare of the run's seconds)
  // replayed in-process on fresh set-ups, traced and untraced alternately
  // (the untraced replays give the tracing overhead).
  const Schedule base =
      MakeSchedule(&mix, kBaseRate, settings.seconds * kTracedShare, &writes);
  const size_t n_ops = base.ops.size();
  Tracer tracer(true);
  ReplayCounters counters;
  std::vector<double> traced_s, plain_s, inproc_ms;
  core::Engine::EngineStats sums{};
  constexpr int kReplayRounds = 2;
  for (int round = 0; round < kReplayRounds; ++round) {
    for (bool traced : {round % 2 == 0, round % 2 != 0}) {
      Instance replay;
      if (!SetUp(settings.seed, false, nproc, &replay).ok()) return 1;
      tracer.set_enabled(traced);
      ReplayCounters scratch;
      const uint64_t request_base = uint64_t(traced_s.size()) << 20;
      const auto t0 = Clock::now();
      std::vector<double> ms =
          ReplayInProcess(&replay, base, &tracer, request_base,
                          traced ? &counters : &scratch, &tally);
      (traced ? traced_s : plain_s).push_back(SecondsBetween(t0, Clock::now()));
      if (!traced) continue;
      inproc_ms.insert(inproc_ms.end(), ms.begin(), ms.end());
      const auto s = replay.engine->stats();
      sums.program_hits += s.program_hits + s.program_rebinds;
      sums.program_misses += s.program_misses;
      sums.program_evictions += s.program_evictions;
      sums.stratum_hits += s.stratum_hits;
      sums.stratum_misses += s.stratum_misses;
      sums.stratum_evictions += s.stratum_evictions;
      sums.strata_incremental += s.strata_incremental;
      sums.strata_dred += s.strata_dred;
      sums.incremental_fallbacks += s.incremental_fallbacks;
    }
  }
  const double replays = double(traced_s.size());

  // (b) The same sequence over HTTP at the base rate, then (c) a burst at
  // the top ladder rate, for the admission counters.
  tracer.set_enabled(true);
  Instance served;
  if (!SetUp(settings.seed, true, nproc, &served).ok()) return 1;
  const auto before = served.engine->stats();
  const std::vector<Sample> http =
      RunOpenLoop(served.server->port(), base, threads, &tracer, 1ull << 40);
  CountSamples(http, &tally);
  // Errors are allowed at the top rate, as on the ladder: not counted.
  const double top_rate = kLadder[std::size(kLadder) - 1];
  RunOpenLoop(served.server->port(), MakeSchedule(&mix, top_rate, 2.0, &writes),
              threads, &tracer, 1ull << 41);
  const auto after = served.engine->stats();

  // (d) The reads through the direct pipeline (parse -> T_Q -> plan ->
  // evaluate -> T_S, both caches bypassed): the per-phase split of what
  // Engine::Execute does on a cache miss.
  Tracer direct(true);
  Instance cold;
  if (!SetUp(settings.seed, false, nproc, &cold).ok()) return 1;
  DirectPipeline pipeline(cold.dataset.get(), cold.dict.get(),
                          cold.engine.get(), &direct);
  std::vector<double> td_s, stats_s;
  for (int i = 0; i < kBuilds; ++i) {
    if (!pipeline.Build().ok()) return 1;
    td_s.push_back(pipeline.td_seconds());
    stats_s.push_back(pipeline.stats_seconds());
  }
  uint64_t direct_reads = 0;
  const auto direct_start = Clock::now();
  for (size_t i = 0; i < n_ops && SecondsBetween(direct_start, Clock::now()) <
                                      settings.seconds * kTracedShare / 2;
       ++i) {
    if (base.ops[i].cls == kUpdate) continue;
    auto root = direct.Open("bench.direct", i);
    auto r = pipeline.Run(base.ops[i].text, i);
    ++tally.attempted;
    if (!r.ok()) ++tally.failed;
    ++direct_reads;
  }

  // server.self_us: per request, the HTTP service time minus the median
  // in-process time of the same request class, weighted by class share.
  std::vector<std::vector<double>> http_by_class(kClasses),
      inproc_by_class(kClasses);
  for (const Sample& s : http) http_by_class[s.cls].push_back(s.service_ms);
  for (size_t i = 0; i < inproc_ms.size(); ++i) {
    inproc_by_class[base.ops[i % n_ops].cls].push_back(inproc_ms[i]);
  }
  std::vector<double> inproc_median(kClasses, 0.0);
  double server_self_us = 0.0;
  for (int c = 0; c < kClasses; ++c) {
    if (http_by_class[c].empty() || inproc_by_class[c].empty()) continue;
    inproc_median[c] = Median(inproc_by_class[c]);
    server_self_us += double(inproc_by_class[c].size()) /
                      double(inproc_ms.size()) *
                      (Median(http_by_class[c]) - inproc_median[c]) * 1e3;
  }
  std::vector<double> late, server_per_request;
  for (const Sample& s : http) {
    late.push_back(s.late_ms);
    server_per_request.push_back((s.service_ms - inproc_median[s.cls]) * 1e3);
  }

  // Layering self-check on the served path: the median request's self
  // time per layer (absent = 0), and the per-request mean beside it.
  const auto by_request = tracer.SelfSecondsByRequest();
  const auto self = tracer.SelfSeconds();
  const auto dself = direct.SelfSeconds();
  auto get = [](const std::map<std::string, double>& m, const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  std::string medians = "served-path self time per request, median (mean) us:";
  medians += " server=" + Fixed(Median(server_per_request), 1) + " (" +
             Fixed(server_self_us, 1) + ")";
  bool server_largest = true;
  for (const char* layer : {"core.engine", "sparql.parse", "core.update",
                            "rdf.turtle", "bench.request"}) {
    std::vector<double> us;
    for (size_t r = 0; r < traced_s.size(); ++r) {
      for (size_t n = 0; n < n_ops; ++n) {
        auto it = by_request.find({layer, (uint64_t(r) << 20) + n});
        us.push_back(it == by_request.end() ? 0.0 : it->second * 1e6);
      }
    }
    const double median = Median(us);
    if (median >= Median(server_per_request)) server_largest = false;
    medians += std::string(" ") + layer + "=" + Fixed(median, 1) + " (" +
               Fixed(Mean(us), 1) + ")";
  }
  report.Note(medians);
  report.Note(std::string("self-check: server.self_us is the largest layer "
                          "of the median request: ") +
              (server_largest ? "PASS" : "FAIL"));
  report.Note("replays=" + Fixed(replays, 0) + "+" +
              std::to_string(plain_s.size()) + " requests_per_replay=" +
              std::to_string(n_ops) + " http_requests=" +
              std::to_string(http.size()) + " direct_reads=" +
              std::to_string(direct_reads));

  const double reads = double(counters.reads);
  const double updates = replays * double(n_ops) - reads;
  const double per_direct = direct_reads == 0 ? 0.0 : 1e6 / direct_reads;
  const double per_read = reads == 0 ? 0.0 : 1e6 / reads;
  report.Add("datalog.eval_us", get(dself, "datalog.eval") * per_direct, "us");
  report.Add("datalog.tuples_derived", double(counters.derived) / replays,
             "count");
  report.Add("datalog.derived_per_row",
             counters.rows == 0 ? 0.0
                                : double(counters.derived) / double(counters.rows),
             "ratio");
  report.Add("datalog.rounds", double(counters.rounds) / replays, "count");
  report.Add("datalog.parallel_rounds",
             double(counters.parallel_rounds) / replays, "count");
  report.Add("datalog.tc_kernel_strata", double(counters.tc) / replays,
             "count");
  report.Add("sparql.parse_us", get(self, "sparql.parse") * per_read, "us");
  report.Add("core.tq_us", get(dself, "core.tq") * per_direct, "us");
  report.Add("datalog.plan_us", get(dself, "datalog.plan") * per_direct, "us");
  report.Add("datalog.plan_qerror", Median(counters.qerrors), "ratio");
  report.Add("core.ts_us", get(dself, "core.ts") * per_direct, "us");
  report.Add("core.engine_us", get(self, "core.engine") * per_read, "us");
  const double lookups = double(sums.program_hits + sums.program_misses);
  report.Add("core.program_cache_hit_ratio",
             lookups == 0 ? 0.0 : double(sums.program_hits) / lookups, "ratio");
  report.Add("core.program_cache_evictions",
             double(sums.program_evictions) / replays, "count");
  const double memo = double(sums.stratum_hits + sums.stratum_misses);
  report.Add("datalog.memo_hit_ratio",
             memo == 0 ? 0.0 : double(sums.stratum_hits) / memo, "ratio");
  report.Add("datalog.memo_evictions", double(sums.stratum_evictions) / replays,
             "count");
  report.Add("core.update_us",
             updates <= 0 ? 0.0 : get(self, "core.update") * 1e6 / updates,
             "us");
  report.Add("datalog.strata_incremental",
             double(sums.strata_incremental) / replays, "count");
  report.Add("datalog.strata_dred", double(sums.strata_dred) / replays,
             "count");
  report.Add("datalog.incremental_fallbacks",
             double(sums.incremental_fallbacks) / replays, "count");
  report.Add("core.admission_queued", double(after.queued - before.queued),
             "count");
  report.Add("core.admission_rejected",
             double(after.rejected - before.rejected), "count");
  report.Add("server.self_us", server_self_us, "us");
  report.Add("core.td_s", Median(td_s), "s");
  report.Add("datalog.stats_s", Median(stats_s), "s");
  report.Add("bench.gen_late_ms", Quantile(late, 0.99), "ms");
  const double plain = Median(plain_s);
  report.Add("bench.trace_overhead_pct",
             plain > 0 ? (Median(traced_s) - plain) / plain * 100 : 0.0, "%");
  if (!settings.trace_out.empty() &&
      !(tracer.WriteJson(settings.trace_out) &&
        direct.WriteJson(settings.trace_out + ".direct.json"))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 settings.trace_out.c_str());
  }
  report.Print(settings, tally.wrong == 0, tally.attempted, tally.bad(),
               PerLayerMetricNames());
  return 0;
}

}  // namespace perfbench
