// Workloads `service-shared` and `service-cold`: closed-loop traffic into
// one in-process service::RoutingService.
//
// The generator is this process. Each client thread keeps exactly one
// request outstanding and waits only on its own answer, so a slow request
// stalls its own client and never the others (no head-of-line blocking).
// Client threads plus pool workers stay within the hardware thread count.
//
// The traffic mix is bench/bench_service's seeded plan (PlanTraffic):
// every 8th slot of a client's stream is a session triple (rip-up of a
// random net, re-route with its original conflicts, solve at W*), route
// requests ask at W* or W*-1 in a 70/30 mix, and service-shared repeats an
// earlier route request exactly in 55% of draws once there is one.
//
// service-shared: fresh draws pick one of a few circuits' graphs, the
// width, and one of 8 fast strategies (encoding x symmetry x solver)
// uniformly. The cache, scheduler and session layers do most of the work.
//
// service-cold: every route request carries a fresh seeded relabeling, so
// every fingerprint is distinct and nothing can hit the cache. Encode, SAT
// and the scheduler do the work. Sessions never go through the cache.
//
// Latency is timed on the client from just before Submit to Wait's return.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "flow/track_checker.h"
#include "oracle.h"
#include "relabel.h"
#include "service/routing_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using satfr::Stopwatch;
using satfr::graph::Graph;
using satfr::graph::VertexId;
using satfr::sat::SolveResult;
using satfr::service::RequestKind;
using satfr::service::Response;
using satfr::service::RoutingService;

constexpr int kSetupRepeats = 9;
constexpr double kRequestBudgetSeconds = 60.0;
// Circuits whose cold solves stay well under a second at W* and W*-1.
const char* const kCircuits[] = {"alu2", "too_large", "alu4", "C880"};

struct Strategy {
  const char* encoding;
  const char* symmetry;
  const char* solver;
};

// service-shared draws from these; all answer W*-1 and W* on the circuits
// above in tens of milliseconds. Cold requests use the first (the
// `satfr prove` default).
const Strategy kStrategies[] = {
    {"ITE-linear-2+muldirect", "s1", "siege"},
    {"ITE-linear-2+muldirect", "b1", "minisat"},
    {"muldirect", "s1", "siege"},
    {"muldirect", "b1", "minisat"},
    {"direct", "s1", "minisat"},
    {"direct", "b1", "siege"},
    {"ITE-log", "s1", "siege"},
    {"ITE-log", "b1", "minisat"},
};

// The trace file keeps each client's first requests; the per-layer
// metrics always cover the whole run.
constexpr std::uint64_t kMaxTracedRequestsPerClient = 10000;

// bench/bench_service's PlanTraffic shares (see the file comment).
constexpr std::uint64_t kSessionSlotPeriod = 8;
constexpr double kProveShare = 0.30;   // route requests asked at W*-1
constexpr double kRepeatShare = 0.55;  // service-shared exact repeats

struct ServiceInputs {
  std::vector<RoutedCircuit> circuits;
  std::vector<std::shared_ptr<const Graph>> graphs;
  std::unique_ptr<RoutingService> service;
};

std::string ClientName(int client) {
  return "client-" + std::to_string(client);
}

ServiceInputs SetUp(int workers, int clients) {
  ServiceInputs in;
  for (const char* name : kCircuits) {
    in.circuits.push_back(RouteCircuit(GenerateCircuit(name)));
    in.graphs.push_back(
        std::make_shared<const Graph>(in.circuits.back().conflict));
  }
  satfr::service::ServiceOptions options;
  options.scheduler.num_workers = workers;
  options.timeout_seconds = kRequestBudgetSeconds;
  in.service = std::make_unique<RoutingService>(options);
  for (int client = 0; client < clients; ++client) {
    const std::size_t c = static_cast<std::size_t>(client) %
                          in.circuits.size();
    std::string error;
    if (!in.service->OpenSession(
            ClientName(client), in.graphs[c],
            in.circuits[c].circuit.known.min_width + 1,
            kStrategies[0].encoding, kStrategies[0].symmetry, &error)) {
      std::fprintf(stderr, "perfbench: OpenSession failed: %s\n",
                   error.c_str());
      std::exit(2);
    }
  }
  return in;
}

// A route query: circuit, width, and (service-shared) strategy.
struct Key {
  std::size_t circuit = 0;
  int width = 0;
  std::size_t strategy = 0;
};

// Everything one client thread observed; merged after the threads join.
struct ClientLog {
  WorkloadResult answers;  // attempted / failed tally
  std::vector<double> latency;
  std::vector<double> hit_latency;
  std::vector<double> miss_latency;
  std::vector<std::vector<double>> prove_latency;  // per circuit
  std::vector<double> queue_wait;
  std::vector<double> encode_s;
  std::vector<double> solve_s;  // every miss
  std::vector<double> solve_sat_s;
  std::vector<double> solve_unsat_s;
  std::vector<double> apply_s;
  std::vector<double> session_solve_s;
  std::vector<double> delta_latency;
  std::vector<double> session_solve_latency;
  std::vector<double> track_check_s;
  std::vector<double> lag;
  std::vector<double> done_at;  // completion time in the run, per answer
  std::uint64_t routes = 0;
  std::uint64_t hits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t track_failures = 0;
};

// One closed-loop client: prepare a request, submit it, wait for its
// answer, check the answer, repeat. Preparing and checking are the
// generator's think time; they happen outside every latency window and
// are reported as generator lag (answer -> next submit).
class Client {
 public:
  Client(int index, bool shared, const RunConfig& config,
         const ServiceInputs& in, TraceWriter* trace)
      : index_(index),
        shared_(shared),
        seed_(config.seed),
        in_(in),
        trace_(trace),
        rng_(DeriveSeed(config.seed, "client",
                        static_cast<std::uint64_t>(index))) {
    log_.prove_latency.resize(in.circuits.size());
  }

  void Run(const Stopwatch& clock, double seconds) {
    if (trace_ != nullptr) {
      trace_->SetThreadName(TraceWriter::CurrentTid(), ClientName(index_));
    }
    Stopwatch since_answer;
    while (clock.Seconds() < seconds) {
      const Op op = NextOp();
      log_.lag.push_back(since_answer.Seconds());
      const std::uint64_t start_us =
          trace_ != nullptr ? trace_->NowMicros() : 0;
      Stopwatch watch;
      const RoutingService::Ticket ticket = op.submit();
      const Response& answer = in_.service->Wait(ticket);
      const double latency = watch.Seconds();
      since_answer.Reset();
      log_.done_at.push_back(clock.Seconds());
      Record(answer, latency);
      if (trace_ != nullptr && traced_++ < kMaxTracedRequestsPerClient) {
        TraceCall(op.name, start_us, trace_->NowMicros(), ticket.id, answer);
      }
      op.check(answer, latency);
    }
  }

  ClientLog& log() { return log_; }

 private:
  using Check = std::function<void(const Response&, double latency)>;
  struct Op {
    const char* name = "";
    std::function<RoutingService::Ticket()> submit;
    Check check;
  };

  std::size_t SessionCircuit() const {
    return static_cast<std::size_t>(index_) % in_.circuits.size();
  }

  Op NextOp() {
    if (burst_.empty() && slots_ % kSessionSlotPeriod ==
                              kSessionSlotPeriod - 1) {
      QueueSessionTriple();
    }
    ++slots_;
    if (burst_.empty()) return RouteOp();
    Op op = std::move(burst_.front());
    burst_.erase(burst_.begin());
    return op;
  }

  // Per-layer bookkeeping common to every answer.
  void Record(const Response& response, double latency) {
    ++log_.answers.attempted;
    log_.latency.push_back(latency);
    const double work = response.encode_seconds + response.solve_seconds +
                        response.apply_seconds;
    log_.queue_wait.push_back(std::max(0.0, latency - work));
    if (response.status == SolveResult::kUnknown &&
        (response.kind == RequestKind::kRoute ||
         response.kind == RequestKind::kSessionSolve)) {
      ++log_.timeouts;
    }
  }

  // The service reports encode/solve/apply durations but not when they
  // ran; they are drawn ending at the answer, with the rest as waiting.
  // The library's own spans (encode, solve, session ops) land on the
  // worker threads' tracks of the same trace.
  void TraceCall(const char* name, std::uint64_t start_us,
                 std::uint64_t end_us, std::uint64_t request,
                 const Response& response) {
    const std::uint64_t tid = TraceWriter::CurrentTid();
    const auto before = [start_us](std::uint64_t t, double seconds) {
      const auto us = static_cast<std::uint64_t>(seconds * 1e6);
      return t > start_us + us ? t - us : start_us;
    };
    const std::uint64_t solve_start =
        before(end_us, response.solve_seconds + response.apply_seconds);
    const std::uint64_t encode_start =
        before(solve_start, response.encode_seconds);
    const auto add = [&](const char* span, std::uint64_t from,
                         std::uint64_t to) {
      trace_->CompleteEvent(span, "perfbench", tid, from, to - from,
                            {{"request", request}});
    };
    add(name, start_us, end_us);
    add("service.queue_wait", start_us, encode_start);
    if (response.encode_seconds > 0.0) {
      add("service.encode", encode_start, solve_start);
    }
    if (response.solve_seconds + response.apply_seconds > 0.0) {
      add(response.kind == RequestKind::kSessionRipUp ||
                  response.kind == RequestKind::kSessionReroute
              ? "session.apply"
              : "service.solve",
          solve_start, end_us);
    }
  }

  Key DrawKey() {
    Key key;
    key.circuit = static_cast<std::size_t>(rng_.NextBelow(in_.circuits.size()));
    key.width = in_.circuits[key.circuit].circuit.known.min_width -
                (rng_.NextBool(kProveShare) ? 1 : 0);
    if (shared_) {
      key.strategy =
          static_cast<std::size_t>(rng_.NextBelow(std::size(kStrategies)));
    }
    return key;
  }

  Op RouteOp() {
    Key key;
    if (shared_ && !history_.empty() && rng_.NextBool(kRepeatShare)) {
      key = history_[static_cast<std::size_t>(
          rng_.NextBelow(history_.size()))];
    } else {
      key = DrawKey();
      if (shared_) history_.push_back(key);
    }
    const std::size_t c = key.circuit;
    const Strategy* strategy = &kStrategies[key.strategy];
    auto request = std::make_shared<satfr::service::RouteRequest>();
    auto permutation = std::make_shared<std::vector<VertexId>>();
    request->width = key.width;
    if (shared_) {
      request->graph = in_.graphs[c];
    } else {
      Relabeling relabeling = RelabelGraph(
          in_.circuits[c].conflict,
          DeriveSeed(seed_, ClientName(index_), cold_requests_++));
      *permutation = std::move(relabeling.permutation);
      request->graph =
          std::make_shared<const Graph>(std::move(relabeling.graph));
    }
    request->label = in_.circuits[c].circuit.known.name;
    request->encoding = strategy->encoding;
    request->symmetry = strategy->symmetry;
    request->solver = strategy->solver;

    Op op;
    op.name = "route";
    op.submit = [this, request] { return in_.service->Submit(*request); };
    op.check = [this, c, request, permutation](const Response& response,
                                               double latency) {
      CheckRoute(c, *request, *permutation, response, latency);
    };
    return op;
  }

  void CheckRoute(std::size_t c, const satfr::service::RouteRequest& request,
                  const std::vector<VertexId>& permutation,
                  const Response& response, double latency) {
    const RoutedCircuit& circuit = in_.circuits[c];
    const int min_width = circuit.circuit.known.min_width;
    ++log_.routes;
    if (request.width < min_width) log_.prove_latency[c].push_back(latency);
    if (response.verdict_hit) {
      ++log_.hits;
      log_.hit_latency.push_back(latency);
    } else {
      log_.miss_latency.push_back(latency);
      log_.encode_s.push_back(response.encode_seconds);
      log_.solve_s.push_back(response.solve_seconds);
      if (response.status == SolveResult::kSat) {
        log_.solve_sat_s.push_back(response.solve_seconds);
      } else if (response.status == SolveResult::kUnsat) {
        log_.solve_unsat_s.push_back(response.solve_seconds);
      }
    }

    std::string error =
        response.ok ? CheckAnswer(min_width, *request.graph, request.width,
                                  response.status, response.tracks)
                    : "request failed: " + response.error;
    // A proper coloring of a circuit's own conflict graph is a valid track
    // assignment by construction; a relabeled answer is mapped back and
    // run through the track checker.
    if (error.empty() && response.status == SolveResult::kSat &&
        !permutation.empty()) {
      Stopwatch check_watch;
      std::string track_error;
      if (!satfr::flow::ValidateTrackAssignment(
              circuit.circuit.arch, circuit.routing,
              MapBack(permutation, response.tracks),
              request.width, &track_error)) {
        ++log_.track_failures;
        error = "track check: " + track_error;
      }
      log_.track_check_s.push_back(check_watch.Seconds());
    }
    if (!error.empty()) {
      log_.answers.Fail(request.label + " W=" + std::to_string(request.width) +
                ": " + error);
    }
  }

  // rip-up v -> re-route v with its original conflicts -> solve at W*.
  // The session applies them in order, so the solve sees every net.
  void QueueSessionTriple() {
    const std::size_t c = SessionCircuit();
    const std::shared_ptr<const Graph> graph = in_.graphs[c];
    const int min_width = in_.circuits[c].circuit.known.min_width;
    const VertexId net = static_cast<VertexId>(
        rng_.NextBelow(static_cast<std::uint64_t>(graph->num_vertices())));
    burst_.push_back(DeltaOp("session.ripup", [this, net] {
      return in_.service->SubmitRipUp(ClientName(index_), net);
    }));
    burst_.push_back(DeltaOp("session.reroute", [this, net, graph] {
      return in_.service->SubmitReroute(ClientName(index_), net,
                                        graph->Neighbors(net));
    }));
    burst_.push_back(SessionSolveOp(graph, min_width));
  }

  Op DeltaOp(const char* name,
             std::function<RoutingService::Ticket()> submit) {
    Op op;
    op.name = name;
    op.submit = std::move(submit);
    op.check = [this, name](const Response& response, double latency) {
      log_.apply_s.push_back(response.apply_seconds);
      log_.delta_latency.push_back(latency);
      if (!response.ok) {
        log_.answers.Fail(std::string(name) + ": " + response.error);
      }
    };
    return op;
  }

  // Every net is active again when the solve runs, so the answer must
  // color the session's whole graph.
  Op SessionSolveOp(std::shared_ptr<const Graph> graph, int min_width) {
    Op op;
    op.name = "session.solve";
    op.submit = [this, min_width] {
      return in_.service->SubmitSessionSolve(ClientName(index_), min_width);
    };
    op.check = [this, graph, min_width](const Response& response,
                                        double latency) {
      log_.session_solve_s.push_back(response.solve_seconds);
      log_.session_solve_latency.push_back(latency);
      const std::string error =
          response.ok ? CheckAnswer(min_width, *graph, min_width,
                                    response.status, response.tracks)
                      : "session solve failed: " + response.error;
      if (!error.empty()) {
        log_.answers.Fail(ClientName(index_) + " session W=" +
                          std::to_string(min_width) + ": " + error);
      }
    };
    return op;
  }

  const int index_;
  const bool shared_;
  const std::uint64_t seed_;
  const ServiceInputs& in_;
  TraceWriter* const trace_;
  satfr::Rng rng_;
  std::vector<Key> history_;  // service-shared's fresh draws, for repeats
  std::vector<Op> burst_;
  ClientLog log_;
  std::uint64_t slots_ = 0;
  std::uint64_t cold_requests_ = 0;
  std::uint64_t traced_ = 0;
};

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

// Rate and tail latency are taken per window of the run and reported as
// the median over windows: on a shared host the CPU stolen from this
// machine varies within a run, and a stretch that stalls a few windows
// must not set the run's figure.
constexpr int kWindows = 10;

struct Windowed {
  double rate = 0.0;    // answers per second
  double tail = 0.0;    // seconds
  double tail_q = 0.0;  // quantile of the median window's tail
};

Windowed MedianOverWindows(const std::vector<double>& done_at,
                           const std::vector<double>& latency,
                           double span) {
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t i = 0; i < done_at.size(); ++i) {
    const auto w = static_cast<std::size_t>(done_at[i] / span * kWindows);
    windows[std::min<std::size_t>(w, kWindows - 1)].push_back(latency[i]);
  }
  std::vector<double> rates;
  std::vector<double> tails;
  std::vector<double> quantiles;
  for (const std::vector<double>& window : windows) {
    rates.push_back(static_cast<double>(window.size()) * kWindows / span);
    quantiles.push_back(TailQuantile(window.size()));
    tails.push_back(Percentile(window, quantiles.back()));
  }
  return Windowed{Median(rates), Median(tails), Median(quantiles)};
}

WorkloadResult RunService(const RunConfig& config, TraceWriter* trace,
                          bool shared) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // service-cold fills the machine: half the hardware threads are
  // clients, the rest pool workers. service-shared runs one client: its
  // answers take about 0.1 ms and are bound by thread wake-ups, and with
  // a second client competing for the same cores its p99 swung 1.3-4 ms
  // across ten runs, against 0.47-0.63 ms with one.
  const int clients = shared ? 1 : std::max(1, hardware / 2);
  const int workers =
      std::max(1, shared ? hardware / 2 : hardware - clients);

  WorkloadResult result;
  ServiceInputs in;
  const double setup_seconds = MedianSetupSeconds(
      kSetupRepeats, in, [&] { return SetUp(workers, clients); });

  const satfr::service::ServiceStats before = in.service->stats();
  std::vector<std::unique_ptr<Client>> client_objects;
  for (int i = 0; i < clients; ++i) {
    client_objects.push_back(
        std::make_unique<Client>(i, shared, config, in, trace));
  }
  satfr::obs::SetGlobalTrace(trace);
  Stopwatch clock;
  {
    std::vector<std::jthread> threads;
    for (auto& client : client_objects) {
      threads.emplace_back(
          [&client, &clock, &config] { client->Run(clock, config.seconds); });
    }
  }
  const double elapsed = clock.Seconds();
  satfr::obs::SetGlobalTrace(nullptr);
  const satfr::service::ServiceStats after = in.service->stats();

  ClientLog all;
  all.prove_latency.resize(in.circuits.size());
  for (auto& client : client_objects) {
    ClientLog& log = client->log();
    result.Merge(log.answers);
    Append(all.latency, log.latency);
    Append(all.hit_latency, log.hit_latency);
    Append(all.miss_latency, log.miss_latency);
    for (std::size_t c = 0; c < in.circuits.size(); ++c) {
      Append(all.prove_latency[c], log.prove_latency[c]);
    }
    Append(all.queue_wait, log.queue_wait);
    Append(all.encode_s, log.encode_s);
    Append(all.solve_s, log.solve_s);
    Append(all.solve_sat_s, log.solve_sat_s);
    Append(all.solve_unsat_s, log.solve_unsat_s);
    Append(all.apply_s, log.apply_s);
    Append(all.session_solve_s, log.session_solve_s);
    Append(all.delta_latency, log.delta_latency);
    Append(all.session_solve_latency, log.session_solve_latency);
    Append(all.track_check_s, log.track_check_s);
    Append(all.lag, log.lag);
    Append(all.done_at, log.done_at);
    all.routes += log.routes;
    all.hits += log.hits;
    all.timeouts += log.timeouts;
    all.track_failures += log.track_failures;
  }

  std::vector<double> prove_all;
  double prove_total = 0.0;
  for (const std::vector<double>& samples : all.prove_latency) {
    prove_total += Median(samples);
    Append(prove_all, samples);
  }
  const Windowed windowed =
      MedianOverWindows(all.done_at, all.latency, elapsed);
  result.Set("setup_s", setup_seconds);
  result.Set("prove_total_s", prove_total);
  result.Set("throughput_rps", windowed.rate);
  result.Set("latency_p50_ms", Median(all.latency) * 1e3);
  result.Set("latency_tail_ms", windowed.tail * 1e3);
  const double tail_q = TailQuantile(all.latency.size());

  char line[240];
  std::snprintf(line, sizeof line,
                "clients=%d workers=%d ops=%zu routes=%llu hits=%llu "
                "W*-1 routes=%zu; over the whole run latency p50=%.3fms "
                "p%.1f=%.3fms max=%.3fms, %.1f answers/s",
                clients, workers, all.latency.size(),
                static_cast<unsigned long long>(all.routes),
                static_cast<unsigned long long>(all.hits), prove_all.size(),
                Median(all.latency) * 1e3, tail_q * 100.0,
                Percentile(all.latency, tail_q) * 1e3,
                Percentile(all.latency, 1.0) * 1e3,
                static_cast<double>(all.latency.size()) / elapsed);
  result.notes.push_back(line);
  const double answers = static_cast<double>(all.latency.size());
  std::snprintf(line, sizeof line,
                "answer shares: route W* %.3f, route W*-1 %.3f, session "
                "delta %.3f, session solve %.3f",
                static_cast<double>(all.routes - prove_all.size()) / answers,
                static_cast<double>(prove_all.size()) / answers,
                static_cast<double>(all.delta_latency.size()) / answers,
                static_cast<double>(all.session_solve_latency.size()) /
                    answers);
  result.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "%d windows: median rate %.1f answers/s, median window "
                "tail p%.1f=%.3fms (throughput_rps, latency_tail_ms)",
                kWindows, windowed.rate, windowed.tail_q * 100.0,
                windowed.tail * 1e3);
  result.notes.push_back(line);
  const auto by_kind = [&line](const char* kind,
                               const std::vector<double>& latency) {
    std::snprintf(line, sizeof line, "  %-14s p50=%.3fms p99=%.3fms n=%zu",
                  kind, Median(latency) * 1e3,
                  Percentile(latency, 0.99) * 1e3, latency.size());
    return std::string(line);
  };
  result.notes.push_back(by_kind("cache hits", all.hit_latency));
  result.notes.push_back(by_kind("cache misses", all.miss_latency));
  result.notes.push_back(by_kind("session deltas", all.delta_latency));
  result.notes.push_back(by_kind("session solves", all.session_solve_latency));
  std::snprintf(line, sizeof line,
                "generator lag (answer -> next submit) p50=%.3fms "
                "p99=%.3fms max=%.3fms over %zu ops",
                Median(all.lag) * 1e3, Percentile(all.lag, 0.99) * 1e3,
                Percentile(all.lag, 1.0) * 1e3, all.lag.size());
  result.notes.push_back(line);

  if (trace != nullptr) {
    std::vector<double> route_s;
    std::vector<double> graph_s;
    for (const RoutedCircuit& circuit : in.circuits) {
      route_s.push_back(circuit.route_seconds);
      graph_s.push_back(circuit.conflict_graph_seconds);
    }
    const auto routes = static_cast<double>(std::max<std::uint64_t>(
        all.routes, 1));
    result.Set("route.global_s", Mean(route_s));
    result.Set("conflict_graph.build_s", Mean(graph_s));
    result.Set("encode.s", Mean(all.encode_s));
    result.Set("sat.solve_unsat_s", Mean(all.solve_unsat_s));
    result.Set("sat.solve_sat_s", Mean(all.solve_sat_s));
    result.Set("sat.timeouts", static_cast<double>(all.timeouts));
    result.Set("track_check.s", Mean(all.track_check_s));
    result.Set("track_check.failures",
               static_cast<double>(all.track_failures));
    result.Set("service.cache_hit_ratio",
               static_cast<double>(all.hits) / routes);
    result.Set("service.hit_latency_p50_ms", Median(all.hit_latency) * 1e3);
    result.Set("service.miss_latency_p50_ms",
               Median(all.miss_latency) * 1e3);
    result.Set("service.queue_wait_p50_ms", Median(all.queue_wait) * 1e3);
    result.Set("service.queue_wait_p99_ms",
               Percentile(all.queue_wait, 0.99) * 1e3);
    // Per answer, not run totals: a closed loop of fixed length serves
    // more requests when the service gets faster.
    result.Set("service.encode_s", Median(all.encode_s));
    result.Set("service.solve_s", Median(all.solve_s));
    result.Set("service.steals",
               static_cast<double>(after.scheduler.steals -
                                   before.scheduler.steals) /
                   answers);
    result.Set("service.cache_evictions",
               static_cast<double>(
                   after.verdicts.evictions - before.verdicts.evictions +
                   after.instances.evictions - before.instances.evictions) /
                   answers);
    result.Set("session.apply_p50_us", Median(all.apply_s) * 1e6);
    result.Set("session.apply_p99_us", Percentile(all.apply_s, 0.99) * 1e6);
    result.Set("session.solve_p50_ms", Median(all.session_solve_s) * 1e3);
    result.Set("harness.generator_lag_p99_ms",
               Percentile(all.lag, 0.99) * 1e3);
  }
  return result;
}

}  // namespace

WorkloadResult RunServiceShared(const RunConfig& config,
                                TraceWriter* trace) {
  return RunService(config, trace, /*shared=*/true);
}

WorkloadResult RunServiceCold(const RunConfig& config, TraceWriter* trace) {
  return RunService(config, trace, /*shared=*/false);
}

}  // namespace perfbench
