// The long-lived routing service (DESIGN.md §15): batched asynchronous
// routing queries over a worker pool, answered through a verdict cache,
// with per-client incremental sessions.
//
// Request path:
//
//   1. Verdict-cache hit (one shard mutex, full-key compare) — answers any
//      repeat of (graph, W, encoding, symmetry, solver preset).
//   2. Miss — flow::RouteDetailedOnGraph streams the encoding into a fresh
//      solver (no CNF is materialized), solves, and a definite verdict is
//      inserted into the cache.
//
// Every solve goes through flow::RouteDetailedOnGraph, so the service
// inherits the flow's telemetry (trace spans, run records, flow.solves)
// and its timeout/stop handling; the scheduler's per-job cancel atomic IS
// the solver stop flag.
//
// Sessions: a client that opens a session gets a resident
// flow::RoutingSession pinned to worker hash(client) % workers. Session
// ops (rip-up / re-route / solve) are FIFO per client — they enter a
// per-session queue drained by a "pump" job submitted with the session's
// affinity, so deltas apply in order on warm state and never migrate
// between workers mid-stream. kUnknown answers (timeout / cancel) are
// never cached.
#ifndef SATFR_SERVICE_ROUTING_SERVICE_H_
#define SATFR_SERVICE_ROUTING_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/pass.h"
#include "common/stopwatch.h"
#include "flow/detailed_router.h"
#include "flow/routing_session.h"
#include "graph/graph.h"
#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/scheduler.h"

namespace satfr::service {

struct ServiceOptions {
  SchedulerOptions scheduler;
  CacheTierOptions verdict_cache{/*num_shards=*/8,
                                 /*max_entries_per_shard=*/256,
                                 /*max_bytes_per_shard=*/8u << 20};
  /// Per-request wall-clock budget (overridable per request); <= 0 means
  /// unlimited.
  double timeout_seconds = 0.0;
  /// Metrics sink; null means obs::GlobalMetrics(). Benchmarks point each
  /// phase at its own registry for clean per-phase histograms.
  obs::MetricsRegistry* metrics = nullptr;
};

struct RouteRequest {
  /// Telemetry label (benchmark name); empty is fine.
  std::string label;
  std::shared_ptr<const graph::Graph> graph;
  int width = 0;
  std::string encoding = "muldirect";
  std::string symmetry = "none";
  std::string solver = "siege";  // "siege" or "minisat"
  int priority = 0;
  double timeout_seconds = -1.0;  // < 0: use ServiceOptions::timeout_seconds
  /// Precomputed FingerprintGraph(*graph); 0 computes it at submit.
  std::uint64_t fingerprint = 0;
};

/// What kind of work a ticket tracks.
enum class RequestKind { kRoute, kSessionRipUp, kSessionReroute, kSessionSolve };

struct Response {
  RequestKind kind = RequestKind::kRoute;
  sat::SolveResult status = sat::SolveResult::kUnknown;
  /// Track assignment; filled on kSat (route: per 2-pin net; session
  /// solve: per net, -1 for inactive nets).
  std::vector<int> tracks;
  /// Submit-to-completion wall time (queueing included).
  double latency_seconds = 0.0;
  double solve_seconds = 0.0;
  double encode_seconds = 0.0;
  /// Session delta ops: emission/apply cost inside the resident solver.
  double apply_seconds = 0.0;
  bool verdict_hit = false;  // answered by the verdict cache
  bool cancelled = false;
  bool ok = true;  // false: malformed request, session or runner error
  std::string error;
};

struct ServiceStats {
  SchedulerStats scheduler;
  CacheTierStats verdicts;
  /// Always empty: the service no longer has an instance tier (encoded-CNF
  /// cache). Kept only because perfbench/src/service_load.cpp reads it.
  CacheTierStats instances;
  std::uint64_t requests = 0;
  std::uint64_t session_ops = 0;
  std::uint64_t sessions_open = 0;
};

class RoutingService {
 public:
  struct Ticket {
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    std::uint64_t id = kInvalid;
    bool valid() const { return id != kInvalid; }
  };

  explicit RoutingService(const ServiceOptions& options = {});
  /// Drains in-flight work (pending jobs are cancelled by the scheduler).
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Enqueues one routing query; never blocks on the solve.
  Ticket Submit(RouteRequest request);
  /// Batch submission: the whole batch is enqueued before any result is
  /// awaited, so N requests share the pool instead of serializing.
  std::vector<Ticket> SubmitBatch(std::vector<RouteRequest> requests);

  /// Blocks until the ticket's work finished (or was cancelled).
  const Response& Wait(Ticket ticket);
  /// Cancels: a queued request never solves; a running one gets its stop
  /// flag (the solver aborts at its next check and reports kUnknown).
  bool Cancel(Ticket ticket);
  /// Blocks until every submitted ticket is settled.
  void Drain();

  // --- sessions -----------------------------------------------------------
  /// Opens (or replaces) `client`'s session: encodes `graph` once at
  /// `max_width` into a resident solver, synchronously on the calling
  /// thread; subsequent ops run on the session's pinned worker. False
  /// (with *error) when session construction failed. `solver` names the
  /// CDCL preset (sat::FindSolverPreset).
  bool OpenSession(const std::string& client,
                   std::shared_ptr<const graph::Graph> graph, int max_width,
                   const std::string& encoding, const std::string& symmetry,
                   std::string* error = nullptr,
                   const std::string& solver = "siege");
  bool HasSession(const std::string& client) const;
  void CloseSession(const std::string& client);

  /// FIFO per client: ops apply in submission order on the resident
  /// session, on the session's pinned worker.
  Ticket SubmitRipUp(const std::string& client, graph::VertexId net);
  Ticket SubmitReroute(const std::string& client, graph::VertexId net,
                       std::vector<graph::VertexId> conflicts);
  /// `width` <= 0 solves at the session's max width.
  Ticket SubmitSessionSolve(const std::string& client, int width);

  // --- introspection ------------------------------------------------------
  ServiceStats stats() const;
  int num_workers() const { return scheduler_.num_workers(); }

  /// Re-solves up to `max_samples` verdict-cache entries fresh (no cache,
  /// same flow) and reports agreement — the input of the
  /// service-cache-coherence satlint pass. Synchronous on the caller.
  std::vector<analysis::CoherenceSample> SampleCoherence(
      std::size_t max_samples, std::uint64_t seed = 1) const;

 private:
  /// A cached verdict plus everything needed to audit it later.
  struct VerdictEntry {
    sat::SolveResult status = sat::SolveResult::kUnknown;
    std::vector<int> tracks;
    double cold_solve_seconds = 0.0;
    double cold_encode_seconds = 0.0;
    std::shared_ptr<const graph::Graph> graph;
  };

  struct SessionOp {
    RequestKind kind = RequestKind::kSessionSolve;
    graph::VertexId net = 0;
    std::vector<graph::VertexId> conflicts;
    int width = 0;
    std::uint64_t ticket = 0;
  };

  struct Session {
    std::unique_ptr<flow::RoutingSession> session;
    std::shared_ptr<const graph::Graph> graph;
    int affinity = 0;
    mc::Mutex mutex;
    std::deque<SessionOp> queue SATFR_GUARDED_BY(mutex);
    bool pump_scheduled SATFR_GUARDED_BY(mutex) = false;
  };

  struct Pending {
    Response response;
    JobScheduler::Handle handle;
    Stopwatch submitted;
    // 0 = in flight, 1 = claimed (a settler is filling the response),
    // 2 = settled (response immutable). The claim CAS makes exactly one
    // party — the executing worker, a pump, or a successful Cancel — the
    // response writer, and Wait only reads at state 2.
    mc::Atomic<int> state{0};
    mc::Atomic<bool> cancel_requested{false};
    bool is_session_op = false;
  };

  obs::MetricsRegistry& metrics() const;
  Ticket NewTicket(RequestKind kind, bool is_session_op);
  Pending* PendingRef(std::uint64_t id) const;
  /// True for exactly one caller per ticket: that caller may write the
  /// response and must follow with PublishSettle.
  bool ClaimSettle(Pending& pending);
  /// Records latency metrics and makes the response visible to Wait.
  void PublishSettle(Pending& pending);
  Ticket SubmitSessionOp(const std::string& client, SessionOp op);
  void PumpSession(const std::shared_ptr<Session>& session);
  void ExecuteRoute(const RouteRequest& request, Pending& pending,
                    const mc::Atomic<bool>& cancel);
  void ExecuteSessionOp(Session& session, const SessionOp& op);

  const ServiceOptions options_;
  ShardedLruCache<VerdictEntry> verdicts_;

  mutable mc::Mutex pending_mutex_;
  // deque: append-only; workers hold Pending* across later submissions.
  std::deque<Pending> pending_ SATFR_GUARDED_BY(pending_mutex_);

  mutable mc::Mutex sessions_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_
      SATFR_GUARDED_BY(sessions_mutex_);

  mc::Atomic<std::uint64_t> stat_requests_{0};
  mc::Atomic<std::uint64_t> stat_session_ops_{0};

  // Resolved once against metrics() (service.* namespace); latencies in µs.
  obs::MetricId id_requests_;
  obs::MetricId id_session_ops_;
  obs::MetricId id_verdict_hits_;
  obs::MetricId id_latency_us_;
  obs::MetricId id_queue_us_;
  obs::MetricId id_solve_us_;
  obs::MetricId id_apply_us_;

  // Last member: workers touch everything above, so the scheduler (and its
  // threads) must be destroyed first.
  JobScheduler scheduler_;
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_ROUTING_SERVICE_H_
