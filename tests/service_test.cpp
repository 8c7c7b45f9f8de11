// Functional tests for src/service: the verdict cache and its keys, the
// job scheduler, the routing service end-to-end (verdict equivalence with
// the direct flow, verdict hits, kUnknown never cached), per-client
// sessions, and the service-cache-coherence satlint pass.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pass.h"
#include "analysis/runner.h"
#include "common/rng.h"
#include "flow/detailed_router.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/routing_service.h"
#include "service/scheduler.h"

namespace satfr::service {
namespace {

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

// A 2x4 "ladder" of triangles: chromatic number 3, a few more vertices so
// route times are nonzero but tiny.
graph::Graph TriangleLadder() {
  graph::Graph g(8);
  for (graph::VertexId i = 0; i + 2 < 8; ++i) {
    g.AddEdge(i, i + 1);
    g.AddEdge(i, i + 2);
  }
  return g;
}

// --- fingerprint and keys --------------------------------------------------

TEST(FingerprintGraph, StableAcrossIdenticalGraphs) {
  EXPECT_EQ(FingerprintGraph(Triangle()), FingerprintGraph(Triangle()));
  EXPECT_NE(FingerprintGraph(Triangle()), 0u);
}

TEST(FingerprintGraph, SensitiveToEdgesAndVertexCount) {
  graph::Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  EXPECT_NE(FingerprintGraph(Triangle()), FingerprintGraph(path));

  graph::Graph padded = Triangle();
  padded.AddVertex();  // same edges, one extra isolated vertex
  EXPECT_NE(FingerprintGraph(Triangle()), FingerprintGraph(padded));
}

TEST(CacheKey, HashAndEqualitySeparateEveryField) {
  const CacheKey base{1234, 4, "muldirect", "none", "siege"};
  CacheKey other = base;
  EXPECT_TRUE(base == other);
  EXPECT_EQ(base.Hash(), other.Hash());

  other.width = 5;
  EXPECT_FALSE(base == other);
  EXPECT_NE(base.Hash(), other.Hash());

  other = base;
  other.solver = "minisat";
  EXPECT_FALSE(base == other);
  EXPECT_NE(base.Hash(), other.Hash());

  other = base;
  other.solver.clear();  // an empty preset is a key of its own
  EXPECT_NE(base.Hash(), other.Hash());
}

TEST(CacheKey, ToStringNamesTheInstance) {
  const CacheKey key{0xabc, 7, "muldirect", "s1", "siege"};
  const std::string s = key.ToString();
  EXPECT_NE(s.find("W7"), std::string::npos) << s;
  EXPECT_NE(s.find("muldirect"), std::string::npos) << s;
  EXPECT_NE(s.find("siege"), std::string::npos) << s;
}

// --- sharded LRU -----------------------------------------------------------

CacheKey KeyW(int width) { return CacheKey{99, width, "e", "s", ""}; }

TEST(ShardedLruCache, LookupPromotesAndCountsHits) {
  CacheTierOptions options{/*num_shards=*/1, /*max_entries_per_shard=*/4,
                           /*max_bytes_per_shard=*/1u << 20};
  ShardedLruCache<int> cache(options);
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  cache.Insert(KeyW(1), std::make_shared<const int>(10), 8);
  std::uint64_t hits = 0;
  const auto v = cache.Lookup(KeyW(1), &hits);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 10);
  EXPECT_EQ(hits, 1u);
  cache.Lookup(KeyW(1), &hits);
  EXPECT_EQ(hits, 2u);

  const CacheTierStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedOnEntryBound) {
  CacheTierOptions options{1, /*max_entries_per_shard=*/2, 1u << 20};
  ShardedLruCache<int> cache(options);
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 1);
  cache.Insert(KeyW(2), std::make_shared<const int>(2), 1);
  cache.Lookup(KeyW(1));  // promote 1; 2 becomes the LRU victim
  cache.Insert(KeyW(3), std::make_shared<const int>(3), 1);
  EXPECT_NE(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyW(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyW(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, EvictsOnByteBoundButKeepsOneEntry) {
  CacheTierOptions options{1, /*max_entries_per_shard=*/8,
                           /*max_bytes_per_shard=*/100};
  ShardedLruCache<int> cache(options);
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 60);
  cache.Insert(KeyW(2), std::make_shared<const int>(2), 60);  // 120 > 100
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyW(2)), nullptr);

  // A single oversized entry stays resident: the bound never empties the
  // shard below one entry.
  cache.Insert(KeyW(3), std::make_shared<const int>(3), 500);
  EXPECT_NE(cache.Lookup(KeyW(3)), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardedLruCache, RefreshInPlaceAndErase) {
  ShardedLruCache<int> cache(CacheTierOptions{1, 4, 1u << 20});
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 10);
  cache.Insert(KeyW(1), std::make_shared<const int>(7), 20);
  const auto v = cache.Lookup(KeyW(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(cache.stats().insertions, 1u);  // refresh is not an insert
  EXPECT_EQ(cache.stats().bytes, 20u);

  EXPECT_TRUE(cache.Erase(KeyW(1)));
  EXPECT_FALSE(cache.Erase(KeyW(1)));
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Returns a key that differs from `a` only in fingerprint and width yet has
// the same Hash(). Hash() folds the three strings into h0, then the
// fingerprint and the width FNV-style (h1 = h0*P ^ f, h2 = h1*P ^ w) before
// a bijective avalanche, so equal h2 means equal Hash(); P is odd, hence
// invertible mod 2^64, and the colliding fingerprint has a closed form.
CacheKey CollidingKey(const CacheKey& a, int width) {
  constexpr std::uint64_t kP = 1099511628211ULL;
  std::uint64_t p_inverse = kP;  // Newton: correct bits double per step
  for (int i = 0; i < 6; ++i) p_inverse *= 2 - kP * p_inverse;
  std::uint64_t h0 = StableHash64(a.encoding);
  h0 = h0 * kP ^ StableHash64(a.symmetry);
  h0 = h0 * kP ^ StableHash64(a.solver);
  const std::uint64_t h1_a = h0 * kP ^ a.fingerprint;
  const std::uint64_t h2 = h1_a * kP ^ static_cast<std::uint64_t>(a.width);
  const std::uint64_t h1_b = (h2 ^ static_cast<std::uint64_t>(width)) *
                             p_inverse;
  CacheKey b = a;
  b.fingerprint = h1_b ^ (h0 * kP);
  b.width = width;
  return b;
}

TEST(ShardedLruCache, HashCollisionsAreSeparateEntries) {
  const CacheKey a{1234, 5, "muldirect", "none", "siege"};
  const CacheKey b = CollidingKey(a, 6);
  ASSERT_FALSE(a == b);
  ASSERT_EQ(a.Hash(), b.Hash());

  ShardedLruCache<int> cache(CacheTierOptions{1, 4, 1u << 20});
  cache.Insert(a, std::make_shared<const int>(10), 1);
  cache.Insert(b, std::make_shared<const int>(20), 1);
  const auto va = cache.Lookup(a);
  ASSERT_NE(va, nullptr);
  EXPECT_EQ(*va, 10);  // not b's verdict
  const auto vb = cache.Lookup(b);
  ASSERT_NE(vb, nullptr);
  EXPECT_EQ(*vb, 20);
  EXPECT_EQ(cache.stats().entries, 2u);

  EXPECT_TRUE(cache.Erase(b));
  ASSERT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(*cache.Lookup(a), 10);
  EXPECT_EQ(cache.Lookup(b), nullptr);
}

TEST(ShardedLruCache, SampleIsDeterministicAndBounded) {
  ShardedLruCache<int> cache(CacheTierOptions{4, 16, 1u << 20});
  for (int i = 0; i < 12; ++i) {
    cache.Insert(KeyW(i), std::make_shared<const int>(i), 1);
  }
  const auto a = cache.Sample(5, /*seed=*/7);
  const auto b = cache.Sample(5, /*seed=*/7);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].key == b[i].key);
  }
  EXPECT_EQ(cache.Sample(100, 7).size(), 12u);
}

// --- scheduler -------------------------------------------------------------

TEST(JobScheduler, RunsEveryJobExactlyOnce) {
  SchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    scheduler.Submit([&ran] { ran.fetch_add(1); });
  }
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 64);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.steals, 0u);
}

// Holds one worker each until released; `started` counts the holders.
struct Blocker {
  std::atomic<int>* started;
  std::atomic<bool> release{false};
  void operator()() {
    started->fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  }
};

struct OrderLog {
  std::mutex mutex;
  std::vector<int> order;
  std::function<void()> Record(int tag) {
    return [this, tag] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex);
    return order.size();
  }
};

TEST(JobScheduler, HigherPriorityRunsFirstOnOneWorker) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<int> started{0};
  Blocker blocker{&started};
  scheduler.Submit([&blocker] { blocker(); });
  while (started.load() < 1) std::this_thread::yield();
  OrderLog log;
  scheduler.Submit(log.Record(0), /*priority=*/0);
  scheduler.Submit(log.Record(9), /*priority=*/9);
  scheduler.Submit(log.Record(5), /*priority=*/5);
  blocker.release.store(true);
  scheduler.WaitIdle();
  EXPECT_EQ(log.order, (std::vector<int>{9, 5, 0}));
}

TEST(JobScheduler, PriorityOrdersTheWholePool) {
  // Both workers are held, so all three jobs are queued when one frees
  // up: that worker must take the pool's highest priority, whichever
  // worker the job would have been assigned to by submission order.
  SchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(options);
  std::atomic<int> started{0};
  Blocker first{&started};
  Blocker second{&started};
  scheduler.Submit([&first] { first(); });
  scheduler.Submit([&second] { second(); });
  while (started.load() < 2) std::this_thread::yield();
  OrderLog log;
  scheduler.Submit(log.Record(0), /*priority=*/0);
  scheduler.Submit(log.Record(9), /*priority=*/9);
  scheduler.Submit(log.Record(5), /*priority=*/5);
  first.release.store(true);
  while (log.size() < 1) std::this_thread::yield();
  second.release.store(true);
  scheduler.WaitIdle();
  ASSERT_EQ(log.order.size(), 3u);
  EXPECT_EQ(log.order[0], 9);
}

// --- routing service end-to-end -------------------------------------------

RouteRequest TriangleRequest(const std::shared_ptr<const graph::Graph>& g,
                             int width) {
  RouteRequest request;
  request.label = "triangle";
  request.graph = g;
  request.width = width;
  request.encoding = "muldirect";
  request.symmetry = "none";
  return request;
}

TEST(RoutingService, MatchesDirectFlowOnBothVerdicts) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());

  flow::DetailedRouteOptions direct;
  direct.encoding = encode::GetEncoding("muldirect");
  direct.heuristic = symmetry::Heuristic::kNone;
  const flow::DetailedRouteResult sat3 =
      flow::RouteDetailedOnGraph(*g, 3, direct);
  const flow::DetailedRouteResult unsat2 =
      flow::RouteDetailedOnGraph(*g, 2, direct);
  ASSERT_EQ(sat3.status, sat::SolveResult::kSat);
  ASSERT_EQ(unsat2.status, sat::SolveResult::kUnsat);

  const Response& r3 = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  EXPECT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.status, sat::SolveResult::kSat);
  ASSERT_EQ(r3.tracks.size(), 3u);
  // The tracks must be a proper 3-coloring of the triangle.
  EXPECT_NE(r3.tracks[0], r3.tracks[1]);
  EXPECT_NE(r3.tracks[1], r3.tracks[2]);
  EXPECT_NE(r3.tracks[0], r3.tracks[2]);

  const Response& r2 = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  EXPECT_EQ(r2.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(r2.tracks.empty());
}

TEST(RoutingService, RepeatQueriesHitTheVerdictCache) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());

  const Response& cold = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  ASSERT_EQ(cold.status, sat::SolveResult::kUnsat);
  EXPECT_FALSE(cold.verdict_hit);
  EXPECT_GT(cold.encode_seconds, 0.0);

  const Response& warm = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  EXPECT_TRUE(warm.verdict_hit);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.tracks, cold.tracks);
  EXPECT_EQ(warm.encode_seconds, 0.0);

  const Response& cold_sat = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  ASSERT_EQ(cold_sat.status, sat::SolveResult::kSat);
  EXPECT_FALSE(cold_sat.verdict_hit);
  const Response& warm_sat = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  EXPECT_TRUE(warm_sat.verdict_hit);
  EXPECT_EQ(warm_sat.status, sat::SolveResult::kSat);
  EXPECT_EQ(warm_sat.tracks, cold_sat.tracks);
  EXPECT_TRUE(g->IsProperColoring(warm_sat.tracks));

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.verdicts.hits, 2u);
  EXPECT_EQ(stats.verdicts.entries, 2u);
}

TEST(RoutingService, OtherSolverPresetMissesAndEncodesAgain) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());

  for (const int width : {2, 3}) {
    const Response& siege = svc.Wait(svc.Submit(TriangleRequest(g, width)));
    RouteRequest other = TriangleRequest(g, width);
    other.solver = "minisat";
    const Response& minisat = svc.Wait(svc.Submit(std::move(other)));
    EXPECT_FALSE(minisat.verdict_hit) << "W=" << width;
    EXPECT_GT(minisat.encode_seconds, 0.0) << "W=" << width;
    EXPECT_EQ(minisat.status, siege.status) << "W=" << width;
  }
  EXPECT_EQ(svc.stats().verdicts.hits, 0u);
  EXPECT_EQ(svc.stats().verdicts.entries, 4u);
}

TEST(RoutingService, MalformedRequestsSettleAsErrors) {
  RoutingService svc;
  RouteRequest no_graph;
  no_graph.width = 3;
  const Response& r1 = svc.Wait(svc.Submit(std::move(no_graph)));
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  const auto g = std::make_shared<const graph::Graph>(Triangle());
  RouteRequest bad_sym = TriangleRequest(g, 3);
  bad_sym.symmetry = "not-a-heuristic";
  const Response& r2 = svc.Wait(svc.Submit(std::move(bad_sym)));
  EXPECT_FALSE(r2.ok);

  RouteRequest bad_enc = TriangleRequest(g, 3);
  bad_enc.encoding = "not-an-encoding";
  const Response& r3 = svc.Wait(svc.Submit(std::move(bad_enc)));
  EXPECT_FALSE(r3.ok);
  // Nothing broken was cached.
  EXPECT_EQ(svc.stats().verdicts.entries, 0u);
}

TEST(RoutingService, UnknownVerdictsAreNeverCached) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  RouteRequest request = TriangleRequest(g, 3);
  request.timeout_seconds = 1e-9;  // expire before the solver can finish
  const Response& r = svc.Wait(svc.Submit(std::move(request)));
  if (r.status == sat::SolveResult::kUnknown) {
    EXPECT_EQ(svc.stats().verdicts.insertions, 0u);
    EXPECT_EQ(svc.stats().verdicts.entries, 0u);
  } else {
    // Machine beat a nanosecond budget; the decided answer may be cached.
    EXPECT_EQ(r.status, sat::SolveResult::kSat);
  }
}

TEST(RoutingService, BatchSubmitSettlesEveryTicket) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  std::vector<RouteRequest> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(TriangleRequest(g, i % 2 == 0 ? 3 : 2));
  }
  const std::vector<RoutingService::Ticket> tickets =
      svc.SubmitBatch(std::move(batch));
  ASSERT_EQ(tickets.size(), 12u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response& r = svc.Wait(tickets[i]);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, i % 2 == 0 ? sat::SolveResult::kSat
                                   : sat::SolveResult::kUnsat);
  }
  svc.Drain();
}

// --- cancellation and shutdown -------------------------------------------

// K12 at 11 tracks is the pigeonhole formula PHP(12, 11): without
// symmetry breaking no CDCL search refutes it within any test budget.
RouteRequest HardRequest() {
  graph::Graph clique(12);
  for (graph::VertexId u = 0; u < 12; ++u) {
    for (graph::VertexId v = u + 1; v < 12; ++v) clique.AddEdge(u, v);
  }
  RouteRequest request;
  request.label = "k12";
  request.graph = std::make_shared<const graph::Graph>(std::move(clique));
  request.width = 11;
  request.encoding = "muldirect";
  request.symmetry = "none";
  request.timeout_seconds = 60.0;  // a broken stop path fails, not hangs
  return request;
}

// A route job records its queue wait as soon as it claims its ticket, so
// the histogram's count is the number of route jobs that have started.
void WaitUntilStarted(const obs::MetricsRegistry& metrics,
                      std::uint64_t jobs) {
  for (;;) {
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    const obs::MetricSnapshot* queue = snapshot.Find("service.queue_us");
    if (queue != nullptr && queue->count >= jobs) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(RoutingService, CancelledQueuedRouteNeverSolves) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  options.metrics = &metrics;
  RoutingService svc(options);
  const auto hard = svc.Submit(HardRequest());
  WaitUntilStarted(metrics, 1);
  // The only worker is busy, so this one is still queued.
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  const auto queued = svc.Submit(TriangleRequest(g, 3));
  EXPECT_TRUE(svc.Cancel(queued));
  EXPECT_FALSE(svc.Cancel(queued));  // already settled
  const Response& r = svc.Wait(queued);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, sat::SolveResult::kUnknown);

  svc.Cancel(hard);
  svc.Drain();
  // Only the hard route ever started, and nothing reached the cache.
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.Find("service.queue_us")->count, 1u);
  EXPECT_EQ(svc.stats().verdicts.insertions, 0u);
}

TEST(RoutingService, CancelStopsARunningSolve) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  options.metrics = &metrics;
  RoutingService svc(options);
  const auto ticket = svc.Submit(HardRequest());
  WaitUntilStarted(metrics, 1);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(svc.Cancel(ticket));  // too late to keep it from running
  const Response& r = svc.Wait(ticket);
  EXPECT_LT(SecondsSince(start), 10.0);
  EXPECT_EQ(r.status, sat::SolveResult::kUnknown);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(svc.stats().verdicts.insertions, 0u);
}

TEST(RoutingService, DestructionStopsARunningSolve) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  options.metrics = &metrics;
  auto svc = std::make_unique<RoutingService>(options);
  svc->Submit(HardRequest());
  svc->Submit(HardRequest());  // queued behind the first: dropped
  WaitUntilStarted(metrics, 1);
  const auto start = std::chrono::steady_clock::now();
  svc.reset();
  EXPECT_LT(SecondsSince(start), 10.0);
  EXPECT_EQ(metrics.Snapshot().Find("service.queue_us")->count, 1u);
}

// --- sessions --------------------------------------------------------------

TEST(RoutingService, SessionOpsApplyInOrderAndMatchTheGraph) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  std::string error;
  ASSERT_TRUE(svc.OpenSession("client-a", g, /*max_width=*/3, "muldirect",
                              "none", &error))
      << error;
  EXPECT_TRUE(svc.HasSession("client-a"));
  EXPECT_FALSE(svc.HasSession("client-b"));

  // Rip net 0 out: the remaining edge {1,2} is 2-colorable.
  const auto t1 = svc.SubmitRipUp("client-a", 0);
  const auto t2 = svc.SubmitSessionSolve("client-a", 2);
  // Bring it back against both others: 2 tracks are too few again.
  const auto t3 = svc.SubmitReroute("client-a", 0, {1, 2});
  const auto t4 = svc.SubmitSessionSolve("client-a", 2);
  const auto t5 = svc.SubmitSessionSolve("client-a", 3);

  const Response& rip = svc.Wait(t1);
  EXPECT_TRUE(rip.ok) << rip.error;
  EXPECT_EQ(rip.kind, RequestKind::kSessionRipUp);
  const Response& sat_without = svc.Wait(t2);
  EXPECT_EQ(sat_without.status, sat::SolveResult::kSat);
  ASSERT_EQ(sat_without.tracks.size(), 3u);
  EXPECT_EQ(sat_without.tracks[0], -1);  // inactive net
  const Response& back = svc.Wait(t3);
  EXPECT_TRUE(back.ok) << back.error;
  EXPECT_EQ(svc.Wait(t4).status, sat::SolveResult::kUnsat);
  const Response& full = svc.Wait(t5);
  EXPECT_EQ(full.status, sat::SolveResult::kSat);

  EXPECT_EQ(svc.stats().session_ops, 5u);
  EXPECT_EQ(svc.stats().sessions_open, 1u);
  svc.CloseSession("client-a");
  EXPECT_FALSE(svc.HasSession("client-a"));
}

TEST(RoutingService, SessionOpWithoutSessionSettlesAsError) {
  RoutingService svc;
  const Response& r = svc.Wait(svc.SubmitRipUp("nobody", 0));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nobody"), std::string::npos) << r.error;
}

TEST(RoutingService, SessionSolveWidthZeroUsesMaxWidth) {
  RoutingService svc;
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  std::string error;
  EXPECT_FALSE(svc.OpenSession("c", g, /*max_width=*/3, "muldirect", "none",
                               &error, "bogus"));
  EXPECT_NE(error.find("unknown solver preset"), std::string::npos) << error;
  ASSERT_TRUE(svc.OpenSession("c", g, /*max_width=*/3, "muldirect", "none",
                              &error, "minisat"))
      << error;
  const Response& r = svc.Wait(svc.SubmitSessionSolve("c", 0));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, sat::SolveResult::kSat);
}

// --- coherence sampling and the satlint pass -------------------------------

TEST(RoutingService, SampleCoherenceAgreesWithFreshSolves) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  svc.Wait(svc.Submit(TriangleRequest(g, 2)));

  const std::vector<analysis::CoherenceSample> samples =
      svc.SampleCoherence(8);
  ASSERT_EQ(samples.size(), 2u);
  for (const analysis::CoherenceSample& sample : samples) {
    EXPECT_EQ(sample.cached_verdict, sample.fresh_verdict) << sample.key;
    if (sample.tracks_checked) {
      EXPECT_TRUE(sample.tracks_valid);
    }
  }

  analysis::AnalysisInput input;
  input.coherence_samples = &samples;
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  EXPECT_EQ(report.Count(analysis::Severity::kError), 0u)
      << analysis::FormatText(report);
}

TEST(ServiceCoherencePass, FlagsDisagreementsAndBadTracks) {
  std::vector<analysis::CoherenceSample> samples(3);
  samples[0].key = "g1/W3";
  samples[0].cached_verdict = "SAT";
  samples[0].fresh_verdict = "UNSAT";  // the bug the pass exists for
  samples[1].key = "g1/W4";
  samples[1].cached_verdict = "SAT";
  samples[1].fresh_verdict = "SAT";
  samples[1].tracks_checked = true;
  samples[1].tracks_valid = false;  // cached tracks are not a coloring
  samples[2].key = "g1/W5";
  samples[2].cached_verdict = "UNSAT";
  samples[2].fresh_verdict = "UNKNOWN";  // re-solve timed out: no verdict

  analysis::AnalysisInput input;
  input.coherence_samples = &samples;
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  EXPECT_EQ(report.Count(analysis::Severity::kError), 2u)
      << analysis::FormatText(report);

  bool saw_disagreement = false;
  bool saw_bad_tracks = false;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.pass != "service-cache-coherence") continue;
    saw_disagreement |= d.location == "g1/W3";
    saw_bad_tracks |= d.location == "g1/W4";
  }
  EXPECT_TRUE(saw_disagreement);
  EXPECT_TRUE(saw_bad_tracks);
}

TEST(ServiceCoherencePass, NotApplicableWithoutSamples) {
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(analysis::AnalysisInput{});
  for (const analysis::PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "service-cache-coherence") {
      EXPECT_FALSE(outcome.ran);
    }
  }
}

}  // namespace
}  // namespace satfr::service
