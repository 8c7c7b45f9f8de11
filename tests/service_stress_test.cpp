// Thread-sanitizer stress for the service concurrency surfaces: the
// sharded LRU cache under concurrent lookup/insert/erase with bounds tight
// enough to force constant eviction, tickets under concurrent
// submit/cancel churn, and the service front door under concurrent
// clients. Invariants checked are conservation laws (stats
// balance, exactly-once execution) — the interesting failures here are the
// ones TSan reports, so bodies stay small and hot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/routing_service.h"

namespace satfr::service {
namespace {

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

CacheKey KeyFor(int i) {
  return CacheKey{static_cast<std::uint64_t>(i) * 7919u, i % 5, "e", "s", ""};
}

TEST(ServiceStress, ShardedCacheSurvivesConcurrentChurn) {
  // 2 shards x 4 entries with a byte bound that also bites: every inserter
  // is constantly evicting what another thread is looking up.
  CacheTierOptions options{/*num_shards=*/2, /*max_entries_per_shard=*/4,
                           /*max_bytes_per_shard=*/64};
  ShardedLruCache<int> cache(options);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr int kKeys = 24;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * (t + 1)) % kKeys;
        switch ((i + t) % 4) {
          case 0:
            cache.Insert(KeyFor(k), std::make_shared<const int>(k), 16);
            break;
          case 1:
          case 2: {
            const std::shared_ptr<const int> v = cache.Lookup(KeyFor(k));
            // Eviction must never invalidate a handed-out value.
            if (v != nullptr) {
              EXPECT_EQ(*v, k);
            }
            break;
          }
          case 3:
            cache.Erase(KeyFor(k));
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheTierStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_LE(stats.bytes, 128u);
  EXPECT_LE(stats.hits, stats.lookups);
  EXPECT_LE(stats.evictions, stats.insertions);
}

TEST(ServiceStress, SubmitCancelChurnSettlesEveryTicketOnce) {
  // Submitters race routes and session ops against Cancel on a 3-worker
  // pool and never Wait; Drain alone must leave every ticket settled.
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.scheduler.num_workers = 3;
  options.metrics = &metrics;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  constexpr int kSubmitters = 3;
  constexpr int kTicketsPerSubmitter = 200;
  for (int t = 0; t < kSubmitters; ++t) {
    ASSERT_TRUE(svc.OpenSession("client" + std::to_string(t), g, 3,
                                "muldirect", "none"));
  }

  struct Submitted {
    RoutingService::Ticket ticket;
    bool route = false;
    int width = 0;
    bool cancel_won = false;
  };
  std::vector<std::vector<Submitted>> per_thread(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&svc, &g, &per_thread, t] {
      const std::string client = "client" + std::to_string(t);
      for (int i = 0; i < kTicketsPerSubmitter; ++i) {
        Submitted s;
        s.route = i % 2 == 0;
        s.width = 2 + (i / 2) % 2;
        if (s.route) {
          RouteRequest request;
          request.label = "churn";
          request.graph = g;
          request.width = s.width;
          request.encoding = "muldirect";
          request.symmetry = "none";
          request.priority = i % 3;
          s.ticket = svc.Submit(std::move(request));
        } else {
          s.ticket = svc.SubmitSessionSolve(client, s.width);
        }
        // Every third ticket gets a racing cancel: either it wins and
        // settles the ticket, or the work runs exactly once.
        if (i % 3 == 0) s.cancel_won = svc.Cancel(s.ticket);
        per_thread[static_cast<std::size_t>(t)].push_back(s);
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  svc.Drain();

  // PublishSettle observes each ticket's latency exactly once, so the
  // histogram counts settles; no Wait has run yet.
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kSubmitters) * kTicketsPerSubmitter;
  EXPECT_EQ(metrics.Snapshot().Find("service.latency_us")->count, kTotal);

  std::uint64_t cancel_wins = 0;
  std::uint64_t cancelled = 0;
  for (const std::vector<Submitted>& submitted : per_thread) {
    for (const Submitted& s : submitted) {
      const Response& r = svc.Wait(s.ticket);
      cancel_wins += s.cancel_won;
      cancelled += r.cancelled;
      if (s.cancel_won) {
        EXPECT_TRUE(r.cancelled);
      }
      if (r.cancelled) continue;
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.status, s.width >= 3 ? sat::SolveResult::kSat
                                       : sat::SolveResult::kUnsat);
    }
  }
  EXPECT_GE(cancelled, cancel_wins);
  EXPECT_EQ(metrics.Snapshot().Find("service.latency_us")->count, kTotal);
  const SchedulerStats stats = svc.stats().scheduler;
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServiceStress, ServiceFrontDoorUnderConcurrentClients) {
  // A tiny verdict cache evicts while other clients hit it; the request
  // mix repeats enough for real cache traffic.
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  options.verdict_cache = CacheTierOptions{2, 2, 1u << 20};
  RoutingService svc(options);

  const auto g = std::make_shared<const graph::Graph>(Triangle());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&svc, &g, &failures, t] {
      for (int i = 0; i < 40; ++i) {
        const int width = 2 + ((i + t) % 2);
        RouteRequest request;
        request.label = "stress";
        request.graph = g;
        request.width = width;
        request.encoding = "muldirect";
        request.symmetry = "none";
        const auto ticket = svc.Submit(std::move(request));
        if (i % 5 == 0) svc.Cancel(ticket);
        const Response& r = svc.Wait(ticket);
        if (r.cancelled) continue;
        const sat::SolveResult expected = width >= 3
                                              ? sat::SolveResult::kSat
                                              : sat::SolveResult::kUnsat;
        if (!r.ok || r.status != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  svc.Drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.stats().requests, 120u);
}

}  // namespace
}  // namespace satfr::service
