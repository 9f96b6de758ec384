// Single-flight solve dedup: unit tests of SingleFlightGroup's
// leader/follower protocol, plus the engine-level acceptance check that
// N concurrent identical requests trigger exactly one solve.
#include "engine/single_flight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "workloads/synthetic.h"

namespace pipemap {
namespace {

CachedSolution Solved(const std::string& text) {
  CachedSolution value;
  value.mapping_text = text;
  value.solver = "dp";
  value.exact = true;
  return value;
}

TEST(SingleFlightGroupTest, FollowersShareTheLeadersResult) {
  SingleFlightGroup group;
  const auto [flight, is_leader] = group.Join(11);
  ASSERT_TRUE(is_leader);

  constexpr int kFollowers = 4;
  std::vector<std::optional<CachedSolution>> received(kFollowers);
  std::atomic<int> joined_count{0};
  std::vector<std::thread> followers;
  for (int f = 0; f < kFollowers; ++f) {
    followers.emplace_back([&, f] {
      const auto [joined, leads] = group.Join(11);
      EXPECT_FALSE(leads);
      joined_count.fetch_add(1);
      received[static_cast<std::size_t>(f)] = group.Wait(joined, 0.0);
    });
  }
  // Publish only after every follower is on the flight — otherwise a
  // late Join would start a fresh flight and lead it.
  while (joined_count.load() < kFollowers) {
    std::this_thread::yield();
  }
  group.Publish(11, flight, Solved("the answer"));
  for (std::thread& t : followers) t.join();

  for (const auto& result : received) {
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->mapping_text, "the answer");
  }
  const SingleFlightStats stats = group.stats();
  EXPECT_EQ(stats.leaders, 1u);
  EXPECT_EQ(stats.shared, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(stats.failed_leaders, 0u);
}

TEST(SingleFlightGroupTest, FailedLeaderWakesFollowersEmptyHanded) {
  SingleFlightGroup group;
  const auto [flight, is_leader] = group.Join(5);
  ASSERT_TRUE(is_leader);
  std::optional<CachedSolution> received = Solved("stale");
  std::atomic<bool> joined_flag{false};
  std::thread follower([&] {
    const auto [joined, leads] = group.Join(5);
    EXPECT_FALSE(leads);
    joined_flag.store(true);
    received = group.Wait(joined, 0.0);
  });
  while (!joined_flag.load()) {
    std::this_thread::yield();
  }
  group.Publish(5, flight, std::nullopt);  // unclean solve: nothing to share
  follower.join();
  EXPECT_FALSE(received.has_value());  // the follower solves for itself
  const SingleFlightStats stats = group.stats();
  EXPECT_EQ(stats.failed_leaders, 1u);
  EXPECT_EQ(stats.shared, 0u);
}

TEST(SingleFlightGroupTest, BoundedWaitTimesOut) {
  SingleFlightGroup group;
  const auto [flight, is_leader] = group.Join(8);
  ASSERT_TRUE(is_leader);
  const auto [joined, leads] = group.Join(8);
  ASSERT_FALSE(leads);
  // The leader never publishes within the follower's budget.
  EXPECT_FALSE(group.Wait(joined, 1e-3).has_value());
  EXPECT_EQ(group.stats().wait_timeouts, 1u);
  group.Publish(8, flight, std::nullopt);  // clean up the flight
}

TEST(SingleFlightGroupTest, DistinctKeysAreIndependentFlights) {
  SingleFlightGroup group;
  const auto [a, a_leads] = group.Join(1);
  const auto [b, b_leads] = group.Join(2);
  EXPECT_TRUE(a_leads);
  EXPECT_TRUE(b_leads);  // a different fingerprint is a different flight
  EXPECT_NE(a, b);
  group.Publish(1, a, Solved("a"));
  group.Publish(2, b, Solved("b"));
  EXPECT_EQ(group.stats().leaders, 2u);
}

TEST(SingleFlightGroupTest, NextRequestAfterPublishStartsAFreshFlight) {
  SingleFlightGroup group;
  const auto [first, first_leads] = group.Join(3);
  ASSERT_TRUE(first_leads);
  group.Publish(3, first, Solved("x"));
  const auto [second, second_leads] = group.Join(3);
  EXPECT_TRUE(second_leads);  // the finished flight is gone from the map
  EXPECT_NE(first, second);
  group.Publish(3, second, Solved("y"));
}

/// A problem whose DP solve takes long enough that threads released from
/// a barrier reliably pile onto the in-flight leader.
Workload SlowProblem() {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 10;
  spec.machine_procs = 64;
  return workloads::MakeSynthetic(spec, 17);
}

TEST(SingleFlightEngineTest, ConcurrentIdenticalRequestsSolveOnce) {
  const Workload workload = SlowProblem();
  MappingEngine engine;
  constexpr int kThreads = 8;

  std::atomic<int> ready{0};
  std::vector<MapResponse> responses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MapRequest request;
      request.chain = &workload.chain;
      request.machine = workload.machine;
      request.solver = SolverPolicy::kDp;
      request.options.num_threads = 1;
      request.use_cache = true;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // release all threads into Map together
      responses[static_cast<std::size_t>(t)] = engine.Map(request);
    });
  }
  for (std::thread& t : threads) t.join();

  // Every response carries the same bytes.
  const std::string expected = SerializeMapping(responses[0].mapping);
  int shared_count = 0;
  for (const MapResponse& response : responses) {
    EXPECT_EQ(SerializeMapping(response.mapping), expected);
    EXPECT_TRUE(response.exact);
    if (response.shared_solve) {
      ++shared_count;
      EXPECT_FALSE(response.cache_hit);  // shared, not replayed
    }
  }

  // Exactly one engine solve: one leader, one cache insert; every other
  // request was a follower or (if it arrived after publication) a cache
  // hit. The conservation law accounts for all N requests.
  const SingleFlightStats flights = engine.single_flight_stats();
  const SolutionCacheStats cache = engine.cache().stats();
  EXPECT_EQ(flights.leaders, 1u);
  EXPECT_EQ(cache.inserts, 1u);
  EXPECT_EQ(flights.leaders + flights.shared + cache.hits,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(static_cast<std::uint64_t>(shared_count), flights.shared);
  EXPECT_EQ(flights.failed_leaders, 0u);
}

}  // namespace
}  // namespace pipemap
