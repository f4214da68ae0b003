/**
 * @file
 * Simulator runtime-guard soak and traffic-distribution checks (tier 2).
 *
 * Runs both simulators across a grid of topologies, loads and routing
 * modes, in legacy and in sharded execution (whose guards also audit
 * the wake-wheel schedule), and asserts the CheckContext recorded zero
 * violations.  When
 * the library is built with -DRFC_CHECK_INVARIANTS=ON the context must
 * also prove non-vacuity (checksPerformed() > 0); in a default build
 * the guards compile out and the context stays empty.  The suite also
 * chi-square-tests the synthetic traffic generators for uniformity.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/guard.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/direct.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace rfc {
namespace {

SimConfig
quickConfig(double load, std::uint64_t seed, RouteMode mode)
{
    SimConfig cfg;
    cfg.warmup = 400;
    cfg.measure = 1600;
    cfg.load = load;
    cfg.seed = seed;
    cfg.route_mode = mode;
    return cfg;
}

void
expectCleanContext(const CheckContext &ctx)
{
    EXPECT_EQ(ctx.violations(), 0) << ctx.summary();
    if (invariantChecksEnabled())
        EXPECT_GT(ctx.checksPerformed(), 0);
    else
        EXPECT_EQ(ctx.checksPerformed(), 0);
}

TEST(SimInvariants, ClosSimulatorGridRunsClean)
{
    // 3 topologies x 3 loads x 3 routing modes x 2 execution modes =
    // 54 simulations.
    struct Topo
    {
        FoldedClos fc;
        UpDownOracle oracle;
    };
    std::vector<Topo> topos;
    topos.push_back({buildCft(8, 2), {}});
    {
        Rng rng(7);
        topos.push_back({buildRfc(8, 2, 12, rng).topology, {}});
    }
    {
        Rng rng(8);
        topos.push_back({buildRfc(8, 3, 16, rng).topology, {}});
    }
    for (auto &t : topos)
        t.oracle.build(t.fc);

    std::uint64_t seed = 30;
    for (const auto &t : topos) {
        for (double load : {0.1, 0.6, 1.0}) {
            for (RouteMode mode :
                 {RouteMode::kMinimal, RouteMode::kUpDownRandom,
                  RouteMode::kValiant}) {
                ++seed;
                for (int shards : {0, 2}) {
                    UniformTraffic traffic;
                    SimConfig cfg = quickConfig(load, seed, mode);
                    cfg.shards = shards;
                    Simulator sim(t.fc, t.oracle, traffic, cfg);
                    auto r = sim.run();
                    EXPECT_GT(r.delivered_packets, 0);
                    expectCleanContext(sim.checkContext());
                }
            }
        }
    }
}

TEST(SimInvariants, ClosSimulatorCleanUnderAdversarialTraffic)
{
    Rng rng(9);
    auto built = buildRfc(8, 2, 12, rng);
    UpDownOracle oracle(built.topology);
    int tpl = built.topology.terminalsPerLeaf();
    for (std::uint64_t seed : {60, 61, 62}) {
        ShiftTraffic traffic(tpl);
        Simulator sim(built.topology, oracle, traffic,
                      quickConfig(0.9, seed, RouteMode::kMinimal));
        sim.run();
        expectCleanContext(sim.checkContext());
    }
}

TEST(SimInvariants, DirectSimulatorGridRunsClean)
{
    Rng grng(11);
    Graph g = randomRegularGraph(20, 4, grng);
    KspRoutes routes(g, 4);
    std::uint64_t seed = 80;
    for (double load : {0.1, 0.5, 1.0}) {
        for (PathPolicy policy :
             {PathPolicy::kShortestEcmp, PathPolicy::kAllKsp}) {
            ++seed;
            for (int shards : {0, 2}) {
                UniformTraffic traffic;
                SimConfig cfg =
                    quickConfig(load, seed, RouteMode::kMinimal);
                cfg.vcs = 6;  // >= max ksp hops on this small graph
                cfg.shards = shards;
                DirectSimulator sim(g, routes, 2, traffic, cfg, policy);
                auto r = sim.run();
                EXPECT_GT(r.delivered_packets, 0);
                expectCleanContext(sim.checkContext());
            }
        }
    }
}

TEST(SimInvariants, CleanOnFaultedTopology)
{
    // Unroutable pairs exercise the generation-accounting invariant
    // (generated = queued + injected + suppressed + unroutable).
    Rng rng(13);
    auto built = buildRfc(8, 2, 12, rng);
    FoldedClos fc = built.topology;
    removeRandomLinks(fc, 6, rng);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    Simulator sim(fc, oracle, traffic,
                  quickConfig(0.5, 90, RouteMode::kMinimal));
    auto r = sim.run();
    EXPECT_GT(r.delivered_packets, 0);
    expectCleanContext(sim.checkContext());
}

TEST(SimInvariants, UniformTrafficPassesChiSquare)
{
    // For a fixed source, destinations are uniform over the other
    // nodes: Pearson chi-square against the uniform expectation, with
    // the Wilson-Hilferty critical value at alpha = 1e-3.  Fixed seed,
    // so this never flakes in CI.
    const long long nodes = 64;
    const int draws = 20000;
    UniformTraffic traffic;
    Rng rng(301);
    traffic.init(nodes, rng);
    std::vector<long long> counts(nodes - 1, 0);
    const long long src = 5;
    for (int i = 0; i < draws; ++i) {
        long long d = traffic.dest(src, rng);
        ASSERT_NE(d, src);
        ASSERT_GE(d, 0);
        ASSERT_LT(d, nodes);
        ++counts[d < src ? d : d - 1];
    }
    double stat = chiSquareUniformStat(counts);
    double crit = chiSquareCritical(static_cast<int>(nodes) - 2, 1e-3);
    EXPECT_LT(stat, crit);
}

TEST(SimInvariants, HotspotTrafficIsNotUniform)
{
    // The same chi-square must reject a deliberately skewed generator -
    // otherwise the uniformity test is vacuous.
    const long long nodes = 64;
    const int draws = 20000;
    HotspotTraffic traffic(0.25, 2);
    Rng rng(302);
    traffic.init(nodes, rng);
    std::vector<long long> counts(nodes, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[traffic.dest(1, rng)];
    counts.erase(counts.begin() + 1);  // drop the source cell
    double stat = chiSquareUniformStat(counts);
    double crit = chiSquareCritical(static_cast<int>(nodes) - 2, 1e-3);
    EXPECT_GT(stat, crit);
}

TEST(SimInvariants, PermutationTrafficIsABijection)
{
    const long long nodes = 128;
    PermutationTraffic traffic;
    Rng rng(303);
    traffic.init(nodes, rng);
    std::vector<int> hit(nodes, 0);
    for (long long s = 0; s < nodes; ++s)
        ++hit[traffic.dest(s, rng)];
    for (long long d = 0; d < nodes; ++d)
        EXPECT_EQ(hit[d], 1) << "destination " << d;
}

TEST(SimInvariants, GuardStateMatchesBuildMode)
{
    // Compile-mode sanity: the header-level predicate and the runtime
    // context agree.  In a default build a full simulation must leave
    // the context untouched (the guards are compiled out, not merely
    // quiet).
    Rng rng(17);
    auto built = buildRfc(8, 2, 8, rng);
    UpDownOracle oracle(built.topology);
    UniformTraffic traffic;
    Simulator sim(built.topology, oracle, traffic,
                  quickConfig(0.4, 99, RouteMode::kMinimal));
    sim.run();
    if (invariantChecksEnabled()) {
        EXPECT_GT(sim.checkContext().checksPerformed(), 1000);
    } else {
        EXPECT_EQ(sim.checkContext().checksPerformed(), 0);
        EXPECT_EQ(sim.checkContext().violations(), 0);
    }
}

} // namespace
} // namespace rfc
