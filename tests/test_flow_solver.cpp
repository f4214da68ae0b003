/**
 * @file
 * Unit tests for the flow-level throughput engine (src/flow): demand
 * matrices, path providers, and the Garg-Konemann max concurrent flow
 * solver on hand-solvable instances with known optima.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "clos/fat_tree.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "routing/updown.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

/** Recompute link loads from the path-flow certificate and verify
 * capacity feasibility plus per-demand delivery at lambda. */
void
verifyCertificate(const FlowProblem &p, const FlowSolution &s,
                  double tol = 1e-9)
{
    std::vector<double> load(static_cast<std::size_t>(p.numLinks()),
                             0.0);
    for (std::size_t d = 0; d < p.numDemands(); ++d) {
        double delivered = 0.0;
        std::size_t pb = p.pathBegin(d);
        for (std::size_t q = pb; q < pb + p.numPaths(d); ++q) {
            delivered += s.path_flow[q];
            for (std::size_t k = 0; k < p.pathLength(q); ++k)
                load[p.pathLinks(q)[k]] += s.path_flow[q];
        }
        if (p.numPaths(d) > 0) {
            EXPECT_NEAR(delivered, s.throughput * p.weight(d),
                        tol + 1e-9 * s.throughput)
                << "demand " << d;
        }
    }
    for (std::int32_t l = 0; l < p.numLinks(); ++l)
        EXPECT_LE(load[l], p.capacity(l) * (1.0 + tol)) << "link " << l;
}

TEST(FlowProblem, ValidatesInput)
{
    FlowProblem p;
    EXPECT_THROW(p.addLink(0.0), std::invalid_argument);
    EXPECT_THROW(p.addPath({0}), std::logic_error);
    std::int32_t l = p.addLink(1.0);
    p.addDemand(1.0);
    EXPECT_THROW(p.addPath({}), std::invalid_argument);
    EXPECT_THROW(p.addPath({l + 1}), std::out_of_range);
    p.addPath({l});
    EXPECT_EQ(p.numPathsTotal(), 1u);
    EXPECT_EQ(p.numPaths(0), 1u);
    EXPECT_EQ(p.pathLength(0), 1u);
}

TEST(FlowSolver, TwoDemandsSharedLink)
{
    // Two unit demands forced over one unit link: lambda = 1/2.
    FlowProblem p;
    std::int32_t shared = p.addLink(1.0);
    for (int d = 0; d < 2; ++d) {
        p.addDemand(1.0);
        p.addPath({shared});
    }
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 0.5, 1e-9);  // exact from phase 1
    EXPECT_GE(s.dual_bound, s.throughput);
    EXPECT_NEAR(s.utilization[static_cast<std::size_t>(shared)], 1.0,
                1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, StarThreeThroughHub)
{
    // Three demands, each with a private spoke but all crossing one
    // hub link: lambda = 1/3, the hub is the only bottleneck.
    FlowProblem p;
    std::int32_t hub = p.addLink(1.0);
    for (int d = 0; d < 3; ++d) {
        std::int32_t spoke = p.addLink(1.0);
        p.addDemand(1.0);
        p.addPath({spoke, hub});
    }
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(s.utilization[static_cast<std::size_t>(hub)], 1.0, 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, ParallelPathsAddCapacity)
{
    // One unit demand over two disjoint unit links: optimum 2; the
    // approximation must certify at least (1 - eps) of it.
    FlowProblem p;
    std::int32_t a = p.addLink(1.0), b = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({a});
    p.addPath({b});
    SolveOptions opt;
    opt.epsilon = 0.05;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_TRUE(s.converged);
    EXPECT_GE(s.throughput, 2.0 * (1.0 - opt.epsilon) - 1e-9);
    EXPECT_LE(s.throughput, 2.0 + 1e-9);
    EXPECT_LE(s.throughput, s.dual_bound + 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, UnequalWeightsEqualizeProportionally)
{
    // Demands of weight 2 and 1 over one unit link: lambda = 1/3, so
    // the heavy demand gets 2/3 and the light one 1/3.
    FlowProblem p;
    std::int32_t shared = p.addLink(1.0);
    p.addDemand(2.0);
    p.addPath({shared});
    p.addDemand(1.0);
    p.addPath({shared});
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.throughput, 1.0 / 3.0, 1e-9);
    verifyCertificate(p, s);
}

TEST(FlowSolver, UnroutedDemandsAreCountedAndSkipped)
{
    FlowProblem p;
    std::int32_t l = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({l});
    p.addDemand(1.0);  // no candidate paths: unrouted
    auto s = solveMaxConcurrentFlow(p);
    EXPECT_EQ(s.routed_demands, 1u);
    EXPECT_EQ(s.unrouted_demands, 1u);
    EXPECT_NEAR(s.throughput, 1.0, 1e-9);
}

TEST(FlowSolver, CftUniformNearUnity)
{
    // A fat tree is non-blocking: exact uniform demand saturates at
    // lambda = 1.  The approximation certifies >= (1 - eps).
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    auto dm = exactUniformDemand(fc.numTerminals());
    auto p = buildClosFlowProblem(fc, provider, dm);
    SolveOptions opt;
    opt.epsilon = 0.05;
    opt.max_phases = 2000;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_TRUE(s.converged);
    EXPECT_GE(s.throughput, 0.9);
    EXPECT_LE(s.throughput, 1.0 + 1e-6);
    EXPECT_LE(s.throughput, s.dual_bound + 1e-9);
    verifyCertificate(p, s, 1e-6);

    // Injection links cap lambda at 1 / maxInjection exactly.
    EXPECT_LE(s.throughput, 1.0 / dm.maxInjection() + 1e-9);
}

TEST(FlowSolver, EcmpFluidSharedAndParallel)
{
    // Demand A splits evenly over two paths that both start on link s,
    // which it also shares with single-path demand B: s carries all of
    // A (both halves cross it) plus B, while a and b carry half each.
    FlowProblem p;
    std::int32_t s = p.addLink(1.0), a = p.addLink(1.0),
                 b = p.addLink(1.0);
    p.addDemand(1.0);
    p.addPath({s, a});
    p.addPath({s, b});
    p.addDemand(1.0);
    p.addPath({s});
    auto r = ecmpFluid(p);
    EXPECT_NEAR(r.utilization[static_cast<std::size_t>(s)], 2.0, 1e-12);
    EXPECT_NEAR(r.utilization[static_cast<std::size_t>(a)], 0.5, 1e-12);
    EXPECT_NEAR(r.saturation, 0.5, 1e-12);
    EXPECT_NEAR(r.demand_throughput[0], 0.5, 1e-12);
    EXPECT_NEAR(r.demand_throughput[1], 0.5, 1e-12);
    EXPECT_NEAR(r.worst, 0.5, 1e-12);
    EXPECT_NEAR(r.average, 0.5, 1e-12);
}

TEST(FlowSolver, DeterministicAcrossPools)
{
    auto fc = buildCft(6, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    auto dm = makeDemandMatrix("uniform", fc.numTerminals(), 77, 3);

    SolveOptions opt;
    opt.block = 64;  // force several blocks per phase
    auto serial_p = buildClosFlowProblem(fc, provider, dm);
    auto serial_s = solveMaxConcurrentFlow(serial_p, opt);
    auto serial_f = ecmpFluid(serial_p);

    for (int threads : {2, 5}) {
        ThreadPool pool(threads);
        auto par_p = buildClosFlowProblem(fc, provider, dm, &pool);
        ASSERT_EQ(par_p.numPathsTotal(), serial_p.numPathsTotal());
        SolveOptions popt = opt;
        popt.pool = &pool;
        auto par_s = solveMaxConcurrentFlow(par_p, popt);
        EXPECT_EQ(par_s.throughput, serial_s.throughput);
        EXPECT_EQ(par_s.phases, serial_s.phases);
        EXPECT_EQ(par_s.dual_bound, serial_s.dual_bound);
        EXPECT_EQ(par_s.utilization, serial_s.utilization);
        EXPECT_EQ(par_s.path_flow, serial_s.path_flow);
        auto par_f = ecmpFluid(par_p, &pool);
        EXPECT_EQ(par_f.saturation, serial_f.saturation);
        EXPECT_EQ(par_f.utilization, serial_f.utilization);
        EXPECT_EQ(par_f.demand_throughput, serial_f.demand_throughput);
    }
}

TEST(FlowPaths, CftEnumerationIsExact)
{
    // CFT(4,2): two roots, so every cross-leaf pair has exactly two
    // minimal up/down paths, each a valid up-then-down switch walk.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    UpDownEcmpPaths provider(fc, oracle, 8);
    std::vector<Path> ps;
    provider.paths(0, 1, ps);
    ASSERT_EQ(ps.size(), 2u);
    for (const auto &path : ps) {
        ASSERT_EQ(path.size(), 3u);
        EXPECT_EQ(path.front(), 0);
        EXPECT_EQ(path.back(), 1);
        EXPECT_GE(fc.levelOf(path[1]), 2);
    }
    EXPECT_NE(ps[0][1], ps[1][1]);

    provider.paths(2, 2, ps);
    ASSERT_EQ(ps.size(), 1u);  // self pair: trivial path

    // Cap smaller than the ECMP set: deterministic sampled subset.
    UpDownEcmpPaths capped(fc, oracle, 1);
    std::vector<Path> one, again;
    capped.paths(0, 1, one);
    capped.paths(0, 1, again);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one, again);
}

TEST(FlowDemand, SampledUniformIsDoublyStochastic)
{
    auto dm = makeDemandMatrix("uniform", 64, 5, 4);
    EXPECT_EQ(dm.nodes, 64);
    // Union of fixed-point-free permutations: every row and column
    // sums to exactly 1 (no sampling hot spots).
    EXPECT_NEAR(dm.maxInjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.maxEjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.totalWeight(), 64.0, 1e-9);
    for (const auto &d : dm.demands)
        EXPECT_NE(d.src, d.dst);
}

TEST(FlowDemand, ExactUniformAndErrors)
{
    auto dm = exactUniformDemand(5);
    EXPECT_EQ(dm.demands.size(), 20u);
    EXPECT_NEAR(dm.maxInjection(), 1.0, 1e-12);
    EXPECT_NEAR(dm.maxEjection(), 1.0, 1e-12);
    EXPECT_THROW(makeDemandMatrix("no-such-pattern", 8, 1),
                 std::invalid_argument);

    // Duplicate (src, dst) samples merge into one weighted demand.
    UniformTraffic t;
    Rng rng(3);
    auto sampled = demandFromTraffic(t, 4, rng, 32);
    for (std::size_t i = 1; i < sampled.demands.size(); ++i) {
        const auto &a = sampled.demands[i - 1];
        const auto &b = sampled.demands[i];
        EXPECT_TRUE(a.src < b.src || (a.src == b.src && a.dst < b.dst));
    }
}

TEST(FlowCut, BoundRespectedOnCft)
{
    // Split CFT(4,2) leaves in half; the cut bound must dominate both
    // the concurrent optimum and the ECMP saturation.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);
    auto dm = exactUniformDemand(fc.numTerminals());
    DynBitset half(static_cast<std::size_t>(fc.numLeaves()));
    for (int s = 0; s < fc.numLeaves() / 2; ++s)
        half.set(static_cast<std::size_t>(s));
    double bound = cutThroughputBound(fc, oracle, dm, half);
    EXPECT_TRUE(std::isfinite(bound));

    UpDownEcmpPaths provider(fc, oracle, 8);
    auto p = buildClosFlowProblem(fc, provider, dm);
    SolveOptions opt;
    opt.max_phases = 1000;
    auto s = solveMaxConcurrentFlow(p, opt);
    EXPECT_LE(s.throughput, bound + 1e-9);
    EXPECT_LE(ecmpFluid(p).saturation, bound + 1e-9);
}

} // namespace
} // namespace rfc
