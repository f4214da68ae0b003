/**
 * @file
 * Tests for the deterministic parallel experiment engine: seed
 * derivation, bit-identical results at any --jobs value, the shared
 * trial loop, and the counter-aggregation semantics.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "clos/fat_tree.hpp"
#include "exp/experiment.hpp"
#include "routing/updown.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace rfc {
namespace {

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmup = 100;
    cfg.measure = 400;
    cfg.seed = 5;
    return cfg;
}

TEST(DeriveSeed, NoCollisionsAcrossStreamsAndReps)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {1ULL, 2ULL, 12345ULL}) {
        for (std::uint64_t stream = 0; stream < 40; ++stream)
            for (std::uint64_t rep = 0; rep < 40; ++rep)
                seen.insert(deriveSeed(base, stream, rep));
    }
    EXPECT_EQ(seen.size(), 3u * 40u * 40u);
}

TEST(DeriveSeed, StreamAndRepAreNotInterchangeable)
{
    // The old base + small-prime * rep scheme aliased whenever two
    // entry points incremented the same base; the splitmix chain keys
    // each coordinate separately.
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(1, 3, 2));
    EXPECT_NE(deriveSeed(1, 0, 1), deriveSeed(2, 0, 0));
}

void
expectSameMetric(const MetricStat &a, const MetricStat &b)
{
    // Bitwise equality: determinism, not tolerance, is the contract.
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.ci95, b.ci95);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
}

void
expectSamePoint(const PointResult &a, const PointResult &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.reps, b.reps);
    expectSameMetric(a.accepted, b.accepted);
    expectSameMetric(a.avg_latency, b.avg_latency);
    expectSameMetric(a.p50_latency, b.p50_latency);
    expectSameMetric(a.p99_latency, b.p99_latency);
    expectSameMetric(a.avg_hops, b.avg_hops);
    expectSameMetric(a.delivered_packets, b.delivered_packets);
    expectSameMetric(a.generated_packets, b.generated_packets);
    expectSameMetric(a.suppressed_packets, b.suppressed_packets);
    expectSameMetric(a.unroutable_packets, b.unroutable_packets);
}

TEST(ExperimentEngine, GridIsBitIdenticalAtJobs148)
{
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);

    ExperimentGrid grid;
    grid.addNetwork("cft", fc, oracle);
    grid.addTraffic("uniform");
    grid.addTraffic("random-pairing");
    grid.loads = {0.3, 0.9};
    grid.base = quickConfig();
    grid.repetitions = 3;

    GridResult r1 = ExperimentEngine(1, 5).run(grid);
    GridResult r4 = ExperimentEngine(4, 5).run(grid);
    GridResult r8 = ExperimentEngine(8, 5).run(grid);

    ASSERT_EQ(r1.points.size(), grid.numPoints());
    ASSERT_EQ(r4.points.size(), r1.points.size());
    ASSERT_EQ(r8.points.size(), r1.points.size());
    for (std::size_t i = 0; i < r1.points.size(); ++i) {
        expectSamePoint(r1.points[i], r4.points[i]);
        expectSamePoint(r1.points[i], r8.points[i]);
    }
}

TEST(ExperimentEngine, EmptyGridYieldsNoPoints)
{
    ExperimentEngine engine(4, 1);
    ExperimentGrid grid;  // no networks, traffics or loads
    EXPECT_EQ(engine.run(grid).points.size(), 0u);
    EXPECT_EQ(engine.runPoints({}, 3).size(), 0u);
}

TEST(ExperimentEngine, StudyAndMapAreJobCountInvariant)
{
    auto fn = [](int, std::uint64_t seed) {
        Rng rng(seed);
        return rng.uniformReal();
    };
    auto s1 = ExperimentEngine(1, 9).study(3, 64, fn);
    auto s8 = ExperimentEngine(8, 9).study(3, 64, fn);
    EXPECT_EQ(s1.mean(), s8.mean());
    EXPECT_EQ(s1.stddev(), s8.stddev());
    EXPECT_EQ(s1.min(), s8.min());
    EXPECT_EQ(s1.max(), s8.max());

    auto echo = [](std::size_t, std::uint64_t seed) { return seed; };
    EXPECT_EQ(ExperimentEngine(1, 9).map<std::uint64_t>(7, 100, echo),
              ExperimentEngine(8, 9).map<std::uint64_t>(7, 100, echo));
}

TEST(ExperimentEngine, TrialExceptionReachesTheCaller)
{
    ExperimentEngine engine(4, 1);
    EXPECT_THROW(engine.study(0, 32,
                              [](int, std::uint64_t) -> double {
                                  throw std::runtime_error("trial");
                              }),
                 std::runtime_error);
}

TEST(ExperimentEngine, CountersReportPerTrialMeansNotSums)
{
    // Packet counters aggregate like the rates: a 3-rep point reports
    // the per-trial mean, never the total over its reps.
    auto fc = buildCft(4, 2);
    UpDownOracle oracle(fc);

    ExperimentGrid grid;
    grid.addNetwork("cft", fc, oracle);
    grid.addTraffic("uniform");
    grid.loads = {0.5};
    grid.base = quickConfig();
    ExperimentEngine engine(1, 5);
    auto one = engine.run(grid).points;
    grid.repetitions = 3;
    auto three = engine.run(grid).points;
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(three.size(), 1u);
    const double d1 = one[0].delivered_packets.mean;
    const double d3 = three[0].delivered_packets.mean;
    ASSERT_GT(d1, 0.0);
    EXPECT_LT(d3, 2 * d1);
    EXPECT_GT(d3, d1 / 2);
    // toSimResult rounds the same per-trial means.
    EXPECT_EQ(three[0].toSimResult().delivered_packets, std::llround(d3));
}

TEST(ExperimentEngine, RunTrialsSeedsEveryTrialByPointAndRep)
{
    ExperimentEngine engine(4, 9);
    auto trials = engine.runTrials(3, 2, [](std::size_t p,
                                            std::uint64_t seed) {
        SimResult r;
        r.offered = static_cast<double>(p);
        r.generated_packets = static_cast<long long>(seed % 1000003);
        return r;
    });
    ASSERT_EQ(trials.size(), 6u);
    for (std::size_t t = 0; t < trials.size(); ++t) {
        EXPECT_EQ(trials[t].result.offered, static_cast<double>(t / 2));
        EXPECT_EQ(trials[t].result.generated_packets,
                  static_cast<long long>(deriveSeed(9, t / 2, t % 2) %
                                         1000003));
    }
    EXPECT_THROW(engine.runTrials(1, 0,
                                  [](std::size_t, std::uint64_t) {
                                      return SimResult{};
                                  }),
                 std::invalid_argument);
}

} // namespace
} // namespace rfc
