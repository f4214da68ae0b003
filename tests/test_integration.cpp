/**
 * @file
 * Integration tests: end-to-end pipelines combining topology
 * construction, routing, simulation, expansion and fault injection,
 * checking the qualitative claims of the paper at reduced scale.
 */
#include <gtest/gtest.h>

#include "analysis/resiliency.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/oft.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"

namespace rfc {
namespace {

SimConfig
quickConfig(double load, std::uint64_t seed = 11)
{
    SimConfig cfg;
    cfg.warmup = 800;
    cfg.measure = 2500;
    cfg.load = load;
    cfg.seed = seed;
    return cfg;
}

TEST(Integration, EqualResourcesCftVsRfcUniform)
{
    // The Figure 8 scenario at reduced scale: equal resources (same
    // radix, levels, switch counts).  Under uniform traffic both
    // topologies perform almost identically.
    const int radix = 12, levels = 3;
    auto cft = buildCft(radix, levels);
    Rng rng(1);
    auto built = buildRfc(radix, levels, cft.numLeaves(), rng);
    ASSERT_TRUE(built.routable);
    ASSERT_EQ(built.topology.numTerminals(), cft.numTerminals());
    ASSERT_EQ(built.topology.numWires(), cft.numWires());

    UpDownOracle o_cft(cft), o_rfc(built.topology);
    UniformTraffic t1, t2;
    auto r_cft = Simulator(cft, o_cft, t1, quickConfig(0.5)).run();
    auto r_rfc =
        Simulator(built.topology, o_rfc, t2, quickConfig(0.5)).run();
    EXPECT_NEAR(r_cft.accepted, 0.5, 0.03);
    EXPECT_NEAR(r_rfc.accepted, 0.5, 0.03);
    EXPECT_NEAR(r_cft.avg_latency, r_rfc.avg_latency,
                0.35 * r_cft.avg_latency);
}

TEST(Integration, PairingFavorsCftAtSaturation)
{
    // Figure 8: under random-pairing the rearrangeably non-blocking
    // CFT saturates somewhat above the RFC (paper: RFC ~ 88% of CFT).
    const int radix = 12, levels = 3;
    auto cft = buildCft(radix, levels);
    Rng rng(2);
    auto built = buildRfc(radix, levels, cft.numLeaves(), rng);
    ASSERT_TRUE(built.routable);

    UpDownOracle o_cft(cft), o_rfc(built.topology);
    RandomPairingTraffic t1, t2;
    auto r_cft = Simulator(cft, o_cft, t1, quickConfig(1.0)).run();
    auto r_rfc =
        Simulator(built.topology, o_rfc, t2, quickConfig(1.0)).run();
    EXPECT_GT(r_cft.accepted, 0.5);
    // RFC within [60%, 110%] of CFT - the paper reports 88%.
    double ratio = r_rfc.accepted / r_cft.accepted;
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.1);
}

TEST(Integration, FewerLevelsGiveLowerLatency)
{
    // Figures 9-10: a 3-level RFC beats a 4-level CFT on latency
    // (paper: ~15-20%) while matching throughput at moderate load.
    // Like the paper's radix-20 RFC vs radix-36 CFT comparison, the
    // RFC connects the same terminals with fewer levels (here it needs
    // a larger radix; in the 100K scenario the radix is equal).
    auto cft = buildCft(8, 4);             // 512 terminals
    Rng rng(3);
    int n1 = cft.numTerminals() / 8;       // R=16 -> 8 terminals/leaf
    auto built = buildRfc(16, 3, n1, rng);
    ASSERT_TRUE(built.routable);
    ASSERT_EQ(built.topology.numTerminals(), cft.numTerminals());

    UpDownOracle o_cft(cft), o_rfc(built.topology);
    UniformTraffic t1, t2;
    auto r_cft = Simulator(cft, o_cft, t1, quickConfig(0.4)).run();
    auto r_rfc =
        Simulator(built.topology, o_rfc, t2, quickConfig(0.4)).run();
    EXPECT_NEAR(r_cft.accepted, 0.4, 0.03);
    EXPECT_NEAR(r_rfc.accepted, 0.4, 0.03);
    EXPECT_LT(r_rfc.avg_latency, r_cft.avg_latency);
    EXPECT_LT(r_rfc.avg_hops, r_cft.avg_hops);
}

TEST(Integration, ExpansionThenSimulate)
{
    // Strong expansion keeps the network usable: expand an RFC by
    // several steps and verify traffic still flows at the same load.
    Rng rng(4);
    auto built = buildRfc(8, 3, 32, rng);
    ASSERT_TRUE(built.routable);
    auto grown = strongExpand(built.topology, 4, rng);
    UpDownOracle oracle(grown.topology);
    ASSERT_TRUE(oracle.routable());
    UniformTraffic traffic;
    auto r = Simulator(grown.topology, oracle, traffic,
                       quickConfig(0.4)).run();
    EXPECT_NEAR(r.accepted, 0.4, 0.04);
}

TEST(Integration, ThroughputDegradesGracefullyUnderFaults)
{
    // Figure 12 shape: removing links lowers saturation throughput
    // smoothly (small fault counts barely matter).
    const int radix = 12, levels = 3;
    auto cft = buildCft(radix, levels);
    UpDownOracle oracle(cft);
    UniformTraffic t0;
    auto base = Simulator(cft, oracle, t0, quickConfig(1.0)).run();

    Rng rng(5);
    auto faulty = cft;
    removeRandomLinks(faulty, faulty.links().size() / 10, rng);
    UpDownOracle o_f(faulty);
    UniformTraffic t1;
    auto r10 = Simulator(faulty, o_f, t1, quickConfig(1.0)).run();

    removeRandomLinks(faulty, faulty.links().size() / 4, rng);
    UpDownOracle o_ff(faulty);
    UniformTraffic t2;
    auto r35 = Simulator(faulty, o_ff, t2, quickConfig(1.0)).run();

    EXPECT_GT(base.accepted, 0.55);
    // 10% faults cost some throughput but far from all of it.
    EXPECT_GT(r10.accepted, 0.5 * base.accepted);
    // More faults cost more.
    EXPECT_GE(r10.accepted, r35.accepted - 0.02);
}

TEST(Integration, RfcToleratesMoreUpdownFaultsThanCftAtEqualSize)
{
    // Figure 11: at the same radix and size, the RFC preserves up/down
    // routing under more link failures than the CFT.
    const int radix = 12;
    auto cft = buildCft(radix, 3);
    Rng rng(6);
    auto built = buildRfc(radix, 3, cft.numLeaves(), rng, 500);
    ASSERT_TRUE(built.routable);

    auto s_cft = updownToleranceStudy(cft, 6, rng);
    auto s_rfc = updownToleranceStudy(built.topology, 6, rng);
    EXPECT_GT(s_rfc.mean(), s_cft.mean());
}

TEST(Integration, DiameterOfBuiltTopologiesMatchesModel)
{
    // Figure 5 cross-check on real instances.
    auto cft = buildCft(8, 3);
    EXPECT_EQ(diameterExact(cft.toGraph()), 4);

    // For the RFC the 2(l-1) bound applies to leaf pairs (the graph
    // diameter can exceed it on switch-to-switch zigzags).
    Rng rng(7);
    auto built = buildRfc(8, 3, rfcMaxLeaves(8, 3), rng);
    ASSERT_TRUE(built.routable);
    const auto &g2 = built.topology;
    Graph sw = g2.toGraph();
    int max_leaf_dist = 0;
    for (int a = 0; a < g2.numLeaves(); ++a) {
        auto dist = bfsDistances(sw, a);
        for (int b = 0; b < g2.numLeaves(); ++b)
            max_leaf_dist = std::max(max_leaf_dist, dist[b]);
    }
    EXPECT_LE(max_leaf_dist, 4);
}

class SimAcrossTopologiesP
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>>
{};

TEST_P(SimAcrossTopologiesP, AcceptsModerateLoadEverywhere)
{
    auto [kind, radix, levels] = GetParam();
    Rng rng(17);
    FoldedClos fc;
    if (kind == "cft") {
        fc = buildCft(radix, levels);
    } else if (kind == "kary") {
        fc = buildKaryTree(radix / 2, levels);
    } else if (kind == "oft") {
        fc = buildOft(radix / 2 - 1, levels);
    } else {
        int n1 = std::max(radix, rfcMaxLeaves(radix, levels) / 2);
        if (n1 % 2)
            ++n1;
        auto built = buildRfc(radix, levels, n1, rng);
        ASSERT_TRUE(built.routable);
        fc = std::move(built.topology);
    }
    UpDownOracle oracle(fc);
    ASSERT_TRUE(oracle.routable());
    UniformTraffic traffic;
    auto r = Simulator(fc, oracle, traffic, quickConfig(0.3)).run();
    EXPECT_NEAR(r.accepted, 0.3, 0.04)
        << kind << " R=" << radix << " l=" << levels;
    EXPECT_GT(r.avg_latency, 15.0);
    EXPECT_LT(r.avg_latency, 200.0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SimAcrossTopologiesP,
    ::testing::Values(std::tuple{std::string("cft"), 8, 2},
                      std::tuple{std::string("cft"), 8, 4},
                      std::tuple{std::string("cft"), 12, 3},
                      std::tuple{std::string("kary"), 8, 3},
                      std::tuple{std::string("oft"), 8, 2},
                      std::tuple{std::string("oft"), 8, 3},
                      std::tuple{std::string("oft"), 12, 2},
                      std::tuple{std::string("rfc"), 8, 2},
                      std::tuple{std::string("rfc"), 8, 3},
                      std::tuple{std::string("rfc"), 12, 4}));

TEST(Integration, PrunedCftLosesThroughputProportionally)
{
    // Section 5: pruning trades bisection for cost.  Half the roots
    // should land uniform saturation near half the full CFT's.
    auto full = buildCft(8, 3);
    auto half = buildPrunedCft(8, 3, full.switchesAtLevel(3) / 2);
    UpDownOracle o_full(full), o_half(half);
    UniformTraffic t1, t2;
    auto r_full = Simulator(full, o_full, t1, quickConfig(1.0)).run();
    auto r_half = Simulator(half, o_half, t2, quickConfig(1.0)).run();
    EXPECT_LT(r_half.accepted, 0.75 * r_full.accepted);
    EXPECT_GT(r_half.accepted, 0.4 * r_full.accepted);
}

TEST(Integration, HundredPercentRoutedAtThresholdAfterAcceptance)
{
    // End to end: accepted RFCs route every pair; the simulator drops
    // nothing as unroutable.
    Rng rng(8);
    auto built = buildRfc(12, 2, rfcMaxLeaves(12, 2), rng, 500);
    ASSERT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);
    UniformTraffic traffic;
    auto r = Simulator(built.topology, oracle, traffic,
                       quickConfig(0.6)).run();
    EXPECT_EQ(r.unroutable_packets, 0);
    EXPECT_NEAR(r.accepted, 0.6, 0.05);
}

} // namespace
} // namespace rfc
