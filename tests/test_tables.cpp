/**
 * @file
 * Tests for forwarding-table materialization and k-shortest-path
 * routing tables.
 */
#include <gtest/gtest.h>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

TEST(ForwardingTables, AgreeWithOracleOnCft)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    std::vector<int> choices;
    for (int sw = 0; sw < fc.numSwitches(); sw += 3) {
        auto n_up = static_cast<int>(fc.up(sw).size());
        for (int d = 0; d < fc.numLeaves(); d += 5) {
            if (sw == d)
                continue;
            const auto &entry = tables.ports(sw, d);
            int need = oracle.minUps(sw, d);
            ASSERT_GE(need, 0);
            if (need == 0) {
                oracle.downChoices(fc, sw, d, choices);
                ASSERT_EQ(entry.size(), choices.size());
                for (std::size_t i = 0; i < entry.size(); ++i)
                    EXPECT_EQ(entry[i], n_up + choices[i]);
            } else {
                oracle.upChoices(fc, sw, d, choices);
                ASSERT_EQ(entry.size(), choices.size());
            }
        }
    }
}

TEST(ForwardingTables, PopulationMatchesOracleReachability)
{
    Rng rng(3);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    // An entry is populated iff the oracle can reach the destination
    // from that switch.  Leaf rows are always fully populated on a
    // routable RFC; upper-level switches may legitimately miss leaves
    // (a packet never visits a non-ancestor on its down phase).
    long long populated = 0;
    for (int sw = 0; sw < fc.numSwitches(); ++sw) {
        for (int d = 0; d < fc.numLeaves(); ++d) {
            if (sw == d)
                continue;
            bool has = !tables.ports(sw, d).empty();
            EXPECT_EQ(has, oracle.minUps(sw, d) >= 0)
                << "sw=" << sw << " d=" << d;
            populated += has;
            if (sw < fc.numLeaves()) {
                EXPECT_TRUE(has);
            }
        }
    }
    EXPECT_EQ(tables.populatedEntries(), populated);
    EXPECT_GT(tables.totalPorts(), tables.populatedEntries());
    EXPECT_GT(tables.memoryBytes(), 0);
}

TEST(ForwardingTables, FaultedPairsHaveEmptyEntries)
{
    Rng rng(7);
    auto built = buildRfc(8, 2, 12, rng);
    auto fc = built.topology;
    // Disconnect leaf 0 from the network.
    std::vector<int> ups(fc.up(0).begin(), fc.up(0).end());
    for (int p : ups)
        fc.removeLink(0, p);
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    EXPECT_TRUE(tables.ports(1, 0).empty());
}

TEST(ForwardingTables, CftEcmpWidthMatchesStructure)
{
    // In a CFT, a leaf routing to a remote subtree has all R/2 up
    // ports as ECMP choices.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    int far_leaf = fc.numLeaves() - 1;
    EXPECT_EQ(tables.ports(0, far_leaf).size(), 4u);
}

TEST(KspRoutes, TablesCoverConnectedGraph)
{
    Rng rng(9);
    Graph g = randomRegularGraph(24, 4, rng);
    KspRoutes routes(g, 4);
    EXPECT_EQ(routes.connectedPairs(), 24LL * 23);
    EXPECT_GT(routes.maxHops(), 0);
    EXPECT_GT(routes.totalHops(), 0);
}

TEST(KspRoutes, PathsStartAndEndCorrectly)
{
    Rng rng(11);
    Graph g = randomRegularGraph(16, 4, rng);
    KspRoutes routes(g, 3);
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            for (const auto &p : routes.paths(s, d)) {
                ASSERT_GE(p.size(), 2u);
                EXPECT_EQ(p.front(), s);
                EXPECT_EQ(p.back(), d);
                for (std::size_t i = 0; i + 1 < p.size(); ++i)
                    EXPECT_TRUE(g.hasEdge(p[i], p[i + 1]));
            }
        }
    }
}

TEST(KspRoutes, PickPathIsFromTable)
{
    Rng rng(13);
    Graph g = randomRegularGraph(12, 3, rng);
    KspRoutes routes(g, 2);
    for (int trial = 0; trial < 50; ++trial) {
        const Path *p = routes.pickPath(0, 7, rng);
        ASSERT_NE(p, nullptr);
        const auto &slot = routes.paths(0, 7);
        bool found = false;
        for (const auto &q : slot)
            found |= &q == p;
        EXPECT_TRUE(found);
    }
}

TEST(KspRoutes, DisconnectedPairHasNoPath)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    KspRoutes routes(g, 3);
    EXPECT_TRUE(routes.paths(0, 2).empty());
    Rng rng(1);
    EXPECT_EQ(routes.pickPath(0, 2, rng), nullptr);
    EXPECT_LT(routes.connectedPairs(), 12);
}

} // namespace
} // namespace rfc
