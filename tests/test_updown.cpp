/**
 * @file
 * Tests for the up/down routing oracle (Section 4.1).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "graph/algorithms.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

TEST(UpDownOracle, BelowSetsOnCft)
{
    auto fc = buildCft(4, 2);  // 4 leaves, 2 roots
    UpDownOracle oracle(fc);
    for (int leaf = 0; leaf < fc.numLeaves(); ++leaf) {
        EXPECT_EQ(oracle.below(leaf).count(), 1u);
        EXPECT_TRUE(oracle.below(leaf).test(leaf));
    }
    for (int r = fc.levelOffset(2); r < fc.numSwitches(); ++r)
        EXPECT_TRUE(oracle.below(r).all());
}

TEST(UpDownOracle, MinUpsSemantics)
{
    auto fc = buildCft(4, 3);
    UpDownOracle oracle(fc);
    // A leaf needs 0 ups for itself.
    EXPECT_EQ(oracle.minUps(0, 0), 0);
    // Leaves in the same 2-level subtree need 1 up.
    EXPECT_EQ(oracle.minUps(0, 1), 1);
    // Leaves in different subtrees need 2 ups.
    EXPECT_EQ(oracle.minUps(0, fc.numLeaves() - 1), 2);
}

TEST(UpDownOracle, LeafDistanceBoundedByDiameter)
{
    Rng rng(3);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);
    for (int a = 0; a < built.topology.numLeaves(); ++a)
        for (int b = 0; b < built.topology.numLeaves(); ++b) {
            int d = oracle.leafDistance(a, b);
            EXPECT_GE(d, a == b ? 0 : 2);
            EXPECT_LE(d, 4);
        }
}

TEST(UpDownOracle, UpDownDistanceAtLeastBfsDistance)
{
    // Up/down routes are a restricted path class: never shorter than
    // the unconstrained shortest path.
    Rng rng(17);
    auto built = buildRfc(8, 3, 50, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    Graph g = fc.toGraph();
    UpDownOracle oracle(fc);
    for (int a = 0; a < fc.numLeaves(); a += 3) {
        auto dist = bfsDistances(g, a);
        for (int b = 0; b < fc.numLeaves(); ++b) {
            if (a == b)
                continue;
            EXPECT_GE(oracle.leafDistance(a, b), dist[b]);
        }
    }
}

TEST(UpDownOracle, ChoicesMakeProgress)
{
    Rng rng(23);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    for (int a = 0; a < fc.numLeaves(); a += 5) {
        for (int b = 0; b < fc.numLeaves(); b += 7) {
            if (a == b)
                continue;
            int need = oracle.minUps(a, b);
            ASSERT_GE(need, 1);
            oracle.upChoices(fc, a, b, choices);
            ASSERT_FALSE(choices.empty());
            for (int idx : choices) {
                int p = fc.up(a)[idx];
                EXPECT_EQ(oracle.minUps(p, b), need - 1);
            }
        }
    }
}

TEST(UpDownOracle, DownChoicesLeadToDestination)
{
    auto fc = buildCft(6, 3);
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    int root = fc.levelOffset(3);
    for (int d = 0; d < fc.numLeaves(); d += 4) {
        oracle.downChoices(fc, root, d, choices);
        ASSERT_FALSE(choices.empty());
        for (int idx : choices) {
            int c = fc.down(root)[idx];
            EXPECT_TRUE(oracle.below(c).test(d));
        }
    }
}

TEST(UpDownOracle, RandomNextHopWalksToDestination)
{
    Rng rng(31);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    // Walk random minimal hops; must reach dest in <= 4 hops.
    for (int trial = 0; trial < 100; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        int cur = a, hops = 0;
        while (cur != b) {
            cur = oracle.randomNextHop(fc, cur, b, rng);
            ASSERT_GE(cur, 0);
            ++hops;
            ASSERT_LE(hops, 4);
        }
        if (a != b) {
            EXPECT_EQ(hops, oracle.leafDistance(a, b));
        }
    }
}

TEST(UpDownOracle, RandomWalkNeverGoesDownThenUp)
{
    // Deadlock freedom: the up phase strictly precedes the down phase.
    Rng rng(37);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    for (int trial = 0; trial < 200; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        if (a == b)
            continue;
        int cur = a;
        bool went_down = false;
        while (cur != b) {
            int nxt = oracle.randomNextHop(fc, cur, b, rng);
            ASSERT_GE(nxt, 0);
            bool down_hop = fc.levelOf(nxt) < fc.levelOf(cur);
            if (down_hop)
                went_down = true;
            else
                ASSERT_FALSE(went_down) << "up hop after a down hop";
            cur = nxt;
        }
    }
}

TEST(UpDownOracle, RoutablePairFractionDropsWithFaults)
{
    Rng rng(41);
    auto built = buildRfc(8, 3, 62, rng);
    ASSERT_TRUE(built.routable);
    auto fc = built.topology;
    UpDownOracle before(fc);
    EXPECT_DOUBLE_EQ(before.routablePairFraction(), 1.0);
    // Remove a third of the links; routability degrades but the
    // fraction stays in (0, 1].
    removeRandomLinks(fc, fc.links().size() / 3, rng);
    UpDownOracle after(fc);
    double frac = after.routablePairFraction();
    EXPECT_LE(frac, 1.0);
    EXPECT_GT(frac, 0.1);
}

TEST(UpDownOracle, ReachMonotoneInUps)
{
    Rng rng(43);
    auto fc = buildRfcUnchecked(8, 3, 40, rng);
    UpDownOracle oracle(fc);
    for (int s = 0; s < fc.numSwitches(); s += 3) {
        for (int j = 1; j < fc.levels(); ++j) {
            // reach with j-1 ups is a subset of reach with j ups.
            auto a = oracle.reach(s, j - 1);
            a &= oracle.reach(s, j);
            EXPECT_TRUE(a == oracle.reach(s, j - 1));
        }
    }
}

namespace {

/**
 * Reference model: minimal up/down distance by explicit BFS over
 * (switch, phase) states, where phase 1 means "already went down".
 * Independent of the oracle's bitset recurrences.
 */
int
referenceUpDownDistance(const FoldedClos &fc, int a, int b)
{
    if (a == b)
        return 0;
    const int n = fc.numSwitches();
    std::vector<int> dist(2 * n, -1);
    std::vector<int> queue;
    dist[a] = 0;  // (a, phase 0)
    queue.push_back(a);
    for (std::size_t h = 0; h < queue.size(); ++h) {
        int state = queue[h];
        int s = state % n, phase = state / n;
        int d = dist[state];
        if (phase == 0) {
            for (int p : fc.up(s)) {
                if (dist[p] == -1) {
                    dist[p] = d + 1;
                    queue.push_back(p);
                }
            }
        }
        for (int c : fc.down(s)) {
            int nxt = n + c;
            if (dist[nxt] == -1) {
                dist[nxt] = d + 1;
                queue.push_back(nxt);
            }
        }
    }
    return dist[n + b];
}

} // namespace

class UpDownReferenceP
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(UpDownReferenceP, OracleMatchesPhaseBfsReference)
{
    auto [radix, levels, n1] = GetParam();
    Rng rng(1000ULL + radix * 10 + levels + n1);
    auto fc = buildRfcUnchecked(radix, levels, n1, rng);
    UpDownOracle oracle(fc);
    for (int a = 0; a < fc.numLeaves(); ++a)
        for (int b = 0; b < fc.numLeaves(); ++b)
            EXPECT_EQ(oracle.leafDistance(a, b),
                      referenceUpDownDistance(fc, a, b))
                << "pair " << a << "," << b;
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, UpDownReferenceP,
    ::testing::Values(std::tuple{4, 2, 8}, std::tuple{8, 2, 16},
                      std::tuple{4, 3, 10}, std::tuple{8, 3, 24},
                      std::tuple{6, 4, 12}, std::tuple{4, 4, 16},
                      std::tuple{12, 3, 36}));

TEST(UpDownOracle, FeasibleUpChoicesSupersetOfMinimal)
{
    Rng rng(53);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> minimal, feasible;
    for (int a = 0; a < fc.numLeaves(); a += 3) {
        for (int b = 0; b < fc.numLeaves(); b += 5) {
            if (a == b)
                continue;
            oracle.upChoices(fc, a, b, minimal);
            oracle.feasibleUpChoices(fc, a, b, feasible);
            ASSERT_FALSE(feasible.empty());
            for (int idx : minimal)
                EXPECT_NE(std::find(feasible.begin(), feasible.end(),
                                    idx),
                          feasible.end());
            EXPECT_GE(feasible.size(), minimal.size());
        }
    }
}

TEST(UpDownOracle, FeasibleChoicesAlwaysLeadToDestination)
{
    // Walking random *feasible* parents (then minimal down) must reach
    // the destination within 2(l-1) hops - the non-minimal request
    // mode stays deadlock free and bounded.
    Rng rng(59);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    std::vector<int> choices;
    for (int trial = 0; trial < 200; ++trial) {
        int a = static_cast<int>(rng.uniform(fc.numLeaves()));
        int b = static_cast<int>(rng.uniform(fc.numLeaves()));
        if (a == b)
            continue;
        int cur = a, hops = 0;
        while (cur != b) {
            ASSERT_LE(++hops, 2 * (fc.levels() - 1));
            if (oracle.minUps(cur, b) == 0) {
                oracle.downChoices(fc, cur, b, choices);
                ASSERT_FALSE(choices.empty());
                cur = fc.down(cur)[rng.pick(choices)];
            } else {
                oracle.feasibleUpChoices(fc, cur, b, choices);
                ASSERT_FALSE(choices.empty());
                cur = fc.up(cur)[rng.pick(choices)];
            }
        }
    }
}

TEST(UpDownOracle, UnroutableDestinationReportsMinusOne)
{
    // Cut every link of one leaf: nothing can reach it.
    Rng rng(47);
    auto built = buildRfc(8, 2, 12, rng);
    auto fc = built.topology;
    std::vector<int> ups(fc.up(0).begin(), fc.up(0).end());
    for (int p : ups)
        fc.removeLink(0, p);
    UpDownOracle oracle(fc);
    EXPECT_EQ(oracle.minUps(1, 0), -1);
    EXPECT_EQ(oracle.leafDistance(1, 0), -1);
    EXPECT_FALSE(oracle.routable());
}

} // namespace
} // namespace rfc
