/**
 * @file
 * Structural tests for the orthogonal fat-tree builders.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "clos/oft.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

class Oft2P : public ::testing::TestWithParam<int>
{};

TEST_P(Oft2P, CountsAndRegularity)
{
    const int q = GetParam();
    auto fc = buildOft(q, 2);
    const int n = q * q + q + 1;
    EXPECT_EQ(fc.switchesAtLevel(1), 2 * n);
    EXPECT_EQ(fc.switchesAtLevel(2), n);
    EXPECT_EQ(fc.radix(), 2 * (q + 1));
    EXPECT_EQ(fc.numTerminals(), oftTerminals(q, 2));
    EXPECT_TRUE(fc.isRadixRegular());
    EXPECT_TRUE(fc.validate());
}

TEST_P(Oft2P, RoutableWithDiameterTwo)
{
    const int q = GetParam();
    auto fc = buildOft(q, 2);
    UpDownOracle oracle(fc);
    EXPECT_TRUE(oracle.routable());
    for (int a = 0; a < fc.numLeaves(); ++a)
        for (int b = 0; b < fc.numLeaves(); ++b)
            if (a != b) {
                EXPECT_EQ(oracle.leafDistance(a, b), 2);
            }
}

TEST_P(Oft2P, MinimalRoutesAreUniqueAcrossCopies)
{
    // Leaves carrying distinct projective points share exactly one root
    // (two points determine one line) - the OFT's defining weakness for
    // fault tolerance (Section 7).
    const int q = GetParam();
    auto fc = buildOft(q, 2);
    const int n = q * q + q + 1;
    for (int a = 0; a < n; ++a) {
        std::set<int> ra(fc.up(a).begin(), fc.up(a).end());
        for (int b = n; b < 2 * n; ++b) {
            if (b - n == a)
                continue;  // same point, q+1 common lines
            int common = 0;
            for (int r : fc.up(b))
                common += ra.count(r);
            EXPECT_EQ(common, 1);
        }
    }
}

TEST_P(Oft2P, SamePointOppositeCopySharesAllRoots)
{
    const int q = GetParam();
    auto fc = buildOft(q, 2);
    const int n = q * q + q + 1;
    for (int a = 0; a < n; ++a) {
        std::set<int> ra(fc.up(a).begin(), fc.up(a).end());
        int common = 0;
        for (int r : fc.up(a + n))
            common += ra.count(r);
        EXPECT_EQ(common, q + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, Oft2P,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9));

class Oft3P : public ::testing::TestWithParam<int>
{};

TEST_P(Oft3P, CountsAndRegularity)
{
    const int q = GetParam();
    auto fc = buildOft(q, 3);
    const long long n = q * q + q + 1;
    EXPECT_EQ(fc.switchesAtLevel(1), 2 * n * n);
    EXPECT_EQ(fc.switchesAtLevel(2), 2 * n * n);
    EXPECT_EQ(fc.switchesAtLevel(3), n * n);
    EXPECT_EQ(fc.numTerminals(), oftTerminals(q, 3));
    EXPECT_TRUE(fc.isRadixRegular());
    EXPECT_TRUE(fc.validate());
}

TEST_P(Oft3P, RoutableWithDiameterFour)
{
    const int q = GetParam();
    auto fc = buildOft(q, 3);
    UpDownOracle oracle(fc);
    EXPECT_TRUE(oracle.routable());
    int maxd = 0;
    // Sample leaf pairs across sides and subtrees.
    const int n1 = fc.numLeaves();
    for (int a = 0; a < n1; a += 7) {
        for (int b = 1; b < n1; b += 11) {
            if (a == b)
                continue;
            int d = oracle.leafDistance(a, b);
            EXPECT_GT(d, 0);
            EXPECT_LE(d, 4);
            maxd = std::max(maxd, d);
        }
    }
    EXPECT_EQ(maxd, 4);
}

TEST_P(Oft3P, CrossSidePairsHaveUniqueMinimalRoute)
{
    // Our 3-level reconstruction preserves the projective uniqueness:
    // generic leaf pairs on opposite sides share exactly one root.
    const int q = GetParam();
    auto fc = buildOft(q, 3);
    const int n = q * q + q + 1;
    auto ancestors2 = [&](int leaf) {
        std::set<int> out;
        for (int l2 : fc.up(leaf))
            for (int r : fc.up(l2))
                out.insert(r);
        return out;
    };
    // Leaf (side 0, subtree t, point p) vs (side 1, subtree u, point r):
    // unique root expected when p != point(u) and r != point(t).
    int checked = 0;
    for (int t = 0; t < n && checked < 60; ++t) {
        for (int u = 0; u < n && checked < 60; u += 3) {
            int p = (u + 1) % n;  // any point != u
            int r = (t + 2) % n;  // any point != t
            if (p == u || r == t)
                continue;
            int a = t * n + p;
            int b = (n + u) * n + r;
            auto sa = ancestors2(a);
            auto sb = ancestors2(b);
            int common = 0;
            for (int x : sb)
                common += sa.count(x);
            EXPECT_EQ(common, 1) << "a=" << a << " b=" << b;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Orders, Oft3P, ::testing::Values(2, 3, 4));

TEST(Oft, TerminalsClosedForm)
{
    EXPECT_EQ(oftTerminals(3, 2), 104);    // 2*4*13
    EXPECT_EQ(oftTerminals(3, 3), 1352);   // 2*4*13^2
    EXPECT_EQ(oftTerminals(7, 2), 912);    // 2*8*57
    EXPECT_EQ(oftTerminals(5, 3), 11532);  // 2*6*31^2
}

TEST(Oft, LargestOrderSelection)
{
    EXPECT_EQ(oftLargestOrder(1352, 3), 3);
    EXPECT_EQ(oftLargestOrder(1351, 3), 2);
    EXPECT_EQ(oftLargestOrder(1000000, 2), oftLargestOrder(1000000, 2));
    EXPECT_GE(oftLargestOrder(912, 2), 7);
}

TEST(Oft, RejectsBadParameters)
{
    EXPECT_THROW(buildOft(6, 2), std::invalid_argument);  // 6 not a pp
    EXPECT_THROW(buildOft(3, 4), std::invalid_argument);  // levels
}

} // namespace
} // namespace rfc
