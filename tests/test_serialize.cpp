/**
 * @file
 * Tests for topology save/load and DOT export.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "check/invariants.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "clos/serialize.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

void
expectSameTopology(const FoldedClos &a, const FoldedClos &b)
{
    ASSERT_EQ(a.levels(), b.levels());
    ASSERT_EQ(a.numSwitches(), b.numSwitches());
    EXPECT_EQ(a.radix(), b.radix());
    EXPECT_EQ(a.terminalsPerLeaf(), b.terminalsPerLeaf());
    EXPECT_EQ(a.name(), b.name());
    for (int s = 0; s < a.numSwitches(); ++s) {
        std::vector<int> ua(a.up(s).begin(), a.up(s).end());
        std::vector<int> ub(b.up(s).begin(), b.up(s).end());
        std::sort(ua.begin(), ua.end());
        std::sort(ub.begin(), ub.end());
        EXPECT_EQ(ua, ub) << "switch " << s;
    }
}

TEST(Serialize, RoundTripCft)
{
    auto fc = buildCft(8, 3);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
}

TEST(Serialize, RoundTripRfc)
{
    Rng rng(5);
    auto fc = buildRfcUnchecked(12, 3, 40, rng);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
    // A loaded random topology routes identically.
    UpDownOracle a(fc), b(back);
    EXPECT_EQ(a.routable(), b.routable());
}

TEST(Serialize, RoundTripExpandedRfc)
{
    // Expansion changes level sizes and rewires links; the file format
    // must capture the result exactly (checked via the reusable
    // round-trip invariant rather than a field-by-field list).
    Rng rng(6);
    auto fc = buildRfcUnchecked(8, 3, 16, rng);
    auto exp = strongExpand(fc, 2, rng);
    auto r = checkRoundTrip(exp.topology);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(Serialize, RoundTripFaultedRfc)
{
    // Fault injection leaves irregular degrees; serialization must not
    // assume biregularity.
    Rng rng(7);
    auto fc = buildRfcUnchecked(8, 2, 20, rng);
    removeRandomLinks(fc, 9, rng);
    auto r = checkRoundTrip(fc);
    EXPECT_TRUE(r.ok) << r.message;

    // And the loaded copy routes identically to the faulted original.
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    ASSERT_TRUE(sameTopology(fc, back).ok);
    UpDownOracle a(fc), b(back);
    EXPECT_EQ(a.routable(), b.routable());
    EXPECT_DOUBLE_EQ(a.routablePairFraction(), b.routablePairFraction());
}

TEST(Serialize, SameTopologyAgreesWithManualComparison)
{
    auto fc = buildCft(8, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
    EXPECT_TRUE(sameTopology(fc, back).ok);
}

TEST(Serialize, RoundTripOft)
{
    auto fc = buildOft(3, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    expectSameTopology(fc, loadTopology(ss));
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    std::string text = "# header comment\n\n" + ss.str();
    std::stringstream annotated(text);
    expectSameTopology(fc, loadTopology(annotated));
}

TEST(Serialize, RejectsBadVersion)
{
    std::stringstream ss("rfc-topology 99\n");
    EXPECT_THROW(loadTopology(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedInput)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(loadTopology(cut), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeLink)
{
    std::stringstream ss(
        "rfc-topology 1\nname x\nradix 4\nterminals-per-leaf 2\n"
        "levels 2 2 1\nlinks 1\n0 99\nend\n");
    EXPECT_THROW(loadTopology(ss), std::runtime_error);
}

TEST(Serialize, DotOutputContainsAllSwitches)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    writeDot(fc, ss);
    std::string dot = ss.str();
    EXPECT_NE(dot.find("graph"), std::string::npos);
    for (int s = 0; s < fc.numSwitches(); ++s) {
        std::string node = "s";
        node += std::to_string(s);
        node += " [";
        EXPECT_NE(dot.find(node), std::string::npos);
    }
    // One edge line per wire.
    std::size_t count = 0, pos = 0;
    while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
        ++count;
        pos += 4;
    }
    EXPECT_EQ(count, static_cast<std::size_t>(fc.numWires()));
}

} // namespace
} // namespace rfc
