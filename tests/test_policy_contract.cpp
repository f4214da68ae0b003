/**
 * @file
 * Contract test for the engine <-> policy CongestionView interface
 * (sim/core/congestion.hpp).
 *
 * A MockPolicy wrapping the oblivious UpDownPolicy instruments every
 * hook the engine is documented to call with a view - injection,
 * route resolution, output-VC selection - and audits what the view
 * exposes at each call:
 *
 *  - the hooks actually fire (counts > 0) and pair up (every
 *    initPacket follows a successful injectVc),
 *  - now() never runs backwards within one policy clone,
 *  - credits stay within [0, bufPackets] and backlog within
 *    [0, vcs * bufPackets] for every port of the deciding switch,
 *  - in legacy mode, credit + peer queue depth never exceeds the
 *    buffer capacity per VC (the credit loop closes over the peer's
 *    input buffer; sharded mode skips this cross-switch read, which
 *    the shard-locality contract forbids).
 *
 * When the library is built with -DRFC_CHECK_INVARIANTS=ON, the
 * engine's own credit-conservation guards run concurrently with these
 * audits; the test requires both to come back clean, tying the view's
 * numbers to the invariant-guard counters.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "check/guard.hpp"
#include "clos/fat_tree.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/engine.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_updown.hpp"
#include "sim/traffic.hpp"

namespace rfc {
namespace {

/** Shared across the per-shard policy clones (atomics: TSAN-safe). */
struct MockStats
{
    std::atomic<long long> inject_calls{0};
    std::atomic<long long> inject_success{0};
    std::atomic<long long> init_calls{0};
    std::atomic<long long> route_calls{0};
    std::atomic<long long> choose_calls{0};
    std::atomic<long long> bounds_violations{0};
    std::atomic<long long> nonmonotone_now{0};
    int vcs = 0;
    int buf = 0;
    bool check_peer = false;  //!< legacy mode only (cross-switch read)
};

class MockPolicy
{
  public:
    using Pkt = UpDownPolicy::Pkt;

    MockPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
               const FabricLayout &lay, const SimConfig &cfg,
               std::shared_ptr<MockStats> stats)
        : base_(fc, oracle, lay, cfg), stats_(std::move(stats))
    {
        stats_->vcs = cfg.vcs;
        stats_->buf = cfg.buf_packets;
    }

    bool routable(long long term, long long dest)
    {
        return base_.routable(term, dest);
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        ++stats_->inject_calls;
        observeNow(cv);
        for (int v = 0; v < stats_->vcs; ++v) {
            const int c = cv.injCredit(term, v);
            if (c < 0 || c > stats_->buf)
                ++stats_->bounds_violations;
        }
        const int vc = base_.injectVc(cv, term, dest, rng);
        if (vc >= 0)
            ++stats_->inject_success;
        return vc;
    }

    void
    initPacket(Pkt &p, long long term, std::int32_t dest, Rng &rng)
    {
        ++stats_->init_calls;
        base_.initPacket(p, term, dest, rng);
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc)
    {
        ++stats_->route_calls;
        observeNow(cv);
        auditSwitch(cv, s);
        return base_.routeOut(cv, s, p, rng, fixed_vc);
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        base_.vcRange(p, lo, hi);
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        ++stats_->choose_calls;
        for (int v = 0; v < stats_->vcs; ++v) {
            const int c = cv.credit(o_gid, v);
            if (c < 0 || c > stats_->buf)
                ++stats_->bounds_violations;
        }
        return base_.chooseOutVc(cv, o_gid, p, rng);
    }

    void onForward(Pkt &p) { base_.onForward(p); }

    double hopsOf(const Pkt &p) const { return base_.hopsOf(p); }

    void onTopologyChange() { base_.onTopologyChange(); }

  private:
    void
    observeNow(const CongestionView &cv)
    {
        if (cv.now() < last_now_)
            ++stats_->nonmonotone_now;
        last_now_ = cv.now();
    }

    /** Audit every network out port of the deciding switch. */
    void
    auditSwitch(const CongestionView &cv, int s)
    {
        const FabricLayout &lay = cv.layout();
        const std::int64_t base = cv.portBase(s);
        const int vcs = stats_->vcs;
        const int buf = stats_->buf;
        for (std::int32_t o = 0; o < lay.n_net[s]; ++o) {
            const std::int64_t gid = base + o;
            int used = 0;
            for (int v = 0; v < vcs; ++v) {
                const int c = cv.credit(gid, v);
                if (c < 0 || c > buf)
                    ++stats_->bounds_violations;
                used += buf - c;
                if (stats_->check_peer) {
                    const std::int64_t peer = lay.out_peer_iport[gid];
                    if (peer >= 0 &&
                        c + cv.queueDepth(peer, v) > buf)
                        ++stats_->bounds_violations;
                }
            }
            // backlog() must agree with the per-VC credit sum and stay
            // within the physical buffer capacity.
            const int b = cv.backlog(gid);
            if (b != used || b < 0 || b > vcs * buf)
                ++stats_->bounds_violations;
        }
    }

    UpDownPolicy base_;
    std::shared_ptr<MockStats> stats_;
    long long last_now_ = -1;  //!< per-clone (clones are per-shard)
};

std::shared_ptr<MockStats>
runMock(int shards, int jobs)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    UniformTraffic traffic;
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 0.7;
    cfg.seed = 31;
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.validate();

    auto stats = std::make_shared<MockStats>();
    stats->check_peer = (shards == 0);
    VctEngine<MockPolicy> engine(
        lay, traffic, cfg, MockPolicy(fc, oracle, lay, cfg, stats));
    SimResult r = engine.run();
    EXPECT_GT(r.delivered_packets, 0);

    // The engine's own conservation guards (active when built with
    // -DRFC_CHECK_INVARIANTS=ON) must agree with what the view showed.
    EXPECT_EQ(engine.checkContext().violations(), 0)
        << engine.checkContext().summary();
    if (invariantChecksEnabled()) {
        EXPECT_GT(engine.checkContext().checksPerformed(), 0);
    }
    return stats;
}

void
expectCleanContract(const MockStats &s)
{
    // All three view hooks fire...
    EXPECT_GT(s.inject_calls.load(), 0);
    EXPECT_GT(s.route_calls.load(), 0);
    EXPECT_GT(s.choose_calls.load(), 0);
    // ...initPacket pairs with successful injections only...
    EXPECT_EQ(s.init_calls.load(), s.inject_success.load());
    EXPECT_LE(s.inject_success.load(), s.inject_calls.load());
    // ...and every view read stayed inside the documented bounds.
    EXPECT_EQ(s.bounds_violations.load(), 0);
    EXPECT_EQ(s.nonmonotone_now.load(), 0);
}

TEST(PolicyContract, LegacyModeHooksAndBounds)
{
    auto stats = runMock(0, 1);
    expectCleanContract(*stats);
}

TEST(PolicyContract, ShardedModeHooksAndBounds)
{
    auto stats = runMock(4, 1);
    expectCleanContract(*stats);
}

TEST(PolicyContract, ShardedParallelHooksAndBounds)
{
    auto stats = runMock(4, 4);
    expectCleanContract(*stats);
}

} // namespace
} // namespace rfc
