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
 *    initPacket follows a successful injectVc; without the invariant
 *    guards, which may ask at any time, every earliestOutFree follows
 *    a routeOut of the same head at the same switch in the same
 *    cycle),
 *  - earliestOutFree answers a cycle in (now, now + pkt_phits], and
 *    one past now + 1 only while the port routeOut drew stays busy
 *    at least that long,
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
#include <unordered_map>

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
    std::atomic<long long> out_free_calls{0};
    std::atomic<long long> out_free_after_route{0};
    std::atomic<long long> out_free_sleeps{0};  //!< answers > now + 1
    std::atomic<long long> bounds_violations{0};
    std::atomic<long long> nonmonotone_now{0};
    int vcs = 0;
    int buf = 0;
    int pkt_phits = 0;
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
        stats_->pkt_phits = cfg.pkt_phits;
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
        const int o = base_.routeOut(cv, s, p, rng, fixed_vc);
        drawn_[&p] = {cv.now(), s, o};
        return o;
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

    long long
    earliestOutFree(const CongestionView &cv, int s, const Pkt &p)
    {
        ++stats_->out_free_calls;
        observeNow(cv);
        const long long at = base_.earliestOutFree(cv, s, p);
        // Strictly in the future, and never past the slowest port's
        // release: a port is busy for one packet time at most.
        if (at <= cv.now() || at > cv.now() + stats_->pkt_phits)
            ++stats_->bounds_violations;
        // Arbitration asks after this cycle's routeOut of the same head
        // at s (the guards may ask at any time).  A sleep past the next
        // cycle must leave the port routeOut drew - one of the legal
        // ones - busy at least that long.
        auto it = drawn_.find(&p);
        if (it != drawn_.end() && it->second.now == cv.now() &&
            it->second.s == s) {
            ++stats_->out_free_after_route;
            if (it->second.port < 0) {
                ++stats_->bounds_violations;  // unroutable heads poll
            } else if (at > cv.now() + 1) {
                ++stats_->out_free_sleeps;
                if (cv.outFreeAt(cv.portBase(s) + it->second.port) < at)
                    ++stats_->bounds_violations;
            }
        }
        return at;
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

    /** Last routeOut answer for one packet (keyed by its address). */
    struct Drawn
    {
        long long now;
        int s;
        int port;
    };

    UpDownPolicy base_;
    std::shared_ptr<MockStats> stats_;
    std::unordered_map<const Pkt *, Drawn> drawn_;
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
    // Legacy mode polls blocked heads and never asks for a wake cycle.
    EXPECT_EQ(stats->out_free_calls.load(), 0);
}

TEST(PolicyContract, ShardedModeHooksAndBounds)
{
    auto stats = runMock(4, 1);
    expectCleanContract(*stats);
    // At load 0.7 heads find every legal port busy and sleep.
    EXPECT_GT(stats->out_free_calls.load(), 0);
    EXPECT_GT(stats->out_free_sleeps.load(), 0);
    if (!invariantChecksEnabled()) {
        EXPECT_EQ(stats->out_free_after_route.load(),
                  stats->out_free_calls.load());
    }
}

TEST(PolicyContract, ShardedParallelHooksAndBounds)
{
    auto stats = runMock(4, 4);
    expectCleanContract(*stats);
    EXPECT_GT(stats->out_free_sleeps.load(), 0);
}

} // namespace
} // namespace rfc
