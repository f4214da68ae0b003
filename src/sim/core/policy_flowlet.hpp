/**
 * @file
 * Flowlet-switching variant of the KSP ECMP policy for direct
 * (Jellyfish-style) networks: instead of drawing a fresh shortest
 * path for every packet, consecutive packets of one (source terminal,
 * destination terminal) flow reuse a single path until the flow has
 * been idle for SimConfig::flowlet_gap cycles - then the next packet
 * re-draws.  This is the classic flowlet compromise between
 * per-packet ECMP (best load spreading, worst reordering) and
 * per-flow ECMP (no reordering, worst elephant collisions): bursts
 * stay on one path, and only an idle gap - where reordering cannot
 * happen anyway - moves the flow off a congested route.
 *
 * Sharding safety (why per-flow state is legal under the
 * CongestionView contract): flows are keyed by source terminal, and
 * every injection decision for a terminal runs on the shard that owns
 * it - so each shard's policy clone only ever touches flow entries of
 * its own terminals, and the re-draws consume that shard's RNG stream
 * in the shard's deterministic injection order.  Results are
 * bit-identical at any --sim-jobs for a fixed shard count, exactly
 * like the stateless policies.
 *
 * Everything else (hop-escalating VCs, path following, ejection) is
 * identical to KspPolicy.
 */
#ifndef RFC_SIM_CORE_POLICY_FLOWLET_HPP
#define RFC_SIM_CORE_POLICY_FLOWLET_HPP

#include <cstdint>
#include <unordered_map>

#include "graph/graph.hpp"
#include "routing/ksp_tables.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_ksp.hpp"
#include "util/rng.hpp"

namespace rfc {

class FlowletKspPolicy
{
  public:
    using Pkt = KspPolicy::Pkt;

    FlowletKspPolicy(const Graph &g, const KspRoutes &routes,
                     const FabricLayout &lay, const SimConfig &cfg,
                     int hosts_per_switch)
        : base_(g, routes, lay, cfg, hosts_per_switch,
                PathPolicy::kShortestEcmp),
          routes_(&routes), gap_(cfg.flowlet_gap),
          hosts_(hosts_per_switch)
    {
    }

    bool
    routable(long long term, long long dest) const
    {
        return base_.routable(term, dest);
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        // The flowlet clock: remember when this decision is being
        // made for the initPacket that follows a successful return.
        // (injectVc may run and fail on back-to-back cycles; only the
        // last call before initPacket matters, and it shares now.)
        now_ = cv.now();
        return base_.injectVc(cv, term, dest, rng);
    }

    void
    initPacket(Pkt &p, long long term, std::int32_t dest, Rng &rng)
    {
        const int src_sw = static_cast<int>(term / hosts_);
        const int dst_sw = dest / hosts_;
        p.dest_sw = dst_sw;
        p.dest_local = static_cast<std::int16_t>(dest % hosts_);
        p.hop = 0;
        p.cur_out = -1;
        if (src_sw == dst_sw) {
            p.path = nullptr;
            return;
        }
        Flowlet &f = flows_[flowKey(term, dest)];
        if (f.path == nullptr || now_ - f.last_send >= gap_)
            f.path = routes_->pickShortest(src_sw, dst_sw, rng);
        f.last_send = now_;
        p.path = f.path;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc)
    {
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
        return base_.chooseOutVc(cv, o_gid, p, rng);
    }

    long long
    earliestOutFree(const CongestionView &cv, int s, const Pkt &p)
    {
        return base_.earliestOutFree(cv, s, p);
    }

    void onForward(Pkt &p) { base_.onForward(p); }

    double hopsOf(const Pkt &p) const { return base_.hopsOf(p); }

    /** Cached paths point into the routes table: drop them all. */
    void onTopologyChange() { flows_.clear(); }

  private:
    struct Flowlet
    {
        const Path *path = nullptr;
        long long last_send = 0;
    };

    static std::uint64_t
    flowKey(long long term, std::int32_t dest)
    {
        return (static_cast<std::uint64_t>(term) << 32) ^
               static_cast<std::uint32_t>(dest);
    }

    KspPolicy base_;
    const KspRoutes *routes_;
    long long gap_;
    int hosts_;
    long long now_ = 0;
    //! Per-flow state; each shard's clone holds only its terminals.
    std::unordered_map<std::uint64_t, Flowlet> flows_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_FLOWLET_HPP
