/**
 * @file
 * Routing policy of the folded Clos simulator: up/down ECMP through a
 * reachability oracle, with optional Valiant randomization (see
 * RouteMode).  Plugged into VctEngine as its compile-time Policy.
 *
 * Draw discipline (kept draw-for-draw compatible with the original
 * simulator so golden baselines reproduce): injection first resolves
 * the Valiant intermediate (if any), then picks the highest-credit VC
 * with a random tie-break; every arbitration re-draws the up/down ECMP
 * choice; the output VC is drawn uniformly among the credited channels
 * of the packet's phase range.  Legacy mode arbitrates a blocked head
 * every cycle.  Sharded mode skips the cycles in which every legal out
 * port of the head is busy (earliestOutFree), where no draw could
 * succeed; the head re-draws in the first cycle one frees.
 */
#ifndef RFC_SIM_CORE_POLICY_UPDOWN_HPP
#define RFC_SIM_CORE_POLICY_UPDOWN_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/layout.hpp"
#include "util/rng.hpp"

namespace rfc {

class UpDownPolicy
{
  public:
    struct Pkt
    {
        // gen, noroute, wl_src and wl_tag are engine-owned: see the
        // "Engine-owned Pkt fields" convention atop sim/core/engine.hpp.
        std::int32_t gen;
        std::uint8_t noroute;
        std::int32_t wl_src;
        std::uint32_t wl_tag;
        // Policy routing state.
        std::int32_t dest_leaf;
        std::int16_t dest_local;
        std::int16_t hops;
        std::int32_t inter_leaf;  //!< Valiant intermediate (-1 = none)
        std::int8_t phase;        //!< 0 = toward intermediate, 1 = final
    };

    UpDownPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
                 const FabricLayout &lay, const SimConfig &cfg)
        : fc_(&fc), oracle_(&oracle), lay_(&lay),
          mode_(cfg.route_mode), vcs_(cfg.vcs),
          tpl_(fc.terminalsPerLeaf())
    {}

    bool
    routable(long long term, long long dest)
    {
        return needFor(static_cast<int>(term / tpl_),
                       static_cast<int>(dest / tpl_)) >= 0;
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        const std::int8_t *credits = cv.injCredits(term);
        // Valiant set-up: pick a random routable intermediate leaf
        // before choosing the injection VC (the VC range depends on
        // the packet's phase).
        pending_inter_ = -1;
        pending_phase_ = 1;
        if (mode_ == RouteMode::kValiant) {
            int src_leaf = static_cast<int>(term / tpl_);
            int dst_leaf = dest / tpl_;
            if (src_leaf != dst_leaf && fc_->numLeaves() > 2) {
                for (int tries = 0; tries < 16; ++tries) {
                    auto cand = static_cast<std::int32_t>(rng.uniform(
                        static_cast<std::uint64_t>(fc_->numLeaves())));
                    if (cand == src_leaf || cand == dst_leaf)
                        continue;
                    if (needFor(src_leaf, cand) >= 0 &&
                        needFor(cand, dst_leaf) >= 0) {
                        pending_inter_ = cand;
                        pending_phase_ = 0;
                        break;
                    }
                }
            }
        }
        int vc_lo = 0, vc_hi = vcs_;
        if (mode_ == RouteMode::kValiant && pending_phase_ == 0)
            vc_hi = vcs_ / 2;
        else if (mode_ == RouteMode::kValiant)
            vc_lo = vcs_ / 2;

        // "shortest" injection: the VC with most credits; random among
        // ties; skip if all are full.
        int best_vc = -1, best_credit = 0, ties = 0;
        for (int v = vc_lo; v < vc_hi; ++v) {
            int c = credits[v];
            if (c > best_credit) {
                best_credit = c;
                best_vc = v;
                ties = 1;
            } else if (c == best_credit && c > 0) {
                ++ties;
                if (rng.uniform(ties) == 0)
                    best_vc = v;
            }
        }
        return best_vc;
    }

    void
    initPacket(Pkt &p, long long term, std::int32_t dest, Rng &rng)
    {
        (void)term;
        (void)rng;
        p.dest_leaf = dest / tpl_;
        p.dest_local = static_cast<std::int16_t>(dest % tpl_);
        p.hops = 0;
        p.inter_leaf = pending_inter_;
        p.phase = pending_phase_;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc)
    {
        (void)cv;  // oblivious: the choice never reads congestion
        fixed_vc = -1;
        if (p.phase == 0 && s == p.inter_leaf)
            p.phase = 1;  // Valiant intermediate reached: head for dest
        const std::int32_t target =
            p.phase == 0 ? p.inter_leaf : p.dest_leaf;
        if (s == target)
            return lay_->n_up[s] + p.dest_local;  // ejection (phase 1)

        // The choice set depends only on (s, target) and the routing
        // mode, while blocked packets re-draw it every cycle - so it is
        // memoized as a port bitmask.  The draw discipline is untouched:
        // one uniform(count) draw mapping to the k-th choice in the same
        // ascending-port order as the oracle scan.
        const ChoiceEntry &e = entryFor(s, target);
        if (e.need < 0 || e.count == 0)
            return -1;
        if (e.count == kWideFallback)
            return routeOutWide(s, target, e.need, rng);
        int pick = selectBit(e.mask, rng.uniform(e.count));
        return e.need == 0 ? lay_->n_up[s] + pick : pick;
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        if (mode_ != RouteMode::kValiant) {
            lo = 0;
            hi = vcs_;
            return;
        }
        // Phase-partitioned channels keep the two up/down phases'
        // channel dependencies acyclic.
        int half = vcs_ / 2;
        if (p.phase == 0) {
            lo = 0;
            hi = half;
        } else {
            lo = half;
            hi = vcs_;
        }
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        // Random VC among those with credit, within the packet's
        // allowed range.
        int vc_lo, vc_hi;
        vcRange(p, vc_lo, vc_hi);
        int out_vc = -1, seen = 0;
        for (int v = vc_lo; v < vc_hi; ++v) {
            if (cv.credit(o_gid, v) > 0) {
                ++seen;
                if (rng.uniform(seen) == 0)
                    out_vc = v;
            }
        }
        return out_vc;
    }

    long long
    earliestOutFree(const CongestionView &cv, int s, const Pkt &p)
    {
        const long long next = cv.now() + 1;
        // routeOut at s already switched an arrived Valiant packet to
        // phase 1; the test below reads the same target either way.
        const std::int32_t target = p.phase == 0 && s != p.inter_leaf
                                        ? p.inter_leaf
                                        : p.dest_leaf;
        const std::int64_t base = cv.portBase(s);
        if (s == target)
            return std::max(next, cv.outFreeAt(base + lay_->n_up[s] +
                                               p.dest_local));
        const ChoiceEntry &e = entryFor(s, target);
        if (e.need < 0 || e.count == 0 || e.count == kWideFallback)
            return next;
        const std::int64_t off = base + (e.need == 0 ? lay_->n_up[s] : 0);
        long long first = std::numeric_limits<long long>::max();
        for (std::uint64_t m = e.mask; m != 0; m &= m - 1) {
            const long long at = cv.outFreeAt(off + __builtin_ctzll(m));
            if (at <= next)
                return next;
            first = std::min(first, at);
        }
        return first;
    }

    void onForward(Pkt &p) { ++p.hops; }

    double hopsOf(const Pkt &p) const { return p.hops; }

    /**
     * The oracle's tables changed under us (runtime link fail/repair):
     * every memoized choice entry may be stale, so drop the cache and
     * refill lazily from the repaired oracle.
     */
    void onTopologyChange() { memo_.clear(); }

    // ---- adaptive-wrapper hooks ------------------------------------
    // AdaptiveUpDownPolicy (policy_adaptive.hpp) reuses this policy's
    // memoized route machinery; these three accessors are its whole
    // interface into it.

    /**
     * Override the injection-time Valiant decision for the next
     * initPacket: @p inter = intermediate leaf (-1 = route minimal),
     * @p phase = starting phase.  The adaptive wrapper makes the
     * minimal-vs-nonminimal call itself and plants the result here.
     */
    void
    setPendingValiant(std::int32_t inter, std::int8_t phase)
    {
        pending_inter_ = inter;
        pending_phase_ = phase;
    }

    /** Minimal up-hops from switch @p s to leaf @p target (-1 = none). */
    int minUpsTo(int s, int target) { return needFor(s, target); }

    /**
     * First-hop congestion probe: the smallest backlog() over the
     * feasible next-hop out ports from switch @p s toward leaf
     * @p target (the queue a packet would join under the best draw),
     * or -1 when the target is unreachable.  Shard-local: only reads
     * out-port credits of @p s itself.
     */
    int
    bestBacklog(const CongestionView &cv, int s, int target)
    {
        if (s == target)
            return 0;
        const ChoiceEntry &e = entryFor(s, target);
        if (e.need < 0 || e.count == 0)
            return -1;
        const std::int64_t base = cv.portBase(s);
        const std::int64_t off = e.need == 0 ? lay_->n_up[s] : 0;
        int best = -1;
        if (e.count == kWideFallback) {
            fillScratchWide(s, target, e.need);
            for (int p : choice_scratch_) {
                int b = cv.backlog(base + off + p);
                if (best < 0 || b < best)
                    best = b;
            }
            return best;
        }
        for (std::uint64_t m = e.mask; m != 0; m &= m - 1) {
            int b = cv.backlog(base + off + __builtin_ctzll(m));
            if (best < 0 || b < best)
                best = b;
        }
        return best;
    }

  private:
    /**
     * Memoized routing decision for one (switch, target-leaf) pair:
     * the minimal up-hop count plus the feasible choice set packed as a
     * bitmask over local port indices (down ports when need == 0, up
     * ports otherwise; choice k is the k-th set bit, matching the
     * ascending order of the oracle's scan).
     */
    struct ChoiceEntry
    {
        std::int8_t need = kUnfilled;
        std::uint8_t count = 0;
        std::uint64_t mask = 0;
    };

    static constexpr std::int8_t kUnfilled = -3;
    //! count sentinel: > 64 choices, fall back to the oracle scan.
    static constexpr std::uint8_t kWideFallback = 255;

    static int
    selectBit(std::uint64_t mask, std::uint64_t k)
    {
        while (k--)
            mask &= mask - 1;
        return __builtin_ctzll(mask);
    }

    const ChoiceEntry &
    entryFor(int s, int target)
    {
        if (memo_.empty())
            memo_.resize(fc_->numSwitches());
        auto &row = memo_[s];
        if (row.empty())
            row.resize(static_cast<std::size_t>(fc_->numLeaves()));
        ChoiceEntry &e = row[target];
        if (e.need == kUnfilled)
            fillEntry(e, s, target);
        return e;
    }

    int
    needFor(int s, int target)
    {
        if (s == target)
            return 0;
        return entryFor(s, target).need;
    }

    void
    fillEntry(ChoiceEntry &e, int s, int target)
    {
        int need = oracle_->minUps(s, target);
        e.need = static_cast<std::int8_t>(need < 0 ? -1 : need);
        if (need < 0)
            return;
        if (need == 0)
            oracle_->downChoices(*fc_, s, target, choice_scratch_);
        else if (mode_ == RouteMode::kUpDownRandom)
            oracle_->feasibleUpChoices(*fc_, s, target, choice_scratch_);
        else
            oracle_->upChoices(*fc_, s, target, choice_scratch_);
        if (!choice_scratch_.empty() && choice_scratch_.back() >= 64) {
            e.count = kWideFallback;
            return;
        }
        e.count = static_cast<std::uint8_t>(choice_scratch_.size());
        e.mask = 0;
        for (int i : choice_scratch_)
            e.mask |= std::uint64_t{1} << i;
    }

    //! Refill choice_scratch_ for a choice set too wide for the mask.
    void
    fillScratchWide(int s, int target, int need)
    {
        if (need == 0)
            oracle_->downChoices(*fc_, s, target, choice_scratch_);
        else if (mode_ == RouteMode::kUpDownRandom)
            oracle_->feasibleUpChoices(*fc_, s, target, choice_scratch_);
        else
            oracle_->upChoices(*fc_, s, target, choice_scratch_);
    }

    //! Slow path for radices beyond the 64-bit mask (rare).
    int
    routeOutWide(int s, int target, int need, Rng &rng)
    {
        fillScratchWide(s, target, need);
        int pick = choice_scratch_[rng.uniform(choice_scratch_.size())];
        return need == 0 ? lay_->n_up[s] + pick : pick;
    }

    const FoldedClos *fc_;
    const UpDownOracle *oracle_;
    const FabricLayout *lay_;
    RouteMode mode_;
    int vcs_;
    int tpl_;

    // Injection-time Valiant state, valid between injectVc and the
    // following initPacket (per-shard policy copies keep this private
    // to one thread).
    std::int32_t pending_inter_ = -1;
    std::int8_t pending_phase_ = 1;
    std::vector<int> choice_scratch_;

    // Lazily filled per-instance choice cache; rows allocate on first
    // touch, so each shard's policy copy only pays for the switches it
    // owns.
    std::vector<std::vector<ChoiceEntry>> memo_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_UPDOWN_HPP
