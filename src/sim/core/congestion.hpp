/**
 * @file
 * CongestionView: the read-only congestion contract between VctEngine
 * and its routing policies.
 *
 * The engine used to hand policies bare credit pointers at two fixed
 * call sites, which made any congestion-aware decision structurally
 * impossible: a policy could see the one credit row it was given and
 * nothing else.  This view replaces those pointers with a uniform,
 * lightweight window over the engine's hot state - per-output-port
 * credits, per-input-VC queue depths (VC occupancy) and link busy
 * times - passed at every policy decision point (injection, route
 * resolution, output-VC selection, the wake cycle of a head blocked
 * on busy out ports).  It is a handful of raw pointers into the
 * engine's SoA arrays, built on the stack per call; policies that
 * ignore it pay nothing.
 *
 * Shard-locality contract: in sharded execution a policy runs on the
 * shard owning the deciding switch/terminal, concurrently with other
 * shards mutating *their* state.  A policy may therefore only read
 *
 *  - out-port credits, busy times and input-VC depths of ports owned
 *    by switches of the calling shard (in particular: the switch the
 *    decision is being made at - its out-port credits are the
 *    backpressure signal from the downstream buffers, maintained
 *    exclusively by the owning shard), and
 *  - injection credits of terminals owned by the calling shard.
 *
 * Reading a *peer switch's* input queues would race with the shard
 * that owns them; the downstream congestion of a link is instead
 * visible locally as consumed credits (backlog() below).  Legacy mode
 * (shards == 0) is single-threaded, so every read is safe there - but
 * policies written to the shard-local rule are correct in both modes.
 * The rule is documented, not runtime-enforced: enforcing it would put
 * an ownership check on the hottest paths of the engine.
 */
#ifndef RFC_SIM_CORE_CONGESTION_HPP
#define RFC_SIM_CORE_CONGESTION_HPP

#include <cstdint>

#include "sim/core/layout.hpp"

namespace rfc {

class CongestionView
{
  public:
    CongestionView(const FabricLayout &lay, int vcs, int buf_packets,
                   const std::int16_t *out_credits,
                   const std::int8_t *inj_credits,
                   const std::uint8_t *q_count,
                   const std::int64_t *out_busy,
                   const std::int64_t *in_busy, long long now)
        : lay_(&lay), vcs_(vcs), buf_(buf_packets),
          out_credits_(out_credits), inj_credits_(inj_credits),
          q_count_(q_count), out_busy_(out_busy), in_busy_(in_busy),
          now_(now)
    {
    }

    /** Current simulation cycle of the deciding call. */
    long long now() const { return now_; }

    int vcs() const { return vcs_; }

    /** Buffer depth per VC in packets (credit cap of one channel). */
    int bufPackets() const { return buf_; }

    /** Port-gid base of switch @p s (gid = portBase(s) + local port). */
    std::int64_t
    portBase(int s) const
    {
        return lay_->iport_off[s];
    }

    // ---- output side: downstream backpressure ----------------------

    /** Credits left on out port @p out_gid, channel @p vc. */
    int
    credit(std::int64_t out_gid, int vc) const
    {
        return out_credits_[out_gid * vcs_ + vc];
    }

    /** Free downstream slots over all VCs of out port @p out_gid. */
    int
    freeSlots(std::int64_t out_gid) const
    {
        int sum = 0;
        for (int v = 0; v < vcs_; ++v)
            sum += out_credits_[out_gid * vcs_ + v];
        return sum;
    }

    /**
     * Occupied downstream slots of out port @p out_gid: credits
     * consumed across all VCs, i.e. packets buffered at (or in flight
     * toward) the peer input port.  The local backpressure signal
     * adaptive policies steer by; 0 on an idle link, vcs*bufPackets on
     * a fully backed-up one.
     */
    int
    backlog(std::int64_t out_gid) const
    {
        return vcs_ * buf_ - freeSlots(out_gid);
    }

    /** Is out port @p out_gid still transmitting at now()? */
    bool
    outBusy(std::int64_t out_gid) const
    {
        return out_busy_[out_gid] > now_;
    }

    /**
     * Busy-until cycle of out port @p out_gid: the port is free at
     * every cycle >= outFreeAt() until the next forward through it.
     */
    long long
    outFreeAt(std::int64_t out_gid) const
    {
        return out_busy_[out_gid];
    }

    // ---- input side: local VC occupancy ----------------------------

    /** Packets queued on input port @p iport (gid), channel @p vc. */
    int
    queueDepth(std::int64_t iport, int vc) const
    {
        return q_count_[iport * vcs_ + vc];
    }

    /** Packets queued on input port @p iport across all VCs. */
    int
    portDepth(std::int64_t iport) const
    {
        int sum = 0;
        for (int v = 0; v < vcs_; ++v)
            sum += q_count_[iport * vcs_ + v];
        return sum;
    }

    /** Is input port @p iport's crossbar still busy at now()? */
    bool
    inBusy(std::int64_t iport) const
    {
        return in_busy_[iport] > now_;
    }

    // ---- terminal side: injection credits --------------------------

    /** Injection credits of terminal @p term on channel @p vc. */
    int
    injCredit(long long term, int vc) const
    {
        return inj_credits_[term * vcs_ + vc];
    }

    /** The terminal's whole per-VC injection credit row. */
    const std::int8_t *
    injCredits(long long term) const
    {
        return inj_credits_ + term * vcs_;
    }

    const FabricLayout &layout() const { return *lay_; }

  private:
    const FabricLayout *lay_;
    int vcs_;
    int buf_;
    const std::int16_t *out_credits_;
    const std::int8_t *inj_credits_;
    const std::uint8_t *q_count_;
    const std::int64_t *out_busy_;
    const std::int64_t *in_busy_;
    long long now_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_CONGESTION_HPP
