/**
 * @file
 * The unified cycle-driven virtual cut-through flow-control engine.
 *
 * Everything both simulators share lives here exactly once: per-VC
 * input rings with credit accounting, link/crossbar busy tracking,
 * random arbitration (reservoir sampling, one iteration), open-loop
 * Bernoulli injection with finite source queues, warmup/measurement
 * accounting, the RFC_CHECK_INVARIANTS conservation guards, and the
 * perf-counter layer.  What differs between the folded Clos and the
 * direct (Jellyfish) simulators is expressed as a compile-time
 * routing Policy:
 *
 *   struct Policy {
 *     // Packet payload.  gen (birth cycle) plus the engine-owned
 *     // fields listed below are mandatory; everything else is the
 *     // policy's routing state.
 *     struct Pkt { std::int32_t gen; std::uint8_t noroute;
 *                  std::int32_t wl_src; std::uint32_t wl_tag; ... };
 *     bool routable(long long term, long long dest) const;
 *     // Injection VC for the head-of-queue packet, or -1 to retry
 *     // next cycle.  `cv.injCredits(term)` is the terminal's per-VC
 *     // credit row.  May draw from rng (Valiant intermediate pick,
 *     // credit tie-breaks) and stash state for initPacket.
 *     int injectVc(const CongestionView &cv, long long term,
 *                  std::int32_t dest, Rng &rng);
 *     void initPacket(Pkt &p, long long term, std::int32_t dest,
 *                     Rng &rng);
 *     // Local output port at switch s, or -1 (unroutable).  Sets
 *     // fixed_vc >= 0 when exactly one output VC is legal
 *     // (hop-escalating VCs), or -1 when any VC in vcRange works.
 *     int routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
 *                  int &fixed_vc);
 *     void vcRange(const Pkt &p, int &lo, int &hi) const;
 *     // Output VC among those with credit on out port o_gid
 *     // (cv.credit(o_gid, v)), or -1 (blocked).
 *     int chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
 *                     const Pkt &p, Rng &rng);
 *     // Earliest cycle after cv.now() at which any legal out port of
 *     // head p at switch s is free (cv.outFreeAt), i.e. cv.now() + 1
 *     // when one already is.  Arbitration asks after routeOut(s, p) in
 *     // the same cycle, the invariant guards at any time.  Never draws
 *     // from an RNG and never mutates p.  It may under-estimate
 *     // (cv.now() + 1 is always safe), never over-estimate.
 *     long long earliestOutFree(const CongestionView &cv, int s,
 *                               const Pkt &p);
 *     void onForward(Pkt &p);          // per-hop bookkeeping
 *     double hopsOf(const Pkt &p) const;
 *     // Invalidate routing caches after a cycle hook mutated the
 *     // routing tables (runtime link fail/repair).
 *     void onTopologyChange();
 *   };
 *
 * The CongestionView (sim/core/congestion.hpp) passed at every policy
 * call that takes one is a read-only, shard-local window over credits,
 * queue depths and busy times; its header documents exactly which
 * state a policy may read from which call.  Oblivious policies ignore
 * it; adaptive policies (policy_adaptive.hpp, policy_flowlet.hpp)
 * steer by it.
 *
 * Engine-owned Pkt fields - the one convention every policy's Pkt
 * must carry verbatim (policies reference this block rather than
 * re-documenting it):
 *
 *   std::int32_t gen;      birth cycle, set at injection; latency and
 *                          TTL accounting key off it.
 *   std::uint8_t noroute;  1 while the packet is parked without a
 *                          route (runtime fault); the engine sets and
 *                          clears it around routeOut() == -1.
 *   std::int32_t wl_src;   source terminal, for the closed-loop
 *                          workload's ejection callback.
 *   std::uint32_t wl_tag;  workload message tag riding with the
 *                          packet to the same callback.
 *
 * Policies never read or write these four; they only make room for
 * them.
 *
 * Policies must be copyable: sharded execution clones one instance
 * per shard so that routing scratch buffers never cross threads.
 *
 * Execution modes (see SimConfig::shards):
 *
 *  - Legacy (shards == 0): one RNG, switches processed from a
 *    per-cycle active list in activation order - the draw-for-draw
 *    replica of the original simulators that reproduces the recorded
 *    golden baselines bit-identically.
 *
 *  - Sharded (shards == S >= 1): switches are split into S contiguous
 *    shards, each with its own seed-split RNG, wheels, packet arena
 *    and stats.  A cycle runs in two phases under barriers: phase 1
 *    advances each shard against its own state (releases, generation,
 *    injection, arbitration) and queues cross-shard effects in
 *    per-destination outboxes; phase 2 drains the outboxes in source
 *    shard order.  Results depend on S but never on how many worker
 *    threads advance the shards, so any `jobs` value is bit-identical.
 *    Instead of rescanning every nonempty VC each cycle, sharded mode
 *    schedules each input VC on a wake wheel at the earliest cycle it
 *    could next act - the main single-thread speedup over the legacy
 *    scan.  That cycle is the latest of the head-ready time, the
 *    input-port busy release and, when every legal out port of the
 *    head is busy (found at scan time, or after losing arbitration to
 *    a winner that just took the port), the first cycle one of them
 *    frees (Policy::earliestOutFree), capped at the next cycle-hook
 *    cycle since hooks may rewrite the routing tables.  Skipped cycles
 *    are ones where every draw would have hit a busy port, so the
 *    model is unchanged; the RNG is re-streamed.  A head still polls
 *    at now + 1 when it is parked without a route, when the port it
 *    drew is busy but another legal port is free, or when its port is
 *    free but lacks credit (credits return from the peer shard, with
 *    no local event to wait on).
 */
#ifndef RFC_SIM_CORE_ENGINE_HPP
#define RFC_SIM_CORE_ENGINE_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/guard.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/histogram.hpp"
#include "sim/core/layout.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rfc {

namespace core_detail {

/**
 * Chunked packet arena: indices stay valid and storage never moves,
 * so other shards may dereference packets this shard allocated while
 * it keeps allocating (the chunk-pointer table is pre-reserved and
 * only ever appended to; cross-thread visibility of new chunks is
 * ordered by the phase barriers packets travel through).
 */
template <class Pkt>
class PktArena
{
  public:
    static constexpr int kChunkShift = 12;
    static constexpr std::int32_t kChunkSize = 1 << kChunkShift;
    static constexpr std::size_t kMaxChunks = 1 << 11;  // 8M packets

    PktArena() { chunks_.reserve(kMaxChunks); }

    std::int32_t
    append()
    {
        if (static_cast<std::size_t>(count_ >> kChunkShift) ==
            chunks_.size()) {
            if (chunks_.size() == kMaxChunks)
                throw std::runtime_error("PktArena: packet pool limit");
            chunks_.push_back(std::make_unique<Pkt[]>(kChunkSize));
        }
        return count_++;
    }

    Pkt &
    at(std::int32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    std::int32_t size() const { return count_; }

  private:
    std::vector<std::unique_ptr<Pkt[]>> chunks_;
    std::int32_t count_ = 0;
};

/** Reusable condvar barrier for the per-cycle phase synchronization. */
class CycleBarrier
{
  public:
    explicit CycleBarrier(int parties) : parties_(parties) {}

    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(m_);
        int my_gen = gen_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++gen_;
            cv_.notify_all();
        } else {
            cv_.wait(lock, [&] { return gen_ != my_gen; });
        }
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    int parties_;
    int waiting_ = 0;
    int gen_ = 0;
};

} // namespace core_detail

template <class Policy>
class VctEngine
{
  public:
    using Pkt = typename Policy::Pkt;

    /**
     * Bind the engine to a fabric, a traffic pattern and a routing
     * policy.  @p layout and @p traffic must outlive the engine.
     */
    VctEngine(const FabricLayout &lay, Traffic &traffic, SimConfig cfg,
              Policy policy)
        : lay_(lay), traffic_(traffic), cfg_(cfg), rng_(cfg.seed),
          policy_proto_(std::move(policy))
    {
        cfg_.validate();
        sharded_ = cfg_.shards >= 1;
        buildStructures();
    }

    /** Run warm-up plus measurement and return the metrics. */
    SimResult run();

    /**
     * Install a deterministic cycle hook (the fault-injection entry
     * point).  At the start of every cycle listed in @p cycles the
     * engine invokes @p hook(now) with every worker parked at a
     * barrier, then calls onTopologyChange() on each shard's policy
     * copy - so the hook may mutate the routing tables all policies
     * read.  The hook cycles are part of the experiment definition;
     * results stay bit-identical at any `jobs` value.  Must be called
     * before run().
     */
    void
    setCycleHook(std::vector<long long> cycles,
                 std::function<void(long long)> hook)
    {
        std::sort(cycles.begin(), cycles.end());
        cycles.erase(std::unique(cycles.begin(), cycles.end()),
                     cycles.end());
        if (!cycles.empty() && cycles.front() < 0)
            throw std::invalid_argument(
                "VctEngine: hook cycles must be >= 0");
        hook_cycles_ = std::move(cycles);
        hook_ = std::move(hook);
        hook_idx_ = 0;
    }

    /**
     * Attach a closed-loop workload (see workload/workload.hpp): the
     * engine stops generating open-loop traffic and instead drives
     * @p wl through onWake/onDeliver callbacks on the shard threads
     * owning each terminal (plus barrier-ordered onGlobalStep when the
     * workload wants it).  Every terminal gets an initial onWake at
     * cycle 0.  @p wl must outlive the engine; nullptr detaches.  Must
     * be called before run().  Workload draws come from a dedicated
     * deriveSeed stream, so attaching a workload never perturbs the
     * engine's arbitration draws.
     */
    void
    setWorkload(Workload *wl)
    {
        wl_ = wl;
        wl_global_ = wl != nullptr && wl->wantsGlobalStep();
        if (wl != nullptr) {
            wl_next_.assign(lay_.num_terms, -1);
            src_tag_.assign(static_cast<std::size_t>(lay_.num_terms) *
                                cfg_.source_queue,
                            0);
        }
    }

    /**
     * Raise the active-terminal prefix to min(@p upto, terminal
     * count) at cycle @p now - the expansion activation barrier.  Must
     * be called from cycle-hook context (every worker parked), i.e.
     * from the hook installed with setCycleHook(); it mutates
     * generation state all shards read.  Newly active terminals start
     * generating from a deterministic stagger (no RNG draws, so the
     * pre-existing terminals' streams are untouched).  Never
     * deactivates; excess calls are no-ops.  Incompatible with a
     * closed-loop workload.
     */
    void
    activateTerminals(long long upto, long long now)
    {
        if (wl_ != nullptr)
            throw std::logic_error(
                "VctEngine: terminal activation is open-loop only");
        const long long target = std::min(upto, lay_.num_terms);
        if (target <= active_terms_)
            return;
        for (long long t = active_terms_; t < target; ++t) {
            // Deterministic stagger over one packet time, starting
            // next cycle (the hook runs before this cycle's
            // generation pass; +1 keeps activation effects strictly
            // after the barrier).
            const long long start = now + 1 + (t % cfg_.pkt_phits);
            next_gen_[t] = start;
            ShardCtx &c = shards_[sw_shard_[lay_.term_switch[t]]];
            c.gen_wheel[start % kGenWheel].push_back(
                static_cast<std::int32_t>(t));
        }
        active_terms_ = target;
        traffic_.setActiveTerminals(active_terms_);
    }

    /** Current active-terminal prefix length. */
    long long activeTerminals() const { return active_terms_; }

    /**
     * Packets currently inside the fabric (allocated and not freed),
     * summed over shards.  Safe from cycle-hook context; used to
     * account the traffic a topology-change barrier must preserve.
     */
    long long
    inFlightNow() const
    {
        long long n = 0;
        for (const ShardCtx &c : shards_)
            n += static_cast<long long>(c.arena.size()) -
                 static_cast<long long>(c.free_pkts.size());
        return n;
    }

    /** Guard results (empty unless built with RFC_CHECK_INVARIANTS). */
    const CheckContext &checkContext() const { return check_; }

  private:
    static constexpr bool kGuards = invariantChecksEnabled();
    static constexpr int kGenWheel = 1024;
    static constexpr int kPktShardShift = 23;
    static constexpr std::int32_t kPktIdxMask =
        (std::int32_t{1} << kPktShardShift) - 1;

    struct Release
    {
        std::int32_t feeder;
        std::int8_t vc;
        /** 0 = credit + guard slot, 1 = credit only (arrived from a
         *  peer shard), 2 = guard slot only (local half of a
         *  cross-shard release). */
        std::int8_t kind;
    };

    struct OutRelease
    {
        long long at;
        std::int32_t feeder;
        std::int8_t vc;
    };

    struct OutForward
    {
        std::int32_t pkt;
        std::int64_t dest_ivc;
        std::int32_t ready;
    };

    struct RingSlot
    {
        std::int32_t pkt;
        std::int32_t ready;
    };

    struct ShardCtx
    {
        int id = 0;
        int sw_begin = 0, sw_end = 0;
        long long term_begin = 0, term_end = 0;
        Rng rng{0};
        Policy policy;
        core_detail::PktArena<Pkt> arena;
        std::vector<std::int32_t> free_pkts;

        std::vector<std::vector<Release>> release_wheel;
        std::vector<std::vector<std::int32_t>> gen_wheel, inj_wheel;
        std::vector<std::vector<std::int64_t>> wake_wheel;

        std::vector<std::int64_t> touched_outs;   //!< out gids (sharded)
        std::vector<std::int64_t> scanned_ivcs;
        std::vector<std::int32_t> active_list;    //!< legacy mode only

        std::vector<std::vector<OutRelease>> out_rel;  //!< per dst shard
        std::vector<std::vector<OutForward>> out_fwd;

        // Window statistics, merged in shard order after the run.
        long long delivered = 0, generated = 0, suppressed = 0;
        long long unroutable = 0;
        double lat_sum = 0.0, hop_sum = 0.0;
        long long delivered_phits = 0;
        LatencyHistogram lat_hist;
        PerfCounters perf;

        // Fault-recovery accounting (whole run, always on).
        long long ejected_all = 0, dropped = 0, rerouted = 0;
        long long route_retries = 0;
        std::vector<long long> bins;  //!< delivered per telemetry bin

        CheckContext check;
        long long injected = 0, ejected = 0, queued = 0;
        long long last_progress = 0;

        // Closed-loop workload accounting (merged in shard order) and
        // the end-of-cycle global-step request flag.
        WorkloadStats wl_stats;
        bool wl_signal = false;

        explicit ShardCtx(Policy p) : policy(std::move(p)) {}
    };

    // ---- construction ----------------------------------------------
    void buildStructures();

    // ---- packet pool ------------------------------------------------
    Pkt &
    pkt(std::int32_t id)
    {
        return shards_[id >> kPktShardShift].arena.at(id & kPktIdxMask);
    }

    std::int32_t
    allocPkt(ShardCtx &c)
    {
        if (!c.free_pkts.empty()) {
            std::int32_t id = c.free_pkts.back();
            c.free_pkts.pop_back();
            return id;
        }
        return (c.id << kPktShardShift) | c.arena.append();
    }

    void freePkt(ShardCtx &c, std::int32_t id) { c.free_pkts.push_back(id); }

    // ---- shared per-cycle machinery --------------------------------
    int shardOfSwitch(int s) const { return sw_shard_[s]; }

    /**
     * Materialize the policy-facing congestion window for cycle
     * @p now.  A handful of pointers into the SoA arrays (which never
     * reallocate after buildStructures), so building one per decision
     * site is free; shard-locality of the reads is the policy's
     * contract (see congestion.hpp).
     */
    CongestionView
    view(long long now) const
    {
        return CongestionView(lay_, cfg_.vcs, cfg_.buf_packets,
                              out_credits_.data(), inj_credits_.data(),
                              q_count_.data(), out_busy_.data(),
                              in_busy_.data(), now);
    }

    void
    scheduleRelease(ShardCtx &c, long long at, std::int32_t feeder, int vc)
    {
        if (feeder >= 0 && sharded_) {
            int owner = shardOfSwitch(lay_.port_owner[feeder]);
            if (owner != c.id) {
                c.out_rel[owner].push_back(
                    {at, feeder, static_cast<std::int8_t>(vc)});
                if constexpr (kGuards)
                    c.release_wheel[at % wheel_size_].push_back(
                        {feeder, static_cast<std::int8_t>(vc), 2});
                return;
            }
        }
        c.release_wheel[at % wheel_size_].push_back(
            {feeder, static_cast<std::int8_t>(vc), 0});
    }

    void
    activateSwitch(ShardCtx &c, int s)
    {
        if (!sw_active_[s]) {
            sw_active_[s] = 1;
            c.active_list.push_back(s);
        }
    }

    void
    scheduleInjection(ShardCtx &c, long long t, long long at)
    {
        if (!inj_scheduled_[t]) {
            inj_scheduled_[t] = 1;
            c.inj_wheel[at % kGenWheel].push_back(
                static_cast<std::int32_t>(t));
        }
    }

    void
    wakePush(ShardCtx &c, std::int64_t ivc, long long at)
    {
        if (!ivc_in_wheel_[ivc]) {
            ivc_in_wheel_[ivc] = 1;
            c.wake_wheel[at % wheel_size_].push_back(ivc);
            if constexpr (kGuards)
                wake_at_[ivc] = at;
        }
    }

    /**
     * Wake cycle of a head at switch @p s that cannot move for want of
     * a free out port: the first cycle any legal one frees, but no
     * later than the next hook (it may change the legal set).
     */
    long long
    outBlockedWake(ShardCtx &c, const CongestionView &cv, int s,
                   const Pkt &p) const
    {
        const long long at = c.policy.earliestOutFree(cv, s, p);
        return hook_idx_ < hook_cycles_.size()
                   ? std::min(at, hook_cycles_[hook_idx_])
                   : at;
    }

    /** Enqueue @p pkt_id on input VC @p gi (ring insert + scheduling). */
    void
    enqueueInput(ShardCtx &c, std::int64_t gi, std::int32_t pkt_id,
                 std::int32_t ready, long long now)
    {
        const int cap = cfg_.buf_packets;
        int pos = q_head_[gi] + q_count_[gi];
        if (pos >= cap)
            pos -= cap;
        ring_[gi * cap + pos] = {pkt_id, ready};
        if (q_count_[gi]++ == 0) {
            if (sharded_) {
                wakePush(c, gi, std::max<long long>(ready, now + 1));
            } else {
                std::int64_t iport = gi / cfg_.vcs;
                int sw = lay_.port_owner[iport];
                nonempty_pos_[gi] = static_cast<std::int32_t>(
                    nonempty_[sw].size());
                nonempty_[sw].push_back(static_cast<std::uint16_t>(
                    (iport - lay_.iport_off[sw]) * cfg_.vcs +
                    (gi % cfg_.vcs)));
            }
        }
        if constexpr (kGuards) {
            ++slots_held_[gi];
            c.check.countChecks();
            if (q_count_[gi] > cap)
                c.check.report("vc-occupancy", now,
                               lay_.port_owner[gi / cfg_.vcs],
                               static_cast<int>(gi % cfg_.vcs),
                               "input buffer overfilled");
        }
    }

    void processReleases(ShardCtx &c, long long now);
    void processGeneration(ShardCtx &c, long long now);
    void processInjection(ShardCtx &c, long long now);

    // ---- closed-loop workload hooks --------------------------------
    /** WorkloadPort bound to one callback invocation. */
    class PortImpl final : public WorkloadPort
    {
      public:
        PortImpl(VctEngine *e, ShardCtx *c, long long now,
                 long long inject_at, bool global = false)
            : e_(e), c_(c), now_(now), inject_at_(inject_at),
              global_(global)
        {
        }

        bool
        send(long long src, long long dest, int packets,
             std::uint32_t tag) override
        {
            return e_->workloadSend(c_, global_, src, dest, packets, tag,
                                    now_, inject_at_);
        }

        void
        wakeAt(long long term, long long at) override
        {
            e_->workloadWake(c_, global_, term, at, now_);
        }

        void signalGlobal() override { c_->wl_signal = true; }

        int
        sourceRoom(long long term) const override
        {
            if (term < 0 || term >= e_->lay_.num_terms)
                throw std::invalid_argument(
                    "WorkloadPort::sourceRoom: terminal out of range");
            return e_->cfg_.source_queue - e_->sq_count_[term];
        }

      private:
        VctEngine *e_;
        ShardCtx *c_;
        long long now_, inject_at_;
        bool global_;
    };

    /** Resolve the shard owning terminal @p term's source queue. */
    ShardCtx &
    ownerShard(long long term)
    {
        return shards_[sharded_ ? shardOfSwitch(lay_.term_switch[term])
                                : 0];
    }

    bool workloadSend(ShardCtx *caller, bool global, long long src,
                      long long dest, int packets, std::uint32_t tag,
                      long long now, long long inject_at);
    void workloadWake(ShardCtx *caller, bool global, long long term,
                      long long at, long long now);
    /** Closed-loop replacement for processGeneration: fire due timers. */
    void processWorkloadWakes(ShardCtx &c, long long now);
    /** End-of-cycle onGlobalStep dispatch (single-threaded). */
    void workloadGlobalStep(long long now);

    /** Legacy-mode arbitration: one switch, old draw order. */
    void arbitrateSwitchLegacy(ShardCtx &c, int s, long long now);
    /** Sharded-mode arbitration: wake-wheel driven, whole shard. */
    void arbitrateShard(ShardCtx &c, long long now);
    /** Shared commit step; returns true when the packet moved. */
    bool commitCandidate(ShardCtx &c, std::int64_t gi, std::int64_t o_gid,
                         long long now);
    /** Dequeue the head of @p gi and schedule its slot release. */
    std::int32_t dequeueHead(ShardCtx &c, std::int64_t gi, long long now);
    /** TTL-drop the head of @p gi (no route within route_ttl cycles). */
    void dropHead(ShardCtx &c, std::int64_t gi, long long now);
    /** Record an ejection in the telemetry bin series. */
    void
    recordBin(ShardCtx &c, long long now)
    {
        if (cfg_.telemetry_bin > 0) {
            auto b = static_cast<std::size_t>(now / cfg_.telemetry_bin);
            if (b >= c.bins.size())
                c.bins.resize(b + 1, 0);
            ++c.bins[b];
        }
    }

    void drainOutboxes(ShardCtx &c, long long now);
    void sampleOccupancy(ShardCtx &c);

    // ---- guards -----------------------------------------------------
    void guardCycleLegacy(ShardCtx &c, long long now);
    void guardScanGlobal(long long now);
    void guardWakeSchedule(long long now);
    void guardConservationGlobal(long long now);

    // ---- cycle hook (fault injection) ------------------------------
    bool
    hookDue(long long now) const
    {
        return hook_idx_ < hook_cycles_.size() &&
               hook_cycles_[hook_idx_] == now;
    }

    /** Invoke the due hook and refresh every shard's policy caches. */
    void
    runHook(long long now)
    {
        hook_(now);
        ++hook_idx_;
        for (ShardCtx &c : shards_)
            c.policy.onTopologyChange();
    }

    // ---- run loops --------------------------------------------------
    void runLegacy(long long total);
    void runSharded(long long total);
    void shardCyclePhase1(ShardCtx &c, long long now);
    void shardCyclePhase2(ShardCtx &c, long long now);
    SimResult collectResult(double wall_seconds);

    // ---- immutable structure ---------------------------------------
    const FabricLayout &lay_;
    Traffic &traffic_;
    SimConfig cfg_;
    Rng rng_;
    Policy policy_proto_;
    bool sharded_ = false;
    int wheel_size_ = 0;

    std::vector<std::int64_t> out_peer_ivc_base_;  //!< peer iport * vcs
    std::vector<std::int32_t> sw_shard_;

    // ---- hot state (SoA) -------------------------------------------
    std::vector<std::int64_t> out_busy_;
    std::vector<std::int16_t> out_credits_;  //!< [gid * vcs + vc]
    std::vector<std::int64_t> in_busy_;
    std::vector<RingSlot> ring_;             //!< [ivc * cap + slot]
    std::vector<std::uint8_t> q_head_, q_count_;

    // Legacy-mode activity tracking.
    std::vector<std::vector<std::uint16_t>> nonempty_;
    std::vector<std::int32_t> nonempty_pos_;
    std::vector<std::uint8_t> sw_active_;

    // Sharded-mode wake wheel membership.
    std::vector<std::uint8_t> ivc_in_wheel_;
    // Guard builds only: the cycle each wheel member is due.
    std::vector<long long> wake_at_;

    // ---- terminals --------------------------------------------------
    std::vector<std::int64_t> inj_busy_;
    std::vector<std::int8_t> inj_credits_;   //!< [t * vcs + vc]
    std::vector<std::int32_t> src_dest_;
    std::vector<std::int32_t> src_gen_;
    std::vector<std::int16_t> sq_head_, sq_count_;
    std::vector<std::int64_t> next_gen_;
    std::vector<std::uint8_t> inj_scheduled_;
    /** Active prefix [0, active_terms_): only these generate traffic
     *  (== num_terms unless gated; raised by activateTerminals()). */
    long long active_terms_ = 0;

    // ---- arbitration scratch ---------------------------------------
    // Legacy indexes by local out port; sharded by global out gid.
    std::vector<std::int64_t> cand_ivc_;
    std::vector<std::int32_t> cand_count_;
    std::vector<std::int64_t> cand_stamp_;
    // Legacy-mode TTL drops, deferred past the commit phase (the scan
    // iterates nonempty_[s], which dropping would mutate).
    std::vector<std::int64_t> drop_scratch_;

    // ---- cycle hook -------------------------------------------------
    std::vector<long long> hook_cycles_;
    std::size_t hook_idx_ = 0;
    std::function<void(long long)> hook_;

    // ---- closed-loop workload --------------------------------------
    Workload *wl_ = nullptr;
    bool wl_global_ = false;
    /** Per-terminal wake timer (-1 = none); gen_wheel entries whose
     *  terminal's timer moved or fired are dropped as stale. */
    std::vector<std::int64_t> wl_next_;
    /** Per source-queue slot: workload tag riding with the packet. */
    std::vector<std::uint32_t> src_tag_;

    // ---- shards -----------------------------------------------------
    std::vector<ShardCtx> shards_;

    // ---- measurement window ----------------------------------------
    long long win_start_ = 0, win_end_ = 0;

    // ---- guards -----------------------------------------------------
    CheckContext check_;
    std::vector<std::int32_t> slots_held_;
};

// ======================================================================
// construction
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::buildStructures()
{
    const int V = cfg_.vcs;
    const int S = sharded_ ? cfg_.shards : 1;
    const int nsw = lay_.num_switches;

    if (sharded_ && S > nsw)
        throw std::invalid_argument(
            "SimConfig: more shards than switches");

    out_peer_ivc_base_.resize(lay_.total_ports);
    for (std::int64_t gid = 0; gid < lay_.total_ports; ++gid) {
        std::int64_t peer = lay_.out_peer_iport[gid];
        out_peer_ivc_base_[gid] = peer < 0 ? -1 : peer * V;
    }

    // Derived from the same [k*nsw/S, (k+1)*nsw/S) ranges the shard
    // contexts use below, so shardOfSwitch() always agrees with shard
    // ownership (a per-switch formula would drift when nsw % S != 0).
    sw_shard_.assign(nsw, 0);
    for (int k = 0; k < S; ++k) {
        const int lo =
            static_cast<int>(static_cast<std::int64_t>(k) * nsw / S);
        const int hi =
            static_cast<int>(static_cast<std::int64_t>(k + 1) * nsw / S);
        for (int s = lo; s < hi; ++s)
            sw_shard_[s] = k;
    }

    out_busy_.assign(lay_.total_ports, 0);
    out_credits_.assign(lay_.total_ports * V,
                        static_cast<std::int16_t>(cfg_.buf_packets));
    in_busy_.assign(lay_.total_ports, 0);

    const std::int64_t ivcs = lay_.total_ports * V;
    ring_.assign(ivcs * cfg_.buf_packets, {-1, 0});
    q_head_.assign(ivcs, 0);
    q_count_.assign(ivcs, 0);

    if (sharded_) {
        ivc_in_wheel_.assign(ivcs, 0);
        if constexpr (kGuards)
            wake_at_.assign(ivcs, -1);
    } else {
        nonempty_.resize(nsw);
        nonempty_pos_.assign(ivcs, -1);
        sw_active_.assign(nsw, 0);
    }

    inj_busy_.assign(lay_.num_terms, 0);
    inj_credits_.assign(lay_.num_terms * V,
                        static_cast<std::int8_t>(cfg_.buf_packets));
    src_dest_.assign(lay_.num_terms * cfg_.source_queue, -1);
    src_gen_.assign(lay_.num_terms * cfg_.source_queue, 0);
    sq_head_.assign(lay_.num_terms, 0);
    sq_count_.assign(lay_.num_terms, 0);
    next_gen_.assign(lay_.num_terms, 0);
    inj_scheduled_.assign(lay_.num_terms, 0);
    active_terms_ = cfg_.active_terminals < 0
                        ? lay_.num_terms
                        : std::min(cfg_.active_terminals, lay_.num_terms);

    wheel_size_ = cfg_.pkt_phits + cfg_.link_latency + 2;

    if (sharded_) {
        cand_ivc_.assign(lay_.total_ports, -1);
        cand_count_.assign(lay_.total_ports, 0);
        cand_stamp_.assign(lay_.total_ports, -1);
    } else {
        cand_ivc_.assign(lay_.max_local_ports, -1);
        cand_count_.assign(lay_.max_local_ports, 0);
        cand_stamp_.assign(lay_.max_local_ports, -1);
    }

    if constexpr (kGuards)
        slots_held_.assign(ivcs, 0);

    shards_.clear();
    shards_.reserve(S);
    for (int k = 0; k < S; ++k) {
        shards_.emplace_back(policy_proto_);
        ShardCtx &c = shards_.back();
        c.id = k;
        c.sw_begin = static_cast<int>(
            static_cast<std::int64_t>(k) * nsw / S);
        c.sw_end = static_cast<int>(
            static_cast<std::int64_t>(k + 1) * nsw / S);
        c.rng = sharded_ ? Rng(deriveSeed(cfg_.seed, 0x5A4D0000ULL + k, 0))
                         : Rng(cfg_.seed);
        c.release_wheel.assign(wheel_size_, {});
        c.gen_wheel.assign(kGenWheel, {});
        c.inj_wheel.assign(kGenWheel, {});
        if (sharded_) {
            c.wake_wheel.assign(wheel_size_, {});
            c.out_rel.resize(S);
            c.out_fwd.resize(S);
        }
        c.perf.occupancy.assign(cfg_.buf_packets + 1, 0);
    }
    // Terminals follow their switch's shard (term_switch is monotone,
    // so each shard's terminals form one contiguous range).
    {
        long long t = 0;
        for (int k = 0; k < S; ++k) {
            ShardCtx &c = shards_[k];
            while (t < lay_.num_terms && lay_.term_switch[t] < c.sw_begin)
                ++t;
            c.term_begin = t;
            while (t < lay_.num_terms && lay_.term_switch[t] < c.sw_end)
                ++t;
            c.term_end = t;
        }
    }
}

// ======================================================================
// per-cycle machinery shared by both modes
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::processReleases(ShardCtx &c, long long now)
{
    auto &slot = c.release_wheel[now % wheel_size_];
    for (const Release &r : slot) {
        if (r.feeder >= 0) {
            if (r.kind != 2) {
                std::int16_t &cr =
                    out_credits_[static_cast<std::int64_t>(r.feeder) *
                                     cfg_.vcs +
                                 r.vc];
                ++cr;
                if constexpr (kGuards) {
                    c.check.countChecks();
                    if (cr > cfg_.buf_packets)
                        c.check.report("credit-overflow", now,
                                       lay_.port_owner[r.feeder], r.vc,
                                       "release beyond buffer capacity");
                }
            }
            if constexpr (kGuards) {
                if (r.kind != 1)
                    --slots_held_[out_peer_ivc_base_[r.feeder] + r.vc];
            }
        } else {
            std::int64_t term = -static_cast<std::int64_t>(r.feeder) - 1;
            std::int8_t cr = ++inj_credits_[term * cfg_.vcs + r.vc];
            if constexpr (kGuards) {
                c.check.countChecks();
                int sw = lay_.term_switch[term];
                if (cr > cfg_.buf_packets)
                    c.check.report("credit-overflow", now, sw, r.vc,
                                   "terminal release beyond capacity");
                --slots_held_[lay_.term_iport[term] * cfg_.vcs + r.vc];
            }
        }
    }
    slot.clear();
}

template <class Policy>
void
VctEngine<Policy>::processGeneration(ShardCtx &c, long long now)
{
    auto &slot = c.gen_wheel[now % kGenWheel];
    if (slot.empty())
        return;
    const double p = cfg_.load / cfg_.pkt_phits;
    const double log1mp = std::log(1.0 - p);
    for (std::int32_t t : slot) {
        if (next_gen_[t] > now) {
            long long gap = next_gen_[t] - now;
            c.gen_wheel[(now + std::min<long long>(gap, kGenWheel - 1)) %
                        kGenWheel]
                .push_back(t);
            continue;
        }
        ++c.generated;
        if (sq_count_[t] < cfg_.source_queue) {
            long long dest = traffic_.dest(t, c.rng);
            if (!c.policy.routable(t, dest)) {
                ++c.unroutable;
            } else {
                int k = sq_head_[t] + sq_count_[t];
                if (k >= cfg_.source_queue)
                    k -= cfg_.source_queue;
                std::int64_t base =
                    static_cast<std::int64_t>(t) * cfg_.source_queue;
                src_dest_[base + k] = static_cast<std::int32_t>(dest);
                src_gen_[base + k] = static_cast<std::int32_t>(now);
                ++sq_count_[t];
                if constexpr (kGuards)
                    ++c.queued;
                scheduleInjection(c, t, now);
            }
        } else {
            ++c.suppressed;
        }
        // Geometric inter-arrival at packet rate p.
        double u = c.rng.uniformReal();
        long long gap = 1 + static_cast<long long>(
                                std::floor(std::log(1.0 - u) / log1mp));
        if (gap < 1)
            gap = 1;
        next_gen_[t] = now + gap;
        c.gen_wheel[(now + std::min<long long>(gap, kGenWheel - 1)) %
                    kGenWheel]
            .push_back(t);
    }
    slot.clear();
}

template <class Policy>
void
VctEngine<Policy>::processInjection(ShardCtx &c, long long now)
{
    auto &slot = c.inj_wheel[now % kGenWheel];
    if (slot.empty())
        return;
    const int V = cfg_.vcs;
    const CongestionView cv = view(now);
    for (std::int32_t t : slot) {
        inj_scheduled_[t] = 0;
        if (sq_count_[t] == 0)
            continue;
        if (inj_busy_[t] > now) {
            scheduleInjection(c, t, inj_busy_[t]);
            continue;
        }
        std::int64_t base =
            static_cast<std::int64_t>(t) * cfg_.source_queue;
        std::int32_t dest = src_dest_[base + sq_head_[t]];
        int best_vc = c.policy.injectVc(cv, t, dest, c.rng);
        if (best_vc < 0) {
            scheduleInjection(c, t, now + 1);
            continue;
        }

        int k = sq_head_[t];
        std::int32_t gen = src_gen_[base + k];
        sq_head_[t] =
            static_cast<std::int16_t>((k + 1) % cfg_.source_queue);
        --sq_count_[t];
        if constexpr (kGuards) {
            --c.queued;
            ++c.injected;
            c.last_progress = now;
        }

        std::int32_t id = allocPkt(c);
        Pkt &p = pkt(id);
        p.gen = gen;
        p.noroute = 0;
        p.wl_src = t;
        p.wl_tag = wl_ != nullptr ? src_tag_[base + k] : 0;
        c.policy.initPacket(p, t, dest, c.rng);

        std::int64_t gi = lay_.term_iport[t] * V + best_vc;
        enqueueInput(c, gi, id,
                     static_cast<std::int32_t>(now + cfg_.link_latency),
                     now);
        --inj_credits_[static_cast<std::int64_t>(t) * V + best_vc];
        inj_busy_[t] = now + cfg_.pkt_phits;
        if (!sharded_)
            activateSwitch(c, lay_.term_switch[t]);
        if (sq_count_[t] > 0)
            scheduleInjection(c, t, inj_busy_[t]);
    }
    slot.clear();
}

// ======================================================================
// closed-loop workload hooks
// ======================================================================

/**
 * Queue a whole workload message into @p src's source queue (the
 * WorkloadPort::send contract).  All bookkeeping lands on the shard
 * owning the terminal, so onGlobalStep may send on behalf of any
 * terminal; per-terminal callbacks are restricted to their own
 * terminal (enforced below) because touching a peer shard's wheels
 * from phase 1 would race.
 */
template <class Policy>
bool
VctEngine<Policy>::workloadSend(ShardCtx *caller, bool global,
                                long long src, long long dest,
                                int packets, std::uint32_t tag,
                                long long now, long long inject_at)
{
    if (packets < 1 || packets > cfg_.source_queue)
        throw std::invalid_argument(
            "WorkloadPort::send: message of " + std::to_string(packets) +
            " packets can never fit a " +
            std::to_string(cfg_.source_queue) + "-packet source queue");
    if (src < 0 || src >= lay_.num_terms || dest < 0 ||
        dest >= lay_.num_terms)
        throw std::invalid_argument(
            "WorkloadPort::send: terminal out of range");
    ShardCtx &o = ownerShard(src);
    if (sharded_ && !global && &o != caller)
        throw std::logic_error(
            "WorkloadPort::send: per-terminal callbacks may only send "
            "from their own terminal (use signalGlobal/onGlobalStep)");
    if (sq_count_[src] + packets > cfg_.source_queue)
        return false;
    if (!o.policy.routable(src, dest))
        return false;
    const std::int64_t base =
        static_cast<std::int64_t>(src) * cfg_.source_queue;
    for (int i = 0; i < packets; ++i) {
        int k = sq_head_[src] + sq_count_[src];
        if (k >= cfg_.source_queue)
            k -= cfg_.source_queue;
        src_dest_[base + k] = static_cast<std::int32_t>(dest);
        src_gen_[base + k] = static_cast<std::int32_t>(now);
        src_tag_[base + k] = tag;
        ++sq_count_[src];
        ++o.generated;
        if constexpr (kGuards)
            ++o.queued;
    }
    scheduleInjection(o, src, inject_at);
    return true;
}

template <class Policy>
void
VctEngine<Policy>::workloadWake(ShardCtx *caller, bool global,
                                long long term, long long at,
                                long long now)
{
    if (term < 0 || term >= lay_.num_terms)
        throw std::invalid_argument(
            "WorkloadPort::wakeAt: terminal out of range");
    ShardCtx &o = ownerShard(term);
    if (sharded_ && !global && &o != caller)
        throw std::logic_error(
            "WorkloadPort::wakeAt: per-terminal callbacks may only arm "
            "their own terminal (use signalGlobal/onGlobalStep)");
    if (at <= now)
        at = now + 1;
    wl_next_[term] = at;
    long long gap = at - now;
    o.gen_wheel[(now + std::min<long long>(gap, kGenWheel - 1)) %
                kGenWheel]
        .push_back(static_cast<std::int32_t>(term));
}

/**
 * Fire due wake timers (closed-loop replacement for the open-loop
 * processGeneration, same slot in the cycle: after releases, before
 * injection - so a message sent from onWake can inject this very
 * cycle).  Entries whose timer moved are re-pushed toward the new due
 * cycle; entries whose timer fired or was superseded are stale and
 * dropped.  wakeAt() never pushes into the slot being drained (the
 * re-arm gap is clamped to [1, kGenWheel-1]).
 */
template <class Policy>
void
VctEngine<Policy>::processWorkloadWakes(ShardCtx &c, long long now)
{
    auto &slot = c.gen_wheel[now % kGenWheel];
    if (slot.empty())
        return;
    for (std::int32_t t : slot) {
        const long long due = wl_next_[t];
        if (due < now)
            continue;  // stale: fired already or re-armed earlier
        if (due > now) {
            long long gap = due - now;
            c.gen_wheel[(now + std::min<long long>(gap, kGenWheel - 1)) %
                        kGenWheel]
                .push_back(t);
            continue;
        }
        wl_next_[t] = -1;
        PortImpl port(this, &c, now, /*inject_at=*/now);
        wl_->onWake(t, now, port, c.wl_stats);
    }
    slot.clear();
}

/**
 * End-of-cycle global step: when any shard raised wl_signal this
 * cycle, run the workload's cross-terminal logic single-threaded
 * (callers ensure every worker is parked).  Sends/wakes issued here
 * land on each terminal's owner shard and take effect next cycle.
 */
template <class Policy>
void
VctEngine<Policy>::workloadGlobalStep(long long now)
{
    bool any = false;
    for (ShardCtx &c : shards_) {
        any = any || c.wl_signal;
        c.wl_signal = false;
    }
    if (!any)
        return;
    PortImpl port(this, &shards_[0], now, /*inject_at=*/now + 1,
                  /*global=*/true);
    wl_->onGlobalStep(now, port, shards_[0].wl_stats);
}

/**
 * Dequeue the head packet of input VC @p gi and schedule the buffer
 * slot release at the feeder (the slot drains when the tail leaves).
 * Shared by the forward/eject commit and the TTL drop path; the caller
 * owns the returned packet id.
 */
template <class Policy>
std::int32_t
VctEngine<Policy>::dequeueHead(ShardCtx &c, std::int64_t gi, long long now)
{
    const int V = cfg_.vcs;
    const int cap = cfg_.buf_packets;
    std::int64_t iport = gi / V;
    int head = q_head_[gi];
    std::int32_t id = ring_[gi * cap + head].pkt;
    int nh = head + 1;
    q_head_[gi] = static_cast<std::uint8_t>(nh >= cap ? nh - cap : nh);
    if (--q_count_[gi] == 0 && !sharded_) {
        int s = lay_.port_owner[iport];
        auto pos = nonempty_pos_[gi];
        auto &list = nonempty_[s];
        nonempty_pos_[static_cast<std::int64_t>(lay_.iport_off[s]) * V +
                      static_cast<std::int64_t>(list.back())] = pos;
        list[pos] = list.back();
        list.pop_back();
        nonempty_pos_[gi] = -1;
    }
    // The buffer slot at this switch drains when the tail leaves.
    scheduleRelease(c, now + cfg_.pkt_phits, lay_.feeder_out[iport],
                    static_cast<int>(gi % V));
    return id;
}

/**
 * Drop the head packet of @p gi: it has been route-less longer than
 * route_ttl allows.  The packet evaporates from the buffer (its slot
 * still drains tail-timed like a forward, keeping credit conservation
 * exact) and is counted in dropped - never in delivered.
 */
template <class Policy>
void
VctEngine<Policy>::dropHead(ShardCtx &c, std::int64_t gi, long long now)
{
    std::int32_t id = dequeueHead(c, gi, now);
    ++c.dropped;
    freePkt(c, id);
    if constexpr (kGuards)
        c.last_progress = now;
    if (sharded_ && q_count_[gi] > 0) {
        long long ready =
            ring_[gi * cfg_.buf_packets + q_head_[gi]].ready;
        wakePush(c, gi, std::max<long long>(ready, now + 1));
    }
}

/**
 * Commit a scan-phase winner: dequeue from @p gi and either eject or
 * forward through @p o_gid.  Returns false when the move was blocked
 * (input port already taken this cycle, or no output VC credit).
 */
template <class Policy>
bool
VctEngine<Policy>::commitCandidate(ShardCtx &c, std::int64_t gi,
                                   std::int64_t o_gid, long long now)
{
    const int V = cfg_.vcs;
    const int cap = cfg_.buf_packets;
    std::int64_t iport = gi / V;
    if (in_busy_[iport] > now)
        return false;  // another VC of this port won already
    int head = q_head_[gi];
    std::int32_t id = ring_[gi * cap + head].pkt;
    Pkt &p = pkt(id);

    std::int64_t peer = out_peer_ivc_base_[o_gid];
    int out_vc = -1;
    if (peer >= 0) {
        out_vc = c.policy.chooseOutVc(view(now), o_gid, p, c.rng);
        if (out_vc < 0) {
            ++c.perf.credit_stalls;
            return false;
        }
    }

    dequeueHead(c, gi, now);

    in_busy_[iport] = now + cfg_.pkt_phits;
    out_busy_[o_gid] = now + cfg_.pkt_phits;
    ++c.perf.forwards;

    if (peer < 0) {
        // Ejection: delivered when the tail arrives.
        long long done = now + cfg_.link_latency + cfg_.pkt_phits;
        if (now >= win_start_ && now < win_end_) {
            ++c.delivered;
            c.delivered_phits += cfg_.pkt_phits;
            long long lat = done - p.gen;
            c.lat_sum += static_cast<double>(lat);
            c.lat_hist.add(lat);
            c.hop_sum += c.policy.hopsOf(p);
        }
        ++c.ejected_all;
        recordBin(c, now);
        if (wl_ != nullptr) {
            // The terminal sits at this output port; its in- and
            // out-port share the gid, and feeder_out at a terminal
            // in-port encodes -(terminal + 1).
            const long long dst =
                -static_cast<long long>(lay_.feeder_out[o_gid]) - 1;
            if (now >= win_start_ && now < win_end_)
                ++c.wl_stats.window_packets;
            PortImpl port(this, &c, now, /*inject_at=*/now + 1);
            wl_->onDeliver(dst, p.wl_src, p.wl_tag, p.gen, done, now,
                           port, c.wl_stats);
        }
        freePkt(c, id);
        if constexpr (kGuards) {
            ++c.ejected;
            c.last_progress = now;
        }
    } else {
        if constexpr (kGuards) {
            c.check.countChecks();
            if (out_credits_[o_gid * V + out_vc] <= 0)
                c.check.report("credit-negative", now,
                               lay_.port_owner[o_gid], out_vc,
                               "forwarded without credit on out port " +
                                   std::to_string(o_gid));
        }
        --out_credits_[o_gid * V + out_vc];
        c.policy.onForward(p);
        std::int64_t di = peer + out_vc;
        auto ready = static_cast<std::int32_t>(now + cfg_.link_latency);
        int dest_sw = lay_.port_owner[peer / V];
        int dest_shard = shardOfSwitch(dest_sw);
        if (sharded_ && dest_shard != c.id) {
            c.out_fwd[dest_shard].push_back({id, di, ready});
        } else {
            enqueueInput(c, di, id, ready, now);
            if (!sharded_)
                activateSwitch(c, dest_sw);
        }
        if constexpr (kGuards)
            c.last_progress = now;
    }
    return true;
}

// ======================================================================
// legacy-mode arbitration (draw-for-draw replica of the original)
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::arbitrateSwitchLegacy(ShardCtx &c, int s, long long now)
{
    const int V = cfg_.vcs;
    const int cap = cfg_.buf_packets;
    const std::int64_t base_port = lay_.iport_off[s];
    c.touched_outs.clear();
    ++c.perf.switch_scans;
    const CongestionView cv = view(now);

    // Scan phase: pick one random candidate per free output.
    for (std::uint16_t local : nonempty_[s]) {
        std::int64_t iport = base_port + local / V;
        std::int64_t gi = iport * V + (local % V);
        const RingSlot &head = ring_[gi * cap + q_head_[gi]];
        if (head.ready > now)
            continue;
        if (in_busy_[iport] > now)
            continue;
        Pkt &p = pkt(head.pkt);
        int fixed_vc = -1;
        int o_local = c.policy.routeOut(cv, s, p, c.rng, fixed_vc);
        if (o_local < 0) {
            // No route from here (runtime fault): park, or drop once
            // older than the TTL.  Dropping is deferred past the
            // commit phase - it mutates the nonempty list this scan
            // iterates.
            ++c.route_retries;
            p.noroute = 1;
            if (cfg_.route_ttl > 0 &&
                now - static_cast<long long>(p.gen) >= cfg_.route_ttl)
                drop_scratch_.push_back(gi);
            continue;
        }
        if (p.noroute) {
            p.noroute = 0;
            ++c.rerouted;
        }
        std::int64_t o_gid = base_port + o_local;
        if (out_busy_[o_gid] > now)
            continue;
        if (out_peer_ivc_base_[o_gid] >= 0) {
            bool has_credit;
            if (fixed_vc >= 0) {
                has_credit = out_credits_[o_gid * V + fixed_vc] > 0;
            } else {
                has_credit = false;
                int vc_lo, vc_hi;
                c.policy.vcRange(p, vc_lo, vc_hi);
                for (int v = vc_lo; v < vc_hi; ++v) {
                    if (out_credits_[o_gid * V + v] > 0) {
                        has_credit = true;
                        break;
                    }
                }
            }
            if (!has_credit) {
                ++c.perf.credit_stalls;
                continue;
            }
        }
        // Reservoir-sample among this output's candidates (random
        // arbiter, one iteration).
        if (cand_stamp_[o_local] != now) {
            cand_stamp_[o_local] = now;
            cand_count_[o_local] = 1;
            cand_ivc_[o_local] = gi;
            c.touched_outs.push_back(o_local);
        } else {
            ++cand_count_[o_local];
            ++c.perf.arb_conflicts;
            if (c.rng.uniform(cand_count_[o_local]) == 0)
                cand_ivc_[o_local] = gi;
        }
    }

    // Commit phase.
    for (std::int64_t o_local : c.touched_outs)
        commitCandidate(c, cand_ivc_[o_local], base_port + o_local, now);

    // The candidate scratch is shared across switches; invalidate the
    // stamps so the next switch processed this cycle starts clean.
    for (std::int64_t o_local : c.touched_outs)
        cand_stamp_[o_local] = -1;

    // Deferred TTL drops (each gi appears at most once per scan, and
    // commits never dequeue from a route-less VC, so the head each
    // entry refers to is still in place).
    for (std::int64_t gi : drop_scratch_)
        dropHead(c, gi, now);
    drop_scratch_.clear();
}

// ======================================================================
// sharded-mode arbitration (wake-wheel scheduler)
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::arbitrateShard(ShardCtx &c, long long now)
{
    const int V = cfg_.vcs;
    const int cap = cfg_.buf_packets;
    auto &slot = c.wake_wheel[now % wheel_size_];
    if (slot.empty())
        return;
    c.touched_outs.clear();
    c.scanned_ivcs.clear();
    const CongestionView cv = view(now);

    // Scan phase over the input VCs due this cycle.
    for (std::int64_t gi : slot) {
        ivc_in_wheel_[gi] = 0;
        if (q_count_[gi] == 0)
            continue;
        ++c.perf.switch_scans;
        std::int64_t iport = gi / V;
        const RingSlot &head = ring_[gi * cap + q_head_[gi]];
        long long busy = in_busy_[iport];
        if (head.ready > now || busy > now) {
            // Not actionable yet: sleep until the earliest cycle it
            // could be (this is the scheduling win over rescanning).
            wakePush(c, gi,
                     std::max<long long>(
                         std::max<long long>(head.ready, busy), now + 1));
            continue;
        }
        int s = lay_.port_owner[iport];
        Pkt &p = pkt(head.pkt);
        int fixed_vc = -1;
        int o_local = c.policy.routeOut(cv, s, p, c.rng, fixed_vc);
        if (o_local < 0) {
            // No route from here (runtime fault): retry next cycle
            // against the (possibly repaired) tables, or drop once the
            // packet is older than the TTL.  route_ttl == 0 preserves
            // the historical park-forever behavior.
            ++c.route_retries;
            p.noroute = 1;
            if (cfg_.route_ttl > 0 &&
                now - static_cast<long long>(p.gen) >= cfg_.route_ttl)
                dropHead(c, gi, now);
            else
                wakePush(c, gi, now + 1);
            continue;
        }
        if (p.noroute) {
            p.noroute = 0;
            ++c.rerouted;
        }
        std::int64_t o_gid = lay_.iport_off[s] + o_local;
        if (out_busy_[o_gid] > now) {
            // Every draw hits a busy port until one of the legal
            // ports frees: sleep until then.
            wakePush(c, gi, outBlockedWake(c, cv, s, p));
            continue;
        }
        bool blocked = false;
        if (out_peer_ivc_base_[o_gid] >= 0) {
            bool has_credit;
            if (fixed_vc >= 0) {
                has_credit = out_credits_[o_gid * V + fixed_vc] > 0;
            } else {
                has_credit = false;
                int vc_lo, vc_hi;
                c.policy.vcRange(p, vc_lo, vc_hi);
                for (int v = vc_lo; v < vc_hi; ++v) {
                    if (out_credits_[o_gid * V + v] > 0) {
                        has_credit = true;
                        break;
                    }
                }
            }
            if (!has_credit) {
                ++c.perf.credit_stalls;
                blocked = true;
            }
        }
        if (blocked) {
            // Free port, no credit: credits return without a local
            // event to wait on, so poll.
            wakePush(c, gi, now + 1);
            continue;
        }
        c.scanned_ivcs.push_back(gi);
        if (cand_stamp_[o_gid] != now) {
            cand_stamp_[o_gid] = now;
            cand_count_[o_gid] = 1;
            cand_ivc_[o_gid] = gi;
            c.touched_outs.push_back(o_gid);
        } else {
            ++cand_count_[o_gid];
            ++c.perf.arb_conflicts;
            if (c.rng.uniform(cand_count_[o_gid]) == 0)
                cand_ivc_[o_gid] = gi;
        }
    }
    slot.clear();

    // Commit phase.
    for (std::int64_t o_gid : c.touched_outs) {
        commitCandidate(c, cand_ivc_[o_gid], o_gid, now);
        cand_stamp_[o_gid] = -1;
    }

    // Reschedule every scanned VC that still holds packets: winners
    // and VCs whose input port another VC won sleep out the port's busy
    // time; arbitration losers (head still in place, every other wait
    // over) sleep until a legal out port frees - the winner just took
    // the one they drew.
    for (std::int64_t gi : c.scanned_ivcs) {
        if (q_count_[gi] == 0 || ivc_in_wheel_[gi])
            continue;
        const std::int64_t iport = gi / V;
        const RingSlot &head = ring_[gi * cap + q_head_[gi]];
        long long at = std::max<long long>(
            std::max<long long>(head.ready, in_busy_[iport]), now + 1);
        if (at == now + 1)
            at = outBlockedWake(c, cv, lay_.port_owner[iport],
                                pkt(head.pkt));
        wakePush(c, gi, at);
    }
}

template <class Policy>
void
VctEngine<Policy>::drainOutboxes(ShardCtx &c, long long now)
{
    const int S = static_cast<int>(shards_.size());
    for (int src = 0; src < S; ++src) {
        auto &rel = shards_[src].out_rel[c.id];
        for (const OutRelease &r : rel)
            c.release_wheel[r.at % wheel_size_].push_back(
                {r.feeder, r.vc, 1});
        rel.clear();
        auto &fwd = shards_[src].out_fwd[c.id];
        for (const OutForward &f : fwd)
            enqueueInput(c, f.dest_ivc, f.pkt, f.ready, now);
        fwd.clear();
    }
}

template <class Policy>
void
VctEngine<Policy>::sampleOccupancy(ShardCtx &c)
{
    const int V = cfg_.vcs;
    std::int64_t lo = sharded_
                          ? static_cast<std::int64_t>(
                                lay_.iport_off[c.sw_begin]) *
                                V
                          : 0;
    std::int64_t hi =
        sharded_ && c.sw_end < lay_.num_switches
            ? static_cast<std::int64_t>(lay_.iport_off[c.sw_end]) * V
            : static_cast<std::int64_t>(q_count_.size());
    for (std::int64_t ivc = lo; ivc < hi; ++ivc)
        ++c.perf.occupancy[q_count_[ivc]];
}

// ======================================================================
// guards
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::guardScanGlobal(long long now)
{
    if constexpr (kGuards) {
        const int V = cfg_.vcs;
        const int cap = cfg_.buf_packets;
        // Inter-switch credits: each out VC's credits plus the slots
        // currently held at its peer input VC must equal the buffer
        // capacity, and both must stay within bounds.
        for (std::int64_t gid = 0; gid < lay_.total_ports; ++gid) {
            std::int64_t peer = out_peer_ivc_base_[gid];
            if (peer < 0)
                continue;
            for (int v = 0; v < V; ++v) {
                int cr = out_credits_[gid * V + v];
                check_.countChecks();
                if (cr < 0)
                    check_.report("credit-negative", now,
                                  lay_.port_owner[gid], v,
                                  "out port " + std::to_string(gid));
                else if (cr > cap)
                    check_.report("credit-overflow", now,
                                  lay_.port_owner[gid], v,
                                  "out port " + std::to_string(gid) +
                                      " credits " + std::to_string(cr) +
                                      " > cap " + std::to_string(cap));
                if (cr + slots_held_[peer + v] != cap)
                    check_.report(
                        "credit-conservation", now, lay_.port_owner[gid],
                        v,
                        "out port " + std::to_string(gid) +
                            ": credits " + std::to_string(cr) +
                            " + held " +
                            std::to_string(slots_held_[peer + v]) +
                            " != cap " + std::to_string(cap));
            }
        }
        // Injection credits against the terminal in-port VCs; a
        // terminal still behind its activation barrier must never
        // hold a queued packet.
        for (long long t = 0; t < lay_.num_terms; ++t) {
            std::int64_t iport = lay_.term_iport[t];
            int sw = lay_.term_switch[t];
            check_.countChecks();
            if (t >= active_terms_ && sq_count_[t] != 0)
                check_.report("inactive-terminal-queued", now, sw, -1,
                              "terminal " + std::to_string(t) +
                                  " holds " +
                                  std::to_string(sq_count_[t]) +
                                  " packets before activation");
            for (int v = 0; v < V; ++v) {
                int cr = inj_credits_[t * V + v];
                check_.countChecks();
                if (cr < 0 || cr > cap)
                    check_.report("inj-credit-bounds", now, sw, v,
                                  "terminal " + std::to_string(t));
                if (cr + slots_held_[iport * V + v] != cap)
                    check_.report("inj-credit-conservation", now, sw, v,
                                  "terminal " + std::to_string(t));
            }
        }
        // VC occupancy bounds.
        for (std::int64_t ivc = 0;
             ivc < static_cast<std::int64_t>(q_count_.size()); ++ivc) {
            check_.countChecks();
            if (q_count_[ivc] > cap)
                check_.report(
                    "vc-occupancy", now,
                    lay_.port_owner[ivc / V], static_cast<int>(ivc % V),
                    "queue depth " + std::to_string(q_count_[ivc]) +
                        " > cap " + std::to_string(cap));
        }
        if (sharded_)
            guardWakeSchedule(now);
    }
}

/**
 * Sharded mode: every queued input VC sits on the wake wheel, due no
 * later than the first cycle its head could move - head ready, input
 * port free, a legal out port free (capped at the next hook).  A later
 * wake would skip cycles in which the head could have moved, i.e.
 * change the model rather than re-stream its draws.
 */
template <class Policy>
void
VctEngine<Policy>::guardWakeSchedule(long long now)
{
    const int V = cfg_.vcs;
    const int cap = cfg_.buf_packets;
    const CongestionView cv = view(now);
    for (std::int64_t ivc = 0;
         ivc < static_cast<std::int64_t>(q_count_.size()); ++ivc) {
        if (q_count_[ivc] == 0)
            continue;
        const std::int64_t iport = ivc / V;
        const int s = lay_.port_owner[iport];
        check_.countChecks();
        if (!ivc_in_wheel_[ivc]) {
            check_.report("wake-lost", now, s, static_cast<int>(ivc % V),
                          "queued input VC " + std::to_string(ivc) +
                              " is not on the wake wheel");
            continue;
        }
        const RingSlot &head = ring_[ivc * cap + q_head_[ivc]];
        const long long bound = std::max<long long>(
            {now + 1, head.ready, in_busy_[iport],
             outBlockedWake(shards_[shardOfSwitch(s)], cv, s,
                            pkt(head.pkt))});
        if (wake_at_[ivc] > bound)
            check_.report("wake-late", now, s, static_cast<int>(ivc % V),
                          "input VC " + std::to_string(ivc) +
                              " wakes at " +
                              std::to_string(wake_at_[ivc]) +
                              ", its head could move at " +
                              std::to_string(bound));
    }
}

template <class Policy>
void
VctEngine<Policy>::guardConservationGlobal(long long now)
{
    if constexpr (kGuards) {
        long long allocated = 0, freed = 0;
        long long injected = 0, ejected = 0, queued = 0;
        long long generated = 0, suppressed = 0, unroutable = 0;
        long long dropped = 0;
        long long last_progress = 0;
        for (const ShardCtx &c : shards_) {
            allocated += c.arena.size();
            freed += static_cast<long long>(c.free_pkts.size());
            injected += c.injected;
            ejected += c.ejected;
            queued += c.queued;
            generated += c.generated;
            suppressed += c.suppressed;
            unroutable += c.unroutable;
            dropped += c.dropped;
            last_progress = std::max(last_progress, c.last_progress);
        }
        long long in_flight = allocated - freed;
        check_.countChecks(2);
        // Packet conservation: every packet entered into the network
        // is still in flight (pool slot in use), was ejected, or was
        // TTL-dropped after losing its route - nothing leaks.
        if (injected != in_flight + ejected + dropped)
            check_.report("packet-conservation", now, -1, -1,
                          "injected " + std::to_string(injected) +
                              " != in-flight " +
                              std::to_string(in_flight) + " + ejected " +
                              std::to_string(ejected) + " + dropped " +
                              std::to_string(dropped));
        // Source-queue accounting: generated packets are queued,
        // injected, suppressed or unroutable - nothing vanishes.
        if (generated != queued + injected + suppressed + unroutable)
            check_.report(
                "generation-accounting", now, -1, -1,
                "generated " + std::to_string(generated) +
                    " != queued " + std::to_string(queued) +
                    " + injected " + std::to_string(injected) +
                    " + suppressed " + std::to_string(suppressed) +
                    " + unroutable " + std::to_string(unroutable));
        // No-progress watchdog: packets in flight but nothing moved
        // for far longer than any legal busy/credit stall can last.
        long long watchdog = 256 + 64LL * cfg_.pkt_phits;
        check_.countChecks();
        if (in_flight > 0 && now - last_progress > watchdog)
            check_.report(
                "no-progress", now, -1, -1,
                std::to_string(in_flight) +
                    " packets in flight, none moved since cycle " +
                    std::to_string(last_progress));
    }
}

template <class Policy>
void
VctEngine<Policy>::guardCycleLegacy(ShardCtx &c, long long now)
{
    if constexpr (kGuards) {
        (void)c;
        guardConservationGlobal(now);
        if ((now & 255) == 0)
            guardScanGlobal(now);
    }
}

// ======================================================================
// run loops
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::runLegacy(long long total)
{
    ShardCtx &c = shards_[0];
    std::vector<std::int32_t> active_scratch;

    // Stagger initial generation times uniformly over one packet time
    // to avoid a synchronized burst at cycle 0 (open-loop only: with a
    // workload attached the engine never generates traffic itself).
    // Only the active prefix draws; ungated runs have active_terms_ ==
    // num_terms, so the draw sequence matches the golden baselines.
    for (long long t = 0; wl_ == nullptr && cfg_.load > 0.0 &&
                          t < active_terms_;
         ++t) {
        long long start = static_cast<long long>(
            c.rng.uniform(static_cast<std::uint64_t>(cfg_.pkt_phits)));
        next_gen_[t] = start;
        c.gen_wheel[start % kGenWheel].push_back(
            static_cast<std::int32_t>(t));
    }

    for (long long now = 0; now < total; ++now) {
        if (hookDue(now))
            runHook(now);
        processReleases(c, now);
        if (wl_ != nullptr)
            processWorkloadWakes(c, now);
        else
            processGeneration(c, now);
        processInjection(c, now);

        std::swap(c.active_list, active_scratch);
        c.active_list.clear();
        for (int s : active_scratch)
            sw_active_[s] = 0;
        for (int s : active_scratch) {
            arbitrateSwitchLegacy(c, s, now);
            if (!nonempty_[s].empty())
                activateSwitch(c, s);
        }
        active_scratch.clear();

        if (wl_global_)
            workloadGlobalStep(now);
        if constexpr (kGuards)
            guardCycleLegacy(c, now);
        if ((now & 255) == 0)
            sampleOccupancy(c);
    }
}

template <class Policy>
void
VctEngine<Policy>::shardCyclePhase1(ShardCtx &c, long long now)
{
    processReleases(c, now);
    if (wl_ != nullptr)
        processWorkloadWakes(c, now);
    else
        processGeneration(c, now);
    processInjection(c, now);
    arbitrateShard(c, now);
}

template <class Policy>
void
VctEngine<Policy>::shardCyclePhase2(ShardCtx &c, long long now)
{
    drainOutboxes(c, now);
    if ((now & 255) == 0)
        sampleOccupancy(c);
}

template <class Policy>
void
VctEngine<Policy>::runSharded(long long total)
{
    const int S = static_cast<int>(shards_.size());

    // Per-shard stagger draws, in shard order: the start times of a
    // shard's terminals depend only on that shard's RNG stream
    // (open-loop only; a workload drives all generation itself).
    for (ShardCtx &c : shards_) {
        const long long gen_end = std::min(c.term_end, active_terms_);
        for (long long t = c.term_begin;
             wl_ == nullptr && cfg_.load > 0.0 && t < gen_end; ++t) {
            long long start = static_cast<long long>(c.rng.uniform(
                static_cast<std::uint64_t>(cfg_.pkt_phits)));
            next_gen_[t] = start;
            c.gen_wheel[start % kGenWheel].push_back(
                static_cast<std::int32_t>(t));
        }
    }

    int jobs = cfg_.jobs;
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw == 0 ? 1 : static_cast<int>(hw);
    }
    const int T = std::min(jobs, S);

    if (T <= 1) {
        for (long long now = 0; now < total; ++now) {
            if (hookDue(now))
                runHook(now);
            for (ShardCtx &c : shards_)
                shardCyclePhase1(c, now);
            for (ShardCtx &c : shards_)
                shardCyclePhase2(c, now);
            if (wl_global_)
                workloadGlobalStep(now);
            if constexpr (kGuards) {
                if ((now & 255) == 0) {
                    guardConservationGlobal(now);
                    guardScanGlobal(now);
                }
            }
        }
        return;
    }

    core_detail::CycleBarrier barrier(T);
    auto worker = [&](int tid) {
        for (long long now = 0; now < total; ++now) {
            // Cycle hooks mutate shared routing state: park every
            // worker, let one apply the event, resume.  hook_idx_ only
            // moves inside this double barrier, so all threads agree
            // on hookDue(now) (the previous cycle's barriers order the
            // update before this read).
            if (hookDue(now)) {
                barrier.arriveAndWait();
                if (tid == 0)
                    runHook(now);
                barrier.arriveAndWait();
            }
            for (int k = tid; k < S; k += T)
                shardCyclePhase1(shards_[k], now);
            barrier.arriveAndWait();
            for (int k = tid; k < S; k += T)
                shardCyclePhase2(shards_[k], now);
            barrier.arriveAndWait();
            // Workload global step: one thread runs the cross-terminal
            // logic while everyone else is parked; the extra barrier
            // orders its sends/wakes before the next cycle's phase 1.
            if (wl_global_) {
                if (tid == 0)
                    workloadGlobalStep(now);
                barrier.arriveAndWait();
            }
            if constexpr (kGuards) {
                if ((now & 255) == 0) {
                    if (tid == 0) {
                        guardConservationGlobal(now);
                        guardScanGlobal(now);
                    }
                    barrier.arriveAndWait();
                }
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(T);
    for (int tid = 0; tid < T; ++tid)
        threads.emplace_back(worker, tid);
    for (auto &th : threads)
        th.join();
}

template <class Policy>
SimResult
VctEngine<Policy>::collectResult(double wall_seconds)
{
    SimResult r;
    r.offered = cfg_.load;
    r.telemetry_bin = cfg_.telemetry_bin;
    if (cfg_.telemetry_bin > 0) {
        auto nbins = static_cast<std::size_t>(
            (cfg_.warmup + cfg_.measure + cfg_.telemetry_bin - 1) /
            cfg_.telemetry_bin);
        r.delivered_bins.assign(nbins, 0);
    }
    LatencyHistogram hist;
    for (ShardCtx &c : shards_) {
        r.generated_packets += c.generated;
        r.delivered_packets += c.delivered;
        r.suppressed_packets += c.suppressed;
        r.unroutable_packets += c.unroutable;
        r.ejected_packets += c.ejected_all;
        r.dropped_packets += c.dropped;
        r.rerouted_packets += c.rerouted;
        r.route_retries += c.route_retries;
        r.in_flight_packets +=
            c.arena.size() - static_cast<long long>(c.free_pkts.size());
        for (std::size_t b = 0; b < c.bins.size(); ++b)
            r.delivered_bins[b] += c.bins[b];
        r.avg_latency += c.lat_sum;
        r.avg_hops += c.hop_sum;
        r.accepted += static_cast<double>(c.delivered_phits);
        hist.merge(c.lat_hist);
        r.perf.merge(c.perf);
        check_.merge(c.check);
    }
    for (long long t = 0; t < lay_.num_terms; ++t)
        r.queued_packets_end += sq_count_[t];
    r.accepted /= static_cast<double>(cfg_.measure) *
                  static_cast<double>(lay_.num_terms);
    if (r.delivered_packets > 0) {
        r.avg_latency /= static_cast<double>(r.delivered_packets);
        r.avg_hops /= static_cast<double>(r.delivered_packets);
        r.p50_latency = hist.quantile(0.50);
        r.p99_latency = hist.quantile(0.99);
    } else {
        r.avg_latency = 0.0;
        r.avg_hops = 0.0;
    }
    r.perf.cycles = cfg_.warmup + cfg_.measure;
    r.perf.wall_seconds = wall_seconds;
    r.perf.cycles_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(r.perf.cycles) / wall_seconds
            : 0.0;

    if (wl_ != nullptr) {
        WorkloadStats ws;
        for (ShardCtx &c : shards_)
            ws.merge(c.wl_stats);
        const WorkloadAccount acc = wl_->account();
        WorkloadMetrics &w = r.workload;
        w.active = true;
        w.name = wl_->name();
        w.messages_sent = ws.messages_sent;
        w.requests_sent = ws.requests_sent;
        w.responses_sent = ws.responses_sent;
        w.flows_completed = ws.flows_done;
        w.rpcs_completed = ws.rpcs_done;
        w.coflow_phases = ws.coflow_phases_all;
        w.goodput = static_cast<double>(ws.window_packets) *
                    cfg_.pkt_phits /
                    (static_cast<double>(cfg_.measure) *
                     static_cast<double>(lay_.num_terms));
        if (ws.fct_hist.count() > 0) {
            w.fct_mean =
                ws.fct_sum / static_cast<double>(ws.fct_hist.count());
            w.fct_p50 = ws.fct_hist.quantile(0.50);
            w.fct_p99 = ws.fct_hist.quantile(0.99);
            w.fct_max = static_cast<double>(ws.fct_hist.maxSample());
        }
        if (ws.rpc_hist.count() > 0) {
            w.rpc_mean =
                ws.rpc_sum / static_cast<double>(ws.rpc_hist.count());
            w.rpc_p50 = ws.rpc_hist.quantile(0.50);
            w.rpc_p99 = ws.rpc_hist.quantile(0.99);
            w.rpc_p999 = ws.rpc_hist.quantile(0.999);
            w.rpc_max = static_cast<double>(ws.rpc_hist.maxSample());
        }
        if (!ws.ccts.empty()) {
            double sum = 0.0, mx = 0.0;
            for (double v : ws.ccts) {
                sum += v;
                mx = std::max(mx, v);
            }
            w.cct_mean = sum / static_cast<double>(ws.ccts.size());
            w.cct_max = mx;
        }
        w.ccts = std::move(ws.ccts);
        w.msgs_created = acc.msgs_created;
        w.msgs_delivered = acc.msgs_delivered;
        w.pkts_created = acc.pkts_created;
        w.pkts_pending = acc.pkts_pending;
        w.pkts_received = acc.pkts_received;
        // Message conservation: every created packet is still buffered
        // in the workload, queued at a source, in flight, or received.
        w.conservation_residual =
            acc.pkts_created -
            (acc.pkts_pending + r.queued_packets_end +
             r.in_flight_packets + acc.pkts_received);
        w.eject_mismatch = r.ejected_packets - acc.pkts_received;
        if constexpr (kGuards) {
            check_.countChecks(2);
            if (w.conservation_residual != 0)
                check_.report(
                    "workload-conservation", win_end_, -1, -1,
                    "residual " +
                        std::to_string(w.conservation_residual) +
                        " (created " + std::to_string(acc.pkts_created) +
                        ", pending " + std::to_string(acc.pkts_pending) +
                        ", queued " +
                        std::to_string(r.queued_packets_end) +
                        ", in-flight " +
                        std::to_string(r.in_flight_packets) +
                        ", received " +
                        std::to_string(acc.pkts_received) + ")");
            if (w.eject_mismatch != 0)
                check_.report("workload-eject-accounting", win_end_, -1,
                              -1,
                              "ejected " +
                                  std::to_string(r.ejected_packets) +
                                  " != received " +
                                  std::to_string(acc.pkts_received));
        }
    }
    return r;
}

template <class Policy>
SimResult
VctEngine<Policy>::run()
{
    const long long total = cfg_.warmup + cfg_.measure;
    win_start_ = cfg_.warmup;
    win_end_ = total;

    auto t0 = std::chrono::steady_clock::now();
    // The traffic pattern is initialized from the base seed in both
    // modes, so legacy and sharded runs see the same demand matrix.
    traffic_.init(lay_.num_terms, rng_);
    if (active_terms_ < lay_.num_terms) {
        if (wl_ != nullptr)
            throw std::invalid_argument(
                "VctEngine: active_terminals gating is open-loop only "
                "(closed-loop workloads schedule every terminal)");
        traffic_.setActiveTerminals(active_terms_);
    }
    // Legacy mode continues drawing from the very stream that seeded
    // the traffic, exactly like the pre-refactor single-RNG loop.
    if (!sharded_)
        shards_[0].rng = rng_;

    if (wl_ != nullptr) {
        // The workload draws from its own deriveSeed stream and every
        // terminal gets an initial wake at cycle 0 (pushed onto its
        // owner shard's wheel so the callback runs on the right
        // thread).
        wl_->init(lay_.num_terms, win_start_, win_end_,
                  deriveSeed(cfg_.seed, 0x574C4F41ULL, 0));
        for (ShardCtx &c : shards_) {
            for (long long t = c.term_begin; t < c.term_end; ++t) {
                wl_next_[t] = 0;
                c.gen_wheel[0].push_back(static_cast<std::int32_t>(t));
            }
        }
    }

    if (sharded_)
        runSharded(total);
    else
        runLegacy(total);

    auto t1 = std::chrono::steady_clock::now();
    return collectResult(
        std::chrono::duration<double>(t1 - t0).count());
}

} // namespace rfc

#endif // RFC_SIM_CORE_ENGINE_HPP
