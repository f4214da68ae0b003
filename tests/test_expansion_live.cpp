/**
 * @file
 * Tests for the live topology-change pipeline (tier 1): the
 * TopologyTimeline event model, the union/overlay run of an
 * ExpansionPlan against the cycle-driven simulator (crosschecked
 * incremental oracle extension, conservation, counters, activation
 * barrier), morph drills, and bit-identical determinism at any thread
 * count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "check/invariants.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "clos/topology_events.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace rfc {
namespace {

// ======================================================================
// TopologyTimeline event model
// ======================================================================

TEST(TopologyTimeline, KeepsEventsSortedWithStableTiesAndValidates)
{
    TopologyTimeline tl;
    tl.detach(50, 0, 1)
        .attach(10, 2, 3)
        .fail(50, 4, 5)
        .repair(10, 6, 7);
    tl.addSwitch(50, 9);
    tl.activateTerminals(50, 40);
    ASSERT_EQ(tl.size(), 6u);
    const auto &ev = tl.events();
    EXPECT_EQ(ev[0].op, TopoOp::kAttach);   // cycle 10, inserted first
    EXPECT_EQ(ev[1].op, TopoOp::kRepair);
    EXPECT_EQ(ev[2].op, TopoOp::kDetach);   // cycle 50, insertion order
    EXPECT_EQ(ev[3].op, TopoOp::kFail);
    EXPECT_EQ(ev[4].op, TopoOp::kAddSwitch);
    EXPECT_EQ(ev[4].lower, 9);
    EXPECT_EQ(ev[5].op, TopoOp::kActivateTerminals);
    EXPECT_EQ(ev[5].count, 40);
    EXPECT_EQ(tl.lastEventCycle(), 50);
    EXPECT_THROW(tl.detach(-1, 0, 1), std::invalid_argument);
    EXPECT_THROW(tl.activateTerminals(5, -2), std::invalid_argument);
}

TEST(TopologyTimeline, DisruptionAndStagingSemantics)
{
    TopologyTimeline tl;
    EXPECT_EQ(tl.firstDisruptionCycle(), -1);
    EXPECT_EQ(tl.lastEventCycle(), -1);
    tl.attach(5, 0, 10).addSwitch(5, 10).activateTerminals(9, 12);
    // Attach-only upgrades disrupt nothing.
    EXPECT_EQ(tl.firstDisruptionCycle(), -1);
    ASSERT_EQ(tl.initialDead().size(), 1u);
    EXPECT_EQ(tl.initialDead()[0].lower, 0);
    EXPECT_EQ(tl.initialDead()[0].upper, 10);
    tl.detach(7, 1, 11);
    EXPECT_EQ(tl.firstDisruptionCycle(), 7);
    tl.fail(3, 2, 12);
    EXPECT_EQ(tl.firstDisruptionCycle(), 3);
}

// ======================================================================
// Live expansion drill, end to end
// ======================================================================

SimConfig
liveConfig()
{
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 0.6;
    cfg.seed = 5;
    cfg.route_ttl = 64;
    cfg.telemetry_bin = 50;
    return cfg;
}

/** A small routable base with a routable 2-step expansion plan. */
std::unique_ptr<ExpansionPlan>
routablePlan(FoldedClos &base_out)
{
    Rng rng(11);
    auto built = buildRfc(8, 3, 20, rng);
    if (!built.routable)
        throw std::runtime_error("base RFC not routable");
    base_out = built.topology;
    for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
        Rng r(deriveSeed(11, 0xE59AULL, attempt));
        auto p = std::make_unique<ExpansionPlan>(base_out, 2, r);
        if (UpDownOracle(p->finalTopology()).routable())
            return p;
    }
    throw std::runtime_error("no routable expansion found");
}

void
expectConservation(const SimResult &r)
{
    EXPECT_EQ(r.generated_packets,
              r.queued_packets_end + r.suppressed_packets +
                  r.unroutable_packets + r.ejected_packets +
                  r.dropped_packets + r.in_flight_packets);
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.delivered_packets, b.delivered_packets);
    EXPECT_EQ(a.generated_packets, b.generated_packets);
    EXPECT_EQ(a.suppressed_packets, b.suppressed_packets);
    EXPECT_EQ(a.unroutable_packets, b.unroutable_packets);
    EXPECT_EQ(a.ejected_packets, b.ejected_packets);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.rerouted_packets, b.rerouted_packets);
    EXPECT_EQ(a.route_retries, b.route_retries);
    EXPECT_EQ(a.in_flight_packets, b.in_flight_packets);
    EXPECT_EQ(a.queued_packets_end, b.queued_packets_end);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.delivered_bins, b.delivered_bins);
    EXPECT_EQ(a.expansion.links_detached, b.expansion.links_detached);
    EXPECT_EQ(a.expansion.links_attached, b.expansion.links_attached);
    EXPECT_EQ(a.expansion.switches_added, b.expansion.switches_added);
    EXPECT_EQ(a.expansion.terminals_activated,
              b.expansion.terminals_activated);
    EXPECT_EQ(a.expansion.barrier_inflight_max,
              b.expansion.barrier_inflight_max);
}

TEST(LiveExpansion, CrosscheckedDrillEndsEqualToOfflineRebuild)
{
    FoldedClos base;
    auto plan = routablePlan(base);
    FoldedClos u = plan->unionTopology();
    TopologyTimeline tl = plan->liveTimeline(300, 200, 32);

    SimConfig cfg = liveConfig();
    cfg.fault_crosscheck = true;  // every event: repair == fresh build
    cfg.active_terminals = plan->baseTerminals();
    UniformTraffic traffic;
    Simulator sim(u, traffic, cfg, tl);
    SimResult r;
    ASSERT_NO_THROW(r = sim.run());

    expectConservation(r);
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_TRUE(r.expansion.active);
    EXPECT_EQ(r.expansion.links_detached, plan->rewired());
    EXPECT_EQ(r.expansion.links_attached, 2 * plan->rewired());
    EXPECT_EQ(r.expansion.switches_added, 2 * 5);  // 2 steps, l = 3
    EXPECT_EQ(r.expansion.terminals_activated, plan->addedTerminals());
    EXPECT_EQ(r.expansion.links_failed, 0);
    EXPECT_EQ(r.expansion.links_repaired, 0);
    EXPECT_GE(r.expansion.barrier_inflight_max, 0);

    // The simulator's oracle must end sameTables-equal to an offline
    // rebuild of the end state: the union fabric with every removed
    // link masked dead (== the final expanded topology).
    LinkFaultState end_state(u);
    for (const ExpansionStage &st : plan->stages())
        for (const RewireOp &op : st.ops)
            ASSERT_TRUE(end_state.setLink(op.removed.lower,
                                          op.removed.upper, true));
    UpDownOracle fresh;
    fresh.build(u, &end_state);
    ASSERT_NE(sim.faultOracle(), nullptr);
    EXPECT_TRUE(sim.faultOracle()->sameTables(fresh));
    EXPECT_TRUE(fresh.routable());
}

TEST(LiveExpansion, BitIdenticalAcrossSimJobsAndReproducible)
{
    FoldedClos base;
    auto plan = routablePlan(base);
    FoldedClos u = plan->unionTopology();
    TopologyTimeline tl = plan->liveTimeline(300, 200, 32);

    SimConfig cfg = liveConfig();
    cfg.active_terminals = plan->baseTerminals();
    cfg.shards = 4;

    auto run = [&](int jobs) {
        cfg.jobs = jobs;
        UniformTraffic traffic;
        Simulator sim(u, traffic, cfg, tl);
        return sim.run();
    };
    auto r1 = run(1);
    auto r4 = run(4);
    expectSameResult(r1, r4);
    auto r4b = run(4);
    expectSameResult(r4, r4b);

    // Legacy (unsharded) engine: reproducible run to run.
    cfg.shards = 0;
    auto l1 = run(1);
    auto l2 = run(1);
    expectSameResult(l1, l2);
}

TEST(LiveExpansion, StagedLinkAbsentFromTopologyThrows)
{
    FoldedClos base;
    auto plan = routablePlan(base);
    FoldedClos u = plan->unionTopology();
    TopologyTimeline tl;
    tl.attach(100, 0, u.numSwitches() - 1);  // no such link in the union
    SimConfig cfg = liveConfig();
    UniformTraffic traffic;
    EXPECT_THROW(Simulator(u, traffic, cfg, tl), std::invalid_argument);
}

TEST(LiveExpansion, MorphDrillRunsAndConverges)
{
    // The generic morph path live: base -> final of a 1-step plan, all
    // rewires in one barrier, crosschecked.
    FoldedClos base;
    auto staged = routablePlan(base);
    Rng r(deriveSeed(11, 0xE59AULL, 0));
    ExpansionPlan plan(base, 1, r);
    MorphPlan mp = planMorph(base, plan.finalTopology());

    SimConfig cfg = liveConfig();
    cfg.fault_crosscheck = true;
    cfg.active_terminals = mp.from_terminals;
    TopologyTimeline tl = mp.liveTimeline(300, 32);
    UniformTraffic traffic;
    Simulator sim(mp.union_topology, traffic, cfg, tl);
    SimResult res;
    ASSERT_NO_THROW(res = sim.run());
    expectConservation(res);
    EXPECT_EQ(res.expansion.links_detached,
              static_cast<long long>(mp.detach.size()));
    EXPECT_EQ(res.expansion.links_attached,
              static_cast<long long>(mp.attach.size()));
    EXPECT_EQ(res.expansion.terminals_activated,
              mp.to_terminals - mp.from_terminals);

    LinkFaultState end_state(mp.union_topology);
    for (const ClosLink &l : mp.detach)
        ASSERT_TRUE(end_state.setLink(l.lower, l.upper, true));
    UpDownOracle fresh;
    fresh.build(mp.union_topology, &end_state);
    ASSERT_NE(sim.faultOracle(), nullptr);
    EXPECT_TRUE(sim.faultOracle()->sameTables(fresh));
}

// ======================================================================
// Activation barrier and terminal gating
// ======================================================================

TEST(ActivationGating, InactiveTerminalsDoNotInject)
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    SimConfig cfg = liveConfig();

    UniformTraffic full_traffic;
    Simulator full(fc, oracle, full_traffic, cfg);
    auto r_full = full.run();

    cfg.active_terminals = fc.numTerminals() / 2;
    UniformTraffic gated_traffic;
    Simulator gated(fc, oracle, gated_traffic, cfg);
    auto r_gated = gated.run();

    // Half the sources, open-loop Bernoulli injection: the gated run
    // must generate far fewer packets (and all of them conserve).
    EXPECT_LT(r_gated.generated_packets, r_full.generated_packets);
    EXPECT_GT(r_gated.generated_packets, 0);
    expectConservation(r_gated);
}

TEST(ActivationGating, ConfigAndTrafficValidateTheGate)
{
    SimConfig cfg;
    cfg.active_terminals = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.active_terminals = -5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.active_terminals = -1;
    EXPECT_NO_THROW(cfg.validate());

    UniformTraffic traffic;
    Rng rng(3);
    traffic.init(16, rng);
    EXPECT_THROW(traffic.setActiveTerminals(0), std::invalid_argument);
    EXPECT_THROW(traffic.setActiveTerminals(17), std::invalid_argument);
    EXPECT_NO_THROW(traffic.setActiveTerminals(8));

    // All destinations drawn while gated stay inside the prefix.
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(traffic.dest(0, rng), 8);
}

TEST(ActivationGating, ActivationRaisesGeneratedTraffic)
{
    // Same gate, with vs without the mid-run activation barrier: the
    // activating run must end with more generated packets, and its
    // counters must record exactly the activated terminals.
    auto fc = buildCft(8, 2);
    SimConfig cfg = liveConfig();
    cfg.active_terminals = fc.numTerminals() / 2;

    TopologyTimeline activate;
    activate.activateTerminals(300, fc.numTerminals());
    UniformTraffic t1;
    Simulator with(fc, t1, cfg, activate);
    auto r_with = with.run();
    EXPECT_EQ(r_with.expansion.terminals_activated,
              fc.numTerminals() - fc.numTerminals() / 2);

    TopologyTimeline none;
    none.addSwitch(300, 0);  // non-empty timeline, no activation
    UniformTraffic t2;
    Simulator without(fc, t2, cfg, none);
    auto r_without = without.run();
    EXPECT_EQ(r_without.expansion.terminals_activated, 0);
    EXPECT_GT(r_with.generated_packets, r_without.generated_packets);
    expectConservation(r_with);
    expectConservation(r_without);
}

} // namespace
} // namespace rfc
