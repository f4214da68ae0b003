#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "analysis/fault_sweep.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "exp/experiment.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

using namespace rfc;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU seconds over all threads (user + system). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Add @p v to layer metric @p name and to its @p split variant. */
void
add(Round &rd, const std::string &name, const std::string &split, double v)
{
    rd.layer[name] += v;
    if (!split.empty())
        rd.layer[name + "." + split] += v;
}

void
addMax(Round &rd, const std::string &name, const std::string &split,
       double v)
{
    rd.layer[name] = std::max(rd.layer[name], v);
    if (!split.empty()) {
        double &s = rd.layer[name + "." + split];
        s = std::max(s, v);
    }
}

/** Record one failed check of the current operation. */
void
fail(Round &rd, bool &op_ok, const std::string &what)
{
    rd.failures.push_back(what);
    if (op_ok)
        ++rd.failed;
    op_ok = false;
}

std::string
loadTag(double load)
{
    std::ostringstream os;
    os << "l" << load;
    std::string s = os.str();
    if (s.find('.') == std::string::npos)
        s += ".0";
    return s;
}

/** Fig 8's 3-level CFT and its equal-resources RFC, with oracles. */
struct Nets
{
    FoldedClos cft;
    FoldedClos rfc;
    UpDownOracle o_cft;
    UpDownOracle o_rfc;
};

void
buildNets(Nets &n, int radix, std::uint64_t seed, Tracer &tr, Round &rd)
{
    {
        Span s(tr, "clos.build");
        n.cft = buildCft(radix, 3);
        add(rd, "clos.build_s", "cft", s.stop());
    }
    {
        Span s(tr, "clos.build");
        Rng rng(seed);
        RfcBuildResult b = buildRfc(radix, 3, n.cft.numLeaves(), rng);
        s.count("attempts", b.attempts);
        if (!b.routable)
            throw std::runtime_error("RFC is not up/down routable");
        n.rfc = std::move(b.topology);
        add(rd, "clos.build_s", "rfc", s.stop());
    }
    {
        Span s(tr, "routing.oracle_build");
        n.o_cft.build(n.cft);
        add(rd, "routing.oracle_build_s", "cft", s.stop());
    }
    {
        Span s(tr, "routing.oracle_build");
        n.o_rfc.build(n.rfc);
        add(rd, "routing.oracle_build_s", "rfc", s.stop());
    }
}

/** One packet trial: a constructed simulator waiting for run(). */
struct Trial
{
    std::string split;  //!< "<net>.<load tag>" metric suffix
    SimConfig cfg;
    std::unique_ptr<Traffic> traffic;
    std::unique_ptr<Simulator> sim;
    long long expect_detach = -1;  //!< drill only: plan op counts
    long long expect_attach = -1;
    long long change_at = 0;
};

int
simThreads(const SimConfig &cfg)
{
    return cfg.shards == 0 ? 1 : std::max(1, std::min(cfg.jobs, cfg.shards));
}

void
writeCounts(JsonWriter &w, const std::vector<long long> &v)
{
    w.beginArray();
    for (long long x : v)
        w.value(static_cast<std::int64_t>(x));
    w.endArray();
}

/** Run one trial as one operation: time, check, record its outputs. */
SimResult
runTrial(Trial &t, Tracer &tr, Round &rd, JsonWriter &w)
{
    tr.beginOp();
    Span op(tr, "op.trial");
    const double cpu0 = cpuSeconds();
    Span run(tr, "sim.run");
    SimResult r = t.sim->run();
    const double dt = run.stop();
    const double cpu = cpuSeconds() - cpu0;
    const PerfCounters &p = r.perf;
    run.count("cycles", static_cast<double>(p.cycles));
    run.count("forwards", static_cast<double>(p.forwards));
    run.count("switch_scans", static_cast<double>(p.switch_scans));
    run.count("arb_conflicts", static_cast<double>(p.arb_conflicts));
    run.count("credit_stalls", static_cast<double>(p.credit_stalls));

    ++rd.ops;
    bool ok = true;
    const long long gap = conservationGap(r);
    if (gap != 0)
        fail(rd, ok, t.split + ": conservation gap " + std::to_string(gap));
    if (t.expect_detach >= 0 &&
        (r.expansion.links_detached != t.expect_detach ||
         r.expansion.links_attached != t.expect_attach))
        fail(rd, ok,
             t.split + ": detached/attached " +
                 std::to_string(r.expansion.links_detached) + "/" +
                 std::to_string(r.expansion.links_attached) +
                 ", plan has " + std::to_string(t.expect_detach) + "/" +
                 std::to_string(t.expect_attach));

    rd.run_s += dt;
    rd.cycles += p.cycles;
    rd.forwards += p.forwards;
    const std::string &sp = t.split;
    add(rd, "sim.run_s", sp, dt);
    add(rd, "sim.forwards", sp, static_cast<double>(p.forwards));
    add(rd, "sim.switch_scans", sp, static_cast<double>(p.switch_scans));
    add(rd, "sim.arb_conflicts", sp, static_cast<double>(p.arb_conflicts));
    add(rd, "sim.credit_stalls", sp, static_cast<double>(p.credit_stalls));
    add(rd, "sim.dropped", sp, static_cast<double>(r.dropped_packets));
    add(rd, "sim.route_retries", sp, static_cast<double>(r.route_retries));
    add(rd, "sim.rerouted", sp, static_cast<double>(r.rerouted_packets));
    addMax(rd, "sim.barrier_inflight_max", sp,
           static_cast<double>(r.expansion.barrier_inflight_max));
    add(rd, "sim._cpu_s", sp, cpu);
    add(rd, "sim._thread_s", sp, dt * simThreads(t.cfg));

    w.beginObject();
    w.kv("trial", sp);
    w.kv("offered", r.offered);
    w.kv("accepted", r.accepted);
    w.kv("avg_latency", r.avg_latency);
    w.kv("p50_latency", r.p50_latency);
    w.kv("p99_latency", r.p99_latency);
    w.kv("avg_hops", r.avg_hops);
    w.kv("generated", static_cast<std::int64_t>(r.generated_packets));
    w.kv("delivered", static_cast<std::int64_t>(r.delivered_packets));
    w.kv("suppressed", static_cast<std::int64_t>(r.suppressed_packets));
    w.kv("unroutable", static_cast<std::int64_t>(r.unroutable_packets));
    w.kv("ejected", static_cast<std::int64_t>(r.ejected_packets));
    w.kv("dropped", static_cast<std::int64_t>(r.dropped_packets));
    w.kv("rerouted", static_cast<std::int64_t>(r.rerouted_packets));
    w.kv("route_retries", static_cast<std::int64_t>(r.route_retries));
    w.kv("in_flight_end", static_cast<std::int64_t>(r.in_flight_packets));
    w.kv("queued_end", static_cast<std::int64_t>(r.queued_packets_end));
    w.kv("conservation_gap", static_cast<std::int64_t>(gap));
    w.kv("cycles", static_cast<std::int64_t>(p.cycles));
    w.kv("forwards", static_cast<std::int64_t>(p.forwards));
    w.kv("switch_scans", static_cast<std::int64_t>(p.switch_scans));
    w.kv("arb_conflicts", static_cast<std::int64_t>(p.arb_conflicts));
    w.kv("credit_stalls", static_cast<std::int64_t>(p.credit_stalls));
    w.key("vc_occupancy");
    writeCounts(w, p.occupancy);
    if (r.expansion.active) {
        const ExpansionCounters &e = r.expansion;
        w.kv("links_detached", static_cast<std::int64_t>(e.links_detached));
        w.kv("links_attached", static_cast<std::int64_t>(e.links_attached));
        w.kv("switches_added", static_cast<std::int64_t>(e.switches_added));
        w.kv("terminals_activated",
             static_cast<std::int64_t>(e.terminals_activated));
        w.kv("barrier_inflight_max",
             static_cast<std::int64_t>(e.barrier_inflight_max));
        const RecoveryStats rs =
            computeRecovery(r.delivered_bins, r.telemetry_bin, p.cycles,
                            t.change_at);
        w.kv("baseline_per_cycle", rs.baseline);
        w.kv("dip_fraction", rs.dip_fraction);
        w.kv("time_to_reconverge",
             static_cast<std::int64_t>(rs.time_to_reconverge));
        w.key("delivered_bins");
        writeCounts(w, r.delivered_bins);
    }
    w.endObject();
    op.stop();
    tr.endOp();
    return r;
}

/** Construct the simulator of @p t on a static network (set-up). */
void
constructStatic(Trial &t, const FoldedClos &fc, const UpDownOracle &o,
                Tracer &tr, Round &rd)
{
    t.traffic = makeTraffic("uniform");
    Span s(tr, "sim.ctor");
    t.sim = std::make_unique<Simulator>(fc, o, *t.traffic, t.cfg);
    add(rd, "sim.ctor_s", t.split, s.stop());
}

/** One offered load of a packet workload and its run length. */
struct LoadSpec
{
    double load;
    long long warmup;
    long long measure;
};

/** Loads and execution settings of a packet workload. */
struct VctSpec
{
    int radix;
    std::vector<LoadSpec> loads;
    int shards;  //!< SimConfig::shards (0 = the library default mode)
    int jobs;
};

SimConfig
vctConfig(const VctSpec &spec, const RunOptions &o, const LoadSpec &ls)
{
    SimConfig c;
    c.warmup = o.quick ? ls.warmup / 4 : ls.warmup;
    c.measure = o.quick ? ls.measure / 4 : ls.measure;
    c.load = ls.load;
    c.seed = o.seed;
    c.shards = spec.shards;
    c.jobs = o.threads > 0 ? o.threads : spec.jobs;
    return c;
}

// Accepted load settles (seed 1, delivered packets per 250-cycle bin
// within 2 % of the final rate) after about 600 cycles at load 0.6,
// 2,250 at load 1.0 for R = 24, and at load 1.0 for R = 36 after 1,500
// (RFC) and 2,750 (CFT).
//
// vct_serial_r24: legacy execution mode (SimConfig{}.shards) on one
// thread - how every bench runs today, no barriers at all.  Every trial
// measures past the settling point.
const VctSpec kSerial{24, {{0.6, 700, 1000}, {1.0, 2500, 1000}},
                      SimConfig{}.shards, 1};
// vct_paper_sharded: the Fig 8 scale (R = 36, 11,664 terminals) with
// shards = 4 on one thread.  Threads waiting at every cycle barrier
// made its time depend on the host: ten runs on 4 threads spread 36 %,
// and on 2 threads 16 % in one set and 43 % in another, while the
// one-thread workloads stayed at 10 %.  One thread takes about twice as
// long, so the load-1.0 trials measure from cycle 1,500: past settling
// for the RFC, within 4 % of it for the CFT.
const VctSpec kPaper{36, {{0.6, 600, 200}, {1.0, 1500, 250}}, 4, 1};

void
vctRound(const VctSpec &spec, const RunOptions &o, Tracer &tr, Round &rd)
{
    const auto t0 = Clock::now();
    Nets n;
    std::vector<Trial> trials;
    {
        Span setup(tr, "setup");
        buildNets(n, spec.radix, o.seed, tr, rd);
        for (int net = 0; net < 2; ++net)
            for (const LoadSpec &ls : spec.loads) {
                Trial t;
                t.split = std::string(net == 0 ? "cft." : "rfc.") +
                          loadTag(ls.load);
                t.cfg = vctConfig(spec, o, ls);
                constructStatic(t, net == 0 ? n.cft : n.rfc,
                                net == 0 ? n.o_cft : n.o_rfc, tr, rd);
                trials.push_back(std::move(t));
            }
    }
    rd.setup_s = secondsSince(t0);
    if (o.setup_only)
        return;

    const auto t1 = Clock::now();
    std::ostringstream os;
    JsonWriter w(os, 1);
    w.beginObject();
    w.kv("terminals", static_cast<std::int64_t>(n.cft.numTerminals()));
    w.kv("rfc_wires", static_cast<std::int64_t>(n.rfc.numWires()));
    w.key("trials");
    w.beginArray();
    for (Trial &t : trials) {
        const SimResult r = runTrial(t, tr, rd, w);
        if (t.cfg.load == 1.0)
            rd.cross_tier[t.split.substr(0, 3) + ".vct_accepted_l1.0"] =
                r.accepted;
    }
    w.endArray();
    w.endObject();
    rd.wall_s = secondsSince(t1);
    rd.results = os.str();
}

// drill_sharded: ext_expansion_drill's default scale and schedule, in
// sharded mode on one thread.  Its per-cycle work is so small that
// with 2 threads the barrier wait set the time, and on a shared host
// that wait doubled in busy phases (ten runs spread 61 %).
constexpr int kDrillRadix = 12;
constexpr int kDrillSteps = 2;
constexpr long long kDrillWarmup = 600;
constexpr long long kDrillMeasure = 3000;
constexpr int kDrillShards = 4;
constexpr int kDrillJobs = 1;

/**
 * Replay @p tl on a standalone oracle over @p fc, timing every
 * applyTopologyEvent call: the engine repairs its oracle inside run(),
 * where the benchmark cannot reach it.
 */
void
replayRepairs(const FoldedClos &fc, const TopologyTimeline &tl,
              const std::string &split, Tracer &tr, Round &rd)
{
    LinkFaultState overlay(fc);
    for (const ClosLink &l : tl.initialDead())
        overlay.setLink(l.lower, l.upper, true);
    UpDownOracle oracle;
    oracle.build(fc, &overlay);
    for (const TopologyEvent &e : tl.events()) {
        const bool kill = e.op == TopoOp::kFail || e.op == TopoOp::kDetach;
        const bool revive =
            e.op == TopoOp::kRepair || e.op == TopoOp::kAttach;
        if (!(kill || revive) || !overlay.setLink(e.lower, e.upper, kill))
            continue;
        Span s(tr, "routing.oracle_repair");
        oracle.applyTopologyEvent(fc, e);
        add(rd, "routing.oracle_repair_s", split, s.stop());
        add(rd, "routing.oracle_repair_events", split, 1.0);
    }
}

void
drillRound(const RunOptions &o, Tracer &tr, Round &rd, bool replay)
{
    const auto t0 = Clock::now();
    FoldedClos cft, rfc;
    std::unique_ptr<ExpansionPlan> plan;
    FoldedClos rfc_union;
    TopologyTimeline tl_expand, tl_forklift;
    MorphPlan forklift;
    std::vector<Trial> trials;

    SimConfig base;
    base.warmup = o.quick ? kDrillWarmup / 4 : kDrillWarmup;
    base.measure = o.quick ? kDrillMeasure / 4 : kDrillMeasure;
    base.seed = o.seed;
    base.load = 0.6;
    base.shards = kDrillShards;
    base.jobs = o.threads > 0 ? o.threads : kDrillJobs;
    base.route_ttl = 256;
    const long long total = base.warmup + base.measure;
    base.telemetry_bin = std::max<long long>(total / 40, 1);
    const long long change_at = total / 3;
    const long long spacing = std::max<long long>(total / (3 * kDrillSteps), 1);
    const long long activate_delay = 2LL * base.pkt_phits;
    {
        Span setup(tr, "setup");
        {
            Span s(tr, "clos.build");
            cft = buildCft(kDrillRadix, 3);
            add(rd, "clos.build_s", "cft", s.stop());
        }
        {
            Span s(tr, "clos.build");
            Rng rng(o.seed);
            RfcBuildResult b = buildRfc(kDrillRadix, 3, cft.numLeaves(), rng);
            if (!b.routable)
                throw std::runtime_error("base RFC is not up/down routable");
            rfc = std::move(b.topology);
            add(rd, "clos.build_s", "rfc", s.stop());
        }
        // Strong expansion keeps routability only w.h.p., so re-plan
        // from derived seeds until the end state routes (as the drill
        // bench does).
        for (std::uint64_t attempt = 0; attempt < 64 && !plan; ++attempt) {
            Span s(tr, "clos.plan");
            Rng r(deriveSeed(o.seed, 0xE59AULL, attempt));
            auto p = std::make_unique<ExpansionPlan>(rfc, kDrillSteps, r);
            add(rd, "clos.plan_s", "rfc", s.stop());
            Span so(tr, "routing.oracle_build");
            const bool ok = UpDownOracle(p->finalTopology()).routable();
            add(rd, "routing.oracle_build_s", "rfc", so.stop());
            if (ok)
                plan = std::move(p);
        }
        if (!plan)
            throw std::runtime_error("no routable strong expansion");
        {
            Span s(tr, "clos.plan");
            rfc_union = plan->unionTopology();
            tl_expand = plan->liveTimeline(change_at, spacing, activate_delay);
            add(rd, "clos.plan_s", "rfc", s.stop());
        }
        {
            Span s(tr, "clos.plan");
            forklift = planMorph(cft, plan->finalTopology());
            tl_forklift = forklift.liveTimeline(change_at, activate_delay);
            add(rd, "clos.plan_s", "cft", s.stop());
        }
        long long rfc_ops = 0;
        for (const ExpansionStage &st : plan->stages())
            rfc_ops += static_cast<long long>(st.ops.size());

        auto live = [&](const char *split, const FoldedClos &fc,
                        const TopologyTimeline &tl, long long gate,
                        long long detach, long long attach) {
            Trial t;
            t.split = split;
            t.cfg = base;
            t.cfg.active_terminals = gate;
            t.expect_detach = detach;
            t.expect_attach = attach;
            t.change_at = tl.firstDisruptionCycle();
            t.traffic = makeTraffic("uniform");
            Span s(tr, "sim.ctor");
            t.sim = std::make_unique<Simulator>(fc, *t.traffic, t.cfg, tl);
            add(rd, "sim.ctor_s", t.split, s.stop());
            trials.push_back(std::move(t));
        };
        live("rfc.expand", rfc_union, tl_expand, plan->baseTerminals(),
             rfc_ops, 2 * rfc_ops);
        live("cft.forklift", forklift.union_topology, tl_forklift,
             cft.numTerminals(),
             static_cast<long long>(forklift.detach.size()),
             static_cast<long long>(forklift.attach.size()));
    }
    rd.setup_s = secondsSince(t0);
    if (o.setup_only)
        return;

    const auto t1 = Clock::now();
    std::ostringstream os;
    JsonWriter w(os, 1);
    w.beginObject();
    w.kv("base_terminals", static_cast<std::int64_t>(plan->baseTerminals()));
    w.kv("added_terminals",
         static_cast<std::int64_t>(plan->addedTerminals()));
    w.kv("rfc_rewired", static_cast<std::int64_t>(plan->rewired()));
    w.kv("forklift_detach", static_cast<std::int64_t>(forklift.detach.size()));
    w.kv("forklift_attach", static_cast<std::int64_t>(forklift.attach.size()));
    w.key("trials");
    w.beginArray();
    for (Trial &t : trials)
        runTrial(t, tr, rd, w);
    w.endArray();
    w.endObject();
    rd.wall_s = secondsSince(t1);
    rd.results = os.str();

    if (replay) {
        replayRepairs(rfc_union, tl_expand, "rfc.expand", tr, rd);
        replayRepairs(forklift.union_topology, tl_forklift, "cft.forklift",
                      tr, rd);
    }
}

// fluid_paper: the R = 36 networks through forwarding tables, the flow
// solver and the queue tier on one thread (a pool with no workers).  On
// a 4-thread pool the solver and the queue sweep waited for whichever
// vCPU the host had descheduled, and ten runs spread 0.19-0.26 in
// wall_s; --threads 4 still runs that pool.  Its packet probe (every
// workload reports every end-to-end metric) is the first 800 cycles at
// load 1.0 in sharded mode on one thread, where it times most steadily.
// The probe pair runs twice, at the start and at the end of the round:
// the host's speed swings over 10-30 s, so two windows that far apart
// time the engine more steadily than one window twice as long.
constexpr int kFluidThreads = 1;
constexpr LoadSpec kFluidProbe{1.0, 150, 650};
constexpr int kFluidMaxPaths = 16;
constexpr int kFluidUniformSamples = 4;

void
fluidRound(const RunOptions &o, Tracer &tr, Round &rd)
{
    const int threads = o.threads > 0 ? o.threads : kFluidThreads;
    const auto t0 = Clock::now();
    Nets n;
    std::unique_ptr<ForwardingTables> tables[2];
    std::vector<Trial> probes;
    ThreadPool pool(threads - 1);  // the caller is the last thread
    {
        Span setup(tr, "setup");
        buildNets(n, kPaper.radix, o.seed, tr, rd);
        for (int net = 0; net < 2; ++net) {
            const char *split = net == 0 ? "cft" : "rfc";
            Span s(tr, "routing.tables_build");
            tables[net] = std::make_unique<ForwardingTables>(
                net == 0 ? n.cft : n.rfc, net == 0 ? n.o_cft : n.o_rfc);
            add(rd, "routing.tables_build_s", split, s.stop());
            add(rd, "routing.tables_bytes", split,
                static_cast<double>(tables[net]->memoryBytes()));
        }
        for (int i = 0; i < 4; ++i) {  // two CFT, RFC pairs
            const int net = i % 2;
            Trial t;
            t.split = std::string(net == 0 ? "cft." : "rfc.") + loadTag(1.0);
            t.cfg = vctConfig(kPaper, o, kFluidProbe);
            t.cfg.jobs = 1;
            constructStatic(t, net == 0 ? n.cft : n.rfc,
                            net == 0 ? n.o_cft : n.o_rfc, tr, rd);
            probes.push_back(std::move(t));
        }
    }
    rd.setup_s = secondsSince(t0);
    if (o.setup_only)
        return;

    const auto t1 = Clock::now();
    std::ostringstream os;
    JsonWriter w(os, 1);
    w.beginObject();
    w.kv("terminals", static_cast<std::int64_t>(n.cft.numTerminals()));
    // Operations: the first packet probe pair, before the solver.
    w.key("vct_probe");
    w.beginArray();
    runTrial(probes[0], tr, rd, w);
    runTrial(probes[1], tr, rd, w);
    w.endArray();
    w.key("networks");
    w.beginArray();
    for (int net = 0; net < 2; ++net) {
        const std::string split = net == 0 ? "cft" : "rfc";
        const FoldedClos &fc = net == 0 ? n.cft : n.rfc;
        const UpDownOracle &oracle = net == 0 ? n.o_cft : n.o_rfc;
        w.beginObject();
        w.kv("net", split);
        w.kv("table_entries",
             static_cast<std::int64_t>(tables[net]->populatedEntries()));

        DemandMatrix dm;
        {
            Span s(tr, "flow.demand");
            dm = makeDemandMatrix("uniform", fc.numTerminals(), o.seed,
                                  kFluidUniformSamples);
            add(rd, "flow.demand_s", split, s.stop());
        }
        UpDownEcmpPaths provider(fc, oracle, kFluidMaxPaths, o.seed);
        FlowProblem problem;
        {
            Span s(tr, "flow.problem_build");
            problem = buildClosFlowProblem(fc, provider, dm, &pool);
            add(rd, "flow.problem_build_s", split, s.stop());
            add(rd, "flow.paths", split,
                static_cast<double>(problem.numPathsTotal()));
        }
        w.kv("demands", static_cast<std::int64_t>(dm.demands.size()));
        w.kv("paths", static_cast<std::int64_t>(problem.numPathsTotal()));

        // Operation: the concurrent-flow solve and the ECMP fluid pass.
        {
            tr.beginOp();
            Span op(tr, "op.flow");
            ++rd.ops;
            bool ok = true;
            SolveOptions so;
            if (o.quick)
                so.max_phases /= 10;
            so.pool = &pool;
            const double cpu0 = cpuSeconds();
            Span s(tr, "flow.solve");
            FlowSolution sol = solveMaxConcurrentFlow(problem, so);
            const double dt = s.stop();
            s.count("phases", sol.phases);
            add(rd, "flow.solve_s", split, dt);
            add(rd, "flow.phases", split, sol.phases);
            add(rd, "flow._cpu_s", split, cpuSeconds() - cpu0);
            add(rd, "flow._thread_s", split, dt * threads);
            if (!(sol.throughput <= sol.dual_bound))
                fail(rd, ok, split + ": throughput exceeds the dual bound");
            if (sol.routed_demands + sol.unrouted_demands !=
                problem.numDemands())
                fail(rd, ok, split + ": routed + unrouted != demands");
            Span se(tr, "flow.ecmp");
            EcmpFluidResult ecmp = ecmpFluid(problem, &pool);
            add(rd, "flow.ecmp_s", split, se.stop());
            rd.cross_tier[split + ".gk_lambda"] = sol.throughput;
            rd.cross_tier[split + ".ecmp_saturation"] = ecmp.saturation;
            w.kv("gk_lambda", sol.throughput);
            w.kv("gk_dual_bound", sol.dual_bound);
            w.kv("gk_converged", sol.converged);
            w.kv("gk_phases", static_cast<std::int64_t>(sol.phases));
            w.kv("routed", static_cast<std::int64_t>(sol.routed_demands));
            w.kv("unrouted", static_cast<std::int64_t>(sol.unrouted_demands));
            w.kv("ecmp_saturation", ecmp.saturation);
            w.kv("ecmp_worst", ecmp.worst);
            w.kv("ecmp_average", ecmp.average);
            op.stop();
            tr.endOp();
        }

        // Operation: the M/D/1 latency sweep.
        {
            tr.beginOp();
            Span op(tr, "op.queue");
            ++rd.ops;
            bool ok = true;
            Mg1Model model(16, 0);
            QueueSweepOptions qo;
            for (int i = 1; i <= 9; ++i)
                qo.loads.push_back(i / 10.0);
            qo.pool = &pool;
            const double cpu0 = cpuSeconds();
            Span s(tr, "queue.sweep");
            QueueSweepResult q = queueLatencySweep(problem, model, qo);
            const double dt = s.stop();
            add(rd, "queue.sweep_s", split, dt);
            add(rd, "queue._cpu_s", split, cpuSeconds() - cpu0);
            add(rd, "queue._thread_s", split, dt * threads);
            double prev = -std::numeric_limits<double>::infinity();
            w.kv("queue_saturation", q.saturation);
            w.kv("queue_zero_load_latency", q.zero_load_latency);
            w.key("queue_curve");
            w.beginArray();
            for (const QueueLoadPoint &pt : q.points) {
                if (pt.saturated != (pt.max_utilization >= 1.0))
                    fail(rd, ok, split + ": saturated flag disagrees with "
                                         "max_utilization at load " +
                                         std::to_string(pt.load));
                if (!pt.saturated) {
                    if (!(pt.mean_latency > prev))
                        fail(rd, ok, split + ": mean latency does not rise "
                                             "at load " +
                                             std::to_string(pt.load));
                    prev = pt.mean_latency;
                }
                w.beginObject();
                w.kv("load", pt.load);
                w.kv("saturated", pt.saturated);
                w.kv("mean", pt.mean_latency);
                w.kv("p50", pt.p50_latency);
                w.kv("p99", pt.p99_latency);
                w.kv("max_utilization", pt.max_utilization);
                w.endObject();
            }
            w.endArray();
            op.stop();
            tr.endOp();
        }

        w.endObject();
    }
    w.endArray();
    // Operations: the second packet probe pair, after the queue sweep.
    w.key("vct_probe_end");
    w.beginArray();
    runTrial(probes[2], tr, rd, w);
    runTrial(probes[3], tr, rd, w);
    w.endArray();
    w.endObject();
    rd.wall_s = secondsSince(t1);
    rd.results = os.str();
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"vct_serial_r24", kSerial.jobs,
         [](const RunOptions &o, Tracer &tr, Round &rd) {
             vctRound(kSerial, o, tr, rd);
         }},
        {"vct_paper_sharded", kPaper.jobs,
         [](const RunOptions &o, Tracer &tr, Round &rd) {
             vctRound(kPaper, o, tr, rd);
         }},
        {"drill_sharded", kDrillJobs,
         [](const RunOptions &o, Tracer &tr, Round &rd) {
             drillRound(o, tr, rd, tr.enabled());
         }},
        {"fluid_paper", kFluidThreads,
         [](const RunOptions &o, Tracer &tr, Round &rd) {
             fluidRound(o, tr, rd);
         }},
    };
    return all;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> all = {
        {"clos.build_s", "s", "lower"},
        {"clos.plan_s", "s", "lower"},
        {"routing.oracle_build_s", "s", "lower"},
        {"routing.tables_build_s", "s", "lower"},
        {"routing.tables_bytes", "bytes", "lower"},
        {"routing.oracle_repair_s", "s", "lower"},
        {"routing.oracle_repair_events", "count", "lower"},
        {"sim.ctor_s", "s", "lower"},
        {"sim.run_s", "s", "lower"},
        {"sim.ns_per_forward", "ns", "lower"},
        {"sim.thread_idle_frac", "fraction", "lower"},
        {"sim.forwards", "count", "higher"},
        {"sim.switch_scans", "count", "lower"},
        {"sim.arb_conflicts", "count", "lower"},
        {"sim.credit_stalls", "count", "lower"},
        {"sim.arb_win_ratio", "fraction", "higher"},
        {"sim.credit_block_ratio", "fraction", "lower"},
        {"sim.dropped", "count", "lower"},
        {"sim.route_retries", "count", "lower"},
        {"sim.rerouted", "count", "higher"},
        {"sim.barrier_inflight_max", "count", "lower"},
        {"flow.demand_s", "s", "lower"},
        {"flow.problem_build_s", "s", "lower"},
        {"flow.paths", "count", "lower"},
        {"flow.solve_s", "s", "lower"},
        {"flow.phases", "count", "lower"},
        {"flow.ms_per_phase", "ms", "lower"},
        {"flow.thread_idle_frac", "fraction", "lower"},
        {"flow.ecmp_s", "s", "lower"},
        {"queue.sweep_s", "s", "lower"},
        {"queue.thread_idle_frac", "fraction", "lower"},
        {"trace.overhead_s", "s", "lower"},
    };
    return all;
}

} // namespace perfbench
