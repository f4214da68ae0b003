#include "exp/experiment.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "analysis/fault_sweep.hpp"
#include "routing/updown.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rfc {

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

TrafficFactory
namedTraffic(const std::string &name)
{
    return [name]() { return makeTraffic(name); };
}

SimResult
PointResult::toSimResult() const
{
    SimResult r;
    r.offered = offered;
    r.accepted = accepted.mean;
    r.avg_latency = avg_latency.mean;
    r.p50_latency = p50_latency.mean;
    r.p99_latency = p99_latency.mean;
    r.avg_hops = avg_hops.mean;
    r.delivered_packets = std::llround(delivered_packets.mean);
    r.generated_packets = std::llround(generated_packets.mean);
    r.suppressed_packets = std::llround(suppressed_packets.mean);
    r.unroutable_packets = std::llround(unroutable_packets.mean);
    r.dropped_packets = std::llround(dropped_packets.mean);
    r.rerouted_packets = std::llround(rerouted_packets.mean);
    r.route_retries = std::llround(route_retries.mean);
    r.perf = perf;
    return r;
}

ExperimentGrid &
ExperimentGrid::addNetwork(std::string label, const FoldedClos &fc,
                           const UpDownOracle &oracle)
{
    networks.push_back({std::move(label), &fc, &oracle});
    return *this;
}

ExperimentGrid &
ExperimentGrid::addPolicy(std::string label, ClosPolicy policy)
{
    policies.push_back({std::move(label), policy, RouteMode::kMinimal,
                        false});
    return *this;
}

ExperimentGrid &
ExperimentGrid::addPolicy(std::string label, ClosPolicy policy,
                          RouteMode mode)
{
    policies.push_back({std::move(label), policy, mode, true});
    return *this;
}

ExperimentGrid &
ExperimentGrid::addTraffic(const std::string &name)
{
    traffics.push_back({name, namedTraffic(name)});
    return *this;
}

ExperimentGrid &
ExperimentGrid::addTraffic(std::string label, TrafficFactory make)
{
    traffics.push_back({std::move(label), std::move(make)});
    return *this;
}

std::vector<TrialSpec>
ExperimentGrid::points() const
{
    // An empty policy axis degenerates to one implicit oblivious
    // entry that leaves base.route_mode alone and adds no label
    // segment - exactly the pre-policy grid, point for point.
    static const PolicySpec kImplicit{};
    std::vector<const PolicySpec *> pols;
    if (policies.empty())
        pols.push_back(&kImplicit);
    else
        for (const auto &pol : policies)
            pols.push_back(&pol);

    std::vector<TrialSpec> out;
    out.reserve(numPoints());
    for (const auto &net : networks) {
        for (const PolicySpec *pol : pols) {
            for (const auto &pat : traffics) {
                for (double load : loads) {
                    TrialSpec spec;
                    spec.topology = net.topology;
                    spec.oracle = net.oracle;
                    spec.traffic = pat.make;
                    spec.config = base;
                    spec.config.load = load;
                    spec.policy = pol->policy;
                    if (pol->override_mode)
                        spec.config.route_mode = pol->route_mode;
                    spec.label = policies.empty()
                                     ? net.label + "/" + pat.label
                                     : net.label + "/" + pol->label +
                                           "/" + pat.label;
                    out.push_back(std::move(spec));
                }
            }
        }
    }
    return out;
}

long long
conservationGap(const SimResult &r)
{
    return r.generated_packets -
           (r.suppressed_packets + r.unroutable_packets +
            r.queued_packets_end + r.in_flight_packets +
            r.ejected_packets + r.dropped_packets);
}

MetricStat
toMetricStat(const RunningStat &s)
{
    MetricStat m;
    m.mean = s.mean();
    m.stddev = s.stddev();
    m.ci95 = s.ci95();
    m.min = s.min();
    m.max = s.max();
    return m;
}

ExperimentEngine::ExperimentEngine(int jobs, std::uint64_t base_seed)
    : base_seed_(base_seed)
{
    if (jobs <= 0)
        jobs = ThreadPool::hardwareConcurrency();
    // The caller participates in parallelFor, so a pool of jobs-1
    // workers yields exactly `jobs` concurrent threads.
    pool_ = std::make_unique<ThreadPool>(jobs - 1);
}

ExperimentEngine::~ExperimentEngine() = default;

int
ExperimentEngine::jobs() const
{
    return pool_->size() + 1;
}

void
ExperimentEngine::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    parallelFor(*pool_, n, fn);
}

std::vector<ExperimentEngine::Trial>
ExperimentEngine::runTrials(
    std::size_t n_points, int reps,
    const std::function<SimResult(std::size_t, std::uint64_t)> &run) const
{
    if (reps < 1)
        throw std::invalid_argument("ExperimentEngine: reps must be >= 1");
    const auto r = static_cast<std::size_t>(reps);
    // One slot per trial, written exactly once by trial index; callers
    // aggregate serially and in order, so the whole result is
    // independent of scheduling.
    std::vector<Trial> trials(n_points * r);
    forEachIndex(trials.size(), [&](std::size_t t) {
        const std::size_t p = t / r;
        auto start = std::chrono::steady_clock::now();
        trials[t].result = run(p, deriveSeed(base_seed_, p, t % r));
        trials[t].seconds =
            seconds(start, std::chrono::steady_clock::now());
    });
    return trials;
}

std::vector<PointResult>
ExperimentEngine::runPoints(const std::vector<TrialSpec> &pts,
                            int reps) const
{
    const std::size_t n_points = pts.size();
    auto trials = runTrials(n_points, reps, [&](std::size_t p,
                                                std::uint64_t seed) {
        const TrialSpec &spec = pts[p];
        SimConfig cfg = spec.config;
        cfg.seed = seed;
        auto traffic = spec.traffic();
        if (spec.topo_timeline) {
            // Fault or topology-change trial: the simulator owns a
            // private overlay + incrementally repaired oracle.
            Simulator sim(*spec.topology, *traffic, cfg,
                          *spec.topo_timeline, spec.policy);
            return sim.run();
        }
        Simulator sim(*spec.topology, *spec.oracle, *traffic, cfg,
                      spec.policy);
        return sim.run();
    });

    std::vector<PointResult> out(n_points);
    for (std::size_t p = 0; p < n_points; ++p) {
        RunningStat acc, lat, p50, p99, hops, del, gen, sup, unr;
        RunningStat drp, rer, ret, ttr, dip, bar;
        const TrialSpec &spec = pts[p];
        const bool recovery =
            spec.topo_timeline && spec.config.telemetry_bin > 0;
        const long long fail_cycle =
            recovery ? spec.topo_timeline->firstDisruptionCycle() : -1;
        const long long total_cycles =
            spec.config.warmup + spec.config.measure;
        PointResult &pr = out[p];
        pr.label = spec.label;
        pr.offered = spec.config.load;
        pr.reps = reps;
        // Only fault trials carry a recovery story; leaving this 0 for
        // plain points keeps the "recovery" JSON object off them even
        // when their config recorded telemetry bins.
        pr.telemetry_bin = recovery ? spec.config.telemetry_bin : 0;
        if (spec.topology)
            pr.topology_bytes = spec.topology->memoryBytes();
        if (spec.oracle)
            pr.oracle_bytes = spec.oracle->memoryBytes();
        for (int rep = 0; rep < reps; ++rep) {
            const std::size_t t =
                p * static_cast<std::size_t>(reps) +
                static_cast<std::size_t>(rep);
            const SimResult &r = trials[t].result;
            if (conservationGap(r) != 0)
                ++pr.conservation_violations;
            acc.add(r.accepted);
            lat.add(r.avg_latency);
            p50.add(r.p50_latency);
            p99.add(r.p99_latency);
            hops.add(r.avg_hops);
            del.add(static_cast<double>(r.delivered_packets));
            gen.add(static_cast<double>(r.generated_packets));
            sup.add(static_cast<double>(r.suppressed_packets));
            unr.add(static_cast<double>(r.unroutable_packets));
            drp.add(static_cast<double>(r.dropped_packets));
            rer.add(static_cast<double>(r.rerouted_packets));
            ret.add(static_cast<double>(r.route_retries));
            if (r.expansion.active) {
                // Timeline-determined counters are identical across
                // reps; rep 0 stands for the point.
                if (rep == 0)
                    pr.expansion = r.expansion;
                bar.add(static_cast<double>(
                    r.expansion.barrier_inflight_max));
            }
            if (recovery) {
                RecoveryStats rec = computeRecovery(
                    r.delivered_bins, r.telemetry_bin, total_cycles,
                    fail_cycle);
                ttr.add(static_cast<double>(rec.time_to_reconverge));
                dip.add(rec.dip_fraction);
                if (pr.delivered_bins_mean.size() <
                    r.delivered_bins.size())
                    pr.delivered_bins_mean.resize(
                        r.delivered_bins.size(), 0.0);
                for (std::size_t b = 0; b < r.delivered_bins.size();
                     ++b)
                    pr.delivered_bins_mean[b] +=
                        static_cast<double>(r.delivered_bins[b]) /
                        static_cast<double>(reps);
            }
            pr.trial_seconds_total += trials[t].seconds;
            pr.trial_seconds_max =
                std::max(pr.trial_seconds_max, trials[t].seconds);
            pr.perf.merge(r.perf);
        }
        pr.accepted = toMetricStat(acc);
        pr.avg_latency = toMetricStat(lat);
        pr.p50_latency = toMetricStat(p50);
        pr.p99_latency = toMetricStat(p99);
        pr.avg_hops = toMetricStat(hops);
        pr.delivered_packets = toMetricStat(del);
        pr.generated_packets = toMetricStat(gen);
        pr.suppressed_packets = toMetricStat(sup);
        pr.unroutable_packets = toMetricStat(unr);
        pr.dropped_packets = toMetricStat(drp);
        pr.rerouted_packets = toMetricStat(rer);
        pr.route_retries = toMetricStat(ret);
        if (recovery) {
            pr.time_to_reconverge = toMetricStat(ttr);
            pr.dip_fraction = toMetricStat(dip);
        }
        if (pr.expansion.active)
            pr.barrier_inflight = toMetricStat(bar);
    }
    return out;
}

std::vector<double>
loadRange(double lo, double hi, int points)
{
    if (!(lo > 0.0 && lo <= hi && hi <= 1.0))
        throw std::invalid_argument(
            "loadRange: need 0 < lo <= hi <= 1 (SimConfig rejects "
            "zero offered load)");
    // Interior points are clamped and the last one pinned: the affine
    // formula alone can round past hi (0.2 + 0.8 * 6 / 6 > 1.0).
    std::vector<double> out;
    for (int i = 0; i + 1 < points; ++i)
        out.push_back(std::min(hi, lo + (hi - lo) * i / (points - 1)));
    out.push_back(hi);
    return out;
}

GridResult
ExperimentEngine::run(const ExperimentGrid &grid) const
{
    GridResult result;
    result.jobs = jobs();
    auto start = std::chrono::steady_clock::now();
    result.points = runPoints(grid.points(), grid.repetitions);
    result.wall_seconds = seconds(start,
                                  std::chrono::steady_clock::now());
    return result;
}

RunningStat
ExperimentEngine::study(
    std::uint64_t stream, int reps,
    const std::function<double(int, std::uint64_t)> &fn) const
{
    std::vector<double> samples(static_cast<std::size_t>(reps));
    forEachIndex(samples.size(), [&](std::size_t i) {
        samples[i] = fn(static_cast<int>(i),
                        deriveSeed(base_seed_, stream, i));
    });
    RunningStat stat;
    for (double s : samples)
        stat.add(s);
    return stat;
}

namespace {

void
writeMetric(JsonWriter &w, const char *name, const MetricStat &m,
            int reps)
{
    w.key(name);
    w.beginObject();
    w.kv("mean", m.mean);
    if (reps > 1) {
        w.kv("stddev", m.stddev);
        w.kv("ci95", m.ci95);
        w.kv("min", m.min);
        w.kv("max", m.max);
    }
    w.endObject();
}

} // namespace

void
writeRunMemory(JsonWriter &w)
{
    w.key("memory");
    w.beginObject();
    w.kv("peak_rss_bytes", static_cast<std::int64_t>(peakRssBytes()));
    w.endObject();
}

void
writePointsJson(std::ostream &os, const std::vector<PointResult> &points,
                std::uint64_t base_seed, int jobs, double wall_seconds,
                int repetitions)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("jobs", static_cast<std::int64_t>(jobs));
    w.kv("base_seed", static_cast<std::uint64_t>(base_seed));
    w.kv("repetitions", static_cast<std::int64_t>(repetitions));
    w.kv("wall_seconds", wall_seconds);
    writeRunMemory(w);

    w.key("points");
    w.beginArray();
    for (const auto &p : points) {
        w.beginObject();
        w.kv("label", p.label);
        w.kv("offered", p.offered);
        w.kv("reps", static_cast<std::int64_t>(p.reps));
        writeMetric(w, "accepted", p.accepted, p.reps);
        writeMetric(w, "avg_latency", p.avg_latency, p.reps);
        writeMetric(w, "p50_latency", p.p50_latency, p.reps);
        writeMetric(w, "p99_latency", p.p99_latency, p.reps);
        writeMetric(w, "avg_hops", p.avg_hops, p.reps);
        writeMetric(w, "delivered_packets", p.delivered_packets,
                    p.reps);
        writeMetric(w, "generated_packets", p.generated_packets,
                    p.reps);
        writeMetric(w, "suppressed_packets", p.suppressed_packets,
                    p.reps);
        writeMetric(w, "unroutable_packets", p.unroutable_packets,
                    p.reps);
        writeMetric(w, "dropped_packets", p.dropped_packets, p.reps);
        writeMetric(w, "rerouted_packets", p.rerouted_packets, p.reps);
        writeMetric(w, "route_retries", p.route_retries, p.reps);
        w.kv("conservation_violations",
             static_cast<std::int64_t>(p.conservation_violations));
        if (p.telemetry_bin > 0) {
            // Fault-recovery telemetry: the headline numbers plus the
            // mean throughput dip/recovery curve.
            w.key("recovery");
            w.beginObject();
            w.kv("telemetry_bin",
                 static_cast<std::int64_t>(p.telemetry_bin));
            writeMetric(w, "time_to_reconverge", p.time_to_reconverge,
                        p.reps);
            writeMetric(w, "dip_fraction", p.dip_fraction, p.reps);
            w.key("delivered_bins_mean");
            w.beginArray();
            for (double b : p.delivered_bins_mean)
                w.value(b);
            w.endArray();
            w.endObject();
        }
        if (p.expansion.active) {
            // Live topology-change accounting: all bit-stable (event
            // application is barrier-ordered), so the object takes
            // part in determinism diffs.
            w.key("expansion");
            w.beginObject();
            w.kv("links_failed",
                 static_cast<std::int64_t>(p.expansion.links_failed));
            w.kv("links_repaired",
                 static_cast<std::int64_t>(p.expansion.links_repaired));
            w.kv("links_detached",
                 static_cast<std::int64_t>(p.expansion.links_detached));
            w.kv("links_attached",
                 static_cast<std::int64_t>(p.expansion.links_attached));
            w.kv("switches_added",
                 static_cast<std::int64_t>(p.expansion.switches_added));
            w.kv("terminals_activated",
                 static_cast<std::int64_t>(
                     p.expansion.terminals_activated));
            writeMetric(w, "barrier_inflight_max", p.barrier_inflight,
                        p.reps);
            w.endObject();
        }
        // Structure sizes are bit-stable (they depend on the topology
        // and oracle contents only) and take part in determinism diffs.
        w.key("memory");
        w.beginObject();
        w.kv("topology_bytes",
             static_cast<std::int64_t>(p.topology_bytes));
        w.kv("oracle_bytes", static_cast<std::int64_t>(p.oracle_bytes));
        w.endObject();
        // Engine counters: bit-stable across jobs values (they depend
        // on the simulated physics only), so they belong outside
        // "timing" and take part in determinism diffs.
        w.key("perf");
        w.beginObject();
        w.kv("cycles", static_cast<std::int64_t>(p.perf.cycles));
        w.kv("switch_scans",
             static_cast<std::int64_t>(p.perf.switch_scans));
        w.kv("arb_conflicts",
             static_cast<std::int64_t>(p.perf.arb_conflicts));
        w.kv("credit_stalls",
             static_cast<std::int64_t>(p.perf.credit_stalls));
        w.kv("forwards", static_cast<std::int64_t>(p.perf.forwards));
        w.key("occupancy");
        w.beginArray();
        for (long long b : p.perf.occupancy)
            w.value(static_cast<std::int64_t>(b));
        w.endArray();
        w.endObject();
        w.key("timing");
        w.beginObject();
        w.kv("trial_seconds_total", p.trial_seconds_total);
        w.kv("trial_seconds_max", p.trial_seconds_max);
        if (p.trial_seconds_total > 0.0)
            w.kv("cycles_per_sec",
                 static_cast<double>(p.perf.cycles) *
                     static_cast<double>(p.reps) /
                     p.trial_seconds_total);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeGridJson(std::ostream &os, const ExperimentGrid &grid,
              const GridResult &result, std::uint64_t base_seed)
{
    writePointsJson(os, result.points, base_seed, result.jobs,
                    result.wall_seconds, grid.repetitions);
}

} // namespace rfc
