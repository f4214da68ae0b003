/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * Every figure and table of the paper is a grid of independent
 * simulation trials: topology x traffic pattern x offered load x seed.
 * This module runs such grids on a ThreadPool while keeping the output
 * bit-identical at any --jobs value:
 *
 *  - each trial's seed is derived from {base seed, point index, rep}
 *    via deriveSeed (splitmix64 chain), never from shared RNG state or
 *    execution order;
 *  - each trial owns its Traffic instance and Simulator; the topology
 *    and routing oracle are shared read-only;
 *  - results land in slots indexed by trial id and are aggregated in a
 *    serial pass afterwards.
 *
 * Aggregation reports per-trial means plus stddev / 95% CI for every
 * metric - including the packet counters, which are per-trial means
 * too, never sums over reps.  Per-trial wall-clock is recorded so every
 * bench run doubles as perf telemetry.
 */
#ifndef RFC_EXP_EXPERIMENT_HPP
#define RFC_EXP_EXPERIMENT_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/stats.hpp"

namespace rfc {

class JsonWriter;
class ThreadPool;

/** Creates a fresh Traffic instance for one trial (thread-confined). */
using TrafficFactory = std::function<std::unique_ptr<Traffic>()>;

/** Named factory: @p label appears in reports. */
TrafficFactory namedTraffic(const std::string &name);

/** One fully specified grid point (shared inputs are read-only). */
struct TrialSpec
{
    const FoldedClos *topology = nullptr;
    const UpDownOracle *oracle = nullptr;
    TrafficFactory traffic;
    SimConfig config;      //!< load/mode/etc; seed overridden per trial
    std::string label;     //!< free-form point label for reports

    /**
     * Routing-policy family for the trial's Simulator (oblivious
     * up/down by default; kAdaptiveUgal selects the UGAL policy).
     * Orthogonal to config.route_mode, which tunes the oblivious
     * policy's up-phase discipline.
     */
    ClosPolicy policy = ClosPolicy::kOblivious;

    /**
     * Optional runtime fault or topology-change schedule: when set,
     * the trial runs the timeline simulator (each trial owns a private
     * link-state overlay and incrementally repaired oracle; `oracle`
     * above is ignored and may stay null).  For expansion drills
     * `topology` must be the matching *union* topology.  Recovery
     * telemetry is keyed off firstDisruptionCycle().  Shared read-only
     * across trials.
     */
    const TopologyTimeline *topo_timeline = nullptr;
};

/** Mean / spread snapshot of one metric over the reps of a point. */
struct MetricStat
{
    double mean = 0.0;
    double stddev = 0.0;
    double ci95 = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Aggregated simulation results at one grid point. */
struct PointResult
{
    std::string label;
    double offered = 0.0;
    int reps = 0;

    MetricStat accepted;
    MetricStat avg_latency;
    MetricStat p50_latency;
    MetricStat p99_latency;
    MetricStat avg_hops;
    MetricStat delivered_packets;   //!< per-trial mean, not a sum
    MetricStat generated_packets;   //!< per-trial mean, not a sum
    MetricStat suppressed_packets;  //!< per-trial mean, not a sum
    MetricStat unroutable_packets;  //!< per-trial mean, not a sum
    MetricStat dropped_packets;     //!< TTL drops (per-trial mean)
    MetricStat rerouted_packets;    //!< route-loss recoveries (mean)
    MetricStat route_retries;       //!< route-less head-packet cycles

    /**
     * Trials of this point whose SimResult violated the packet
     * conservation identity (see conservationGap); always audited, so
     * any engine/policy accounting bug fails loudly in bench output.
     * Bit-stable (0 on a healthy build) and part of determinism diffs.
     */
    long long conservation_violations = 0;

    /**
     * Live topology-change counters (expansion.active when the point
     * ran a timeline).  The timeline-determined fields are identical
     * across reps by construction (events fire at fixed cycles in a
     * fixed order), so rep 0's counters stand for the point; the
     * per-rep barrier in-flight census varies with traffic and is
     * aggregated separately below.  All bit-stable.
     */
    ExpansionCounters expansion;
    MetricStat barrier_inflight;  //!< in-flight packets at change barriers

    // ---- fault-recovery aggregates ------------------------------
    // Populated when the point's trials carried a timeline and
    // telemetry bins (SimConfig::telemetry_bin > 0).
    MetricStat time_to_reconverge;  //!< cycles after disruption (-1 = never)
    MetricStat dip_fraction;        //!< min post-failure rate / baseline
    std::vector<double> delivered_bins_mean;  //!< mean recovery curve
    long long telemetry_bin = 0;    //!< bin width of the curve (0 = none)

    double trial_seconds_total = 0.0;  //!< summed per-trial wall clock
    double trial_seconds_max = 0.0;    //!< slowest trial at this point

    // ---- memory budget ------------------------------------------
    // Measured structure sizes for the point's shared inputs (bit-
    // stable, unlike peak RSS which is reported once per run).
    std::int64_t topology_bytes = 0;  //!< FoldedClos::memoryBytes()
    std::int64_t oracle_bytes = 0;    //!< UpDownOracle::memoryBytes()

    /**
     * Engine counters merged over the point's reps (deterministic
     * fields only: scans, conflicts, stalls, forwards, occupancy;
     * cycles is the per-trial window length, identical across reps).
     */
    PerfCounters perf;

    /**
     * Collapse to the legacy SimResult shape: every field is the
     * per-trial mean (counters rounded to the nearest integer).
     */
    SimResult toSimResult() const;
};

/**
 * Declarative experiment grid: the cross product
 * networks x policies x traffics x loads, each point repeated
 * `repetitions` times with independent derived seeds.  The policy
 * axis is optional: an empty `policies` vector behaves exactly like
 * the pre-policy grid (one implicit oblivious policy using `base`'s
 * route_mode, labels stay "net/pattern").
 */
struct ExperimentGrid
{
    struct Network
    {
        std::string label;
        const FoldedClos *topology;
        const UpDownOracle *oracle;
    };
    struct Pattern
    {
        std::string label;
        TrafficFactory make;
    };
    /** One entry on the routing-policy axis. */
    struct PolicySpec
    {
        std::string label;
        ClosPolicy policy = ClosPolicy::kOblivious;
        //! Replaces base.route_mode when override_mode is set, so one
        //! grid can sweep minimal vs Valiant vs UGAL side by side.
        RouteMode route_mode = RouteMode::kMinimal;
        bool override_mode = false;
    };

    std::vector<Network> networks;
    std::vector<PolicySpec> policies;  //!< empty = implicit oblivious
    std::vector<Pattern> traffics;
    std::vector<double> loads;
    SimConfig base;        //!< template; load and seed set per point
    int repetitions = 1;

    ExperimentGrid &addNetwork(std::string label, const FoldedClos &fc,
                               const UpDownOracle &oracle);
    /** Policy keeping base.route_mode (e.g. the UGAL family). */
    ExperimentGrid &addPolicy(std::string label, ClosPolicy policy);
    /** Policy that also pins the oblivious up-phase discipline. */
    ExperimentGrid &addPolicy(std::string label, ClosPolicy policy,
                              RouteMode mode);
    /** Pattern by makeTraffic() name. */
    ExperimentGrid &addTraffic(const std::string &name);
    ExperimentGrid &addTraffic(std::string label, TrafficFactory make);

    /** Expand the cross product into flat point specs. */
    std::vector<TrialSpec> points() const;

    std::size_t numPoints() const
    {
        return networks.size() * std::max<std::size_t>(policies.size(), 1) *
               traffics.size() * loads.size();
    }
};

/**
 * Evenly spaced loads in [lo, hi] with @p points entries, for
 * ExperimentGrid::loads: the first is exactly @p lo and the last exactly
 * @p hi (a single point is @p hi).  Throws std::invalid_argument unless
 * 0 < lo <= hi <= 1: SimConfig::validate rejects a load of 0 or above 1.
 */
std::vector<double> loadRange(double lo, double hi, int points);

/** Result of ExperimentGrid::run: points in grid declaration order. */
struct GridResult
{
    //! net-major, then policy (when the axis is used), traffic, load.
    std::vector<PointResult> points;
    double wall_seconds = 0.0;        //!< engine wall clock for the run
    int jobs = 1;

    /** Index into points for (network, traffic, load) coordinates. */
    std::size_t
    index(std::size_t net, std::size_t traffic, std::size_t load,
          std::size_t n_traffics, std::size_t n_loads) const
    {
        return (net * n_traffics + traffic) * n_loads + load;
    }
};

/**
 * Runs trial grids on a thread pool with deterministic seeding.
 *
 * `jobs` counts total concurrent threads including the caller
 * (jobs = 1 is fully serial); <= 0 selects hardware concurrency.
 * Instances are reusable across grids and cheap enough to create per
 * bench run.
 */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(int jobs = 0, std::uint64_t base_seed = 1);
    ~ExperimentEngine();

    int jobs() const;
    std::uint64_t baseSeed() const { return base_seed_; }

    /**
     * The engine's worker pool (never null; 0 workers when jobs = 1).
     * Lets per-point parallel solvers (src/flow) share the engine's
     * threads instead of spinning up their own.
     */
    ThreadPool *pool() const { return pool_.get(); }

    /**
     * Run every point `reps` times; trial t of point p uses seed
     * deriveSeed(base_seed, p, t).  Results are bit-identical for any
     * jobs value.  Exceptions from trials are rethrown on the caller.
     */
    std::vector<PointResult> runPoints(const std::vector<TrialSpec> &pts,
                                       int reps) const;

    /** Expand and run a declarative grid. */
    GridResult run(const ExperimentGrid &grid) const;

    /** One trial's raw output and wall clock. */
    struct Trial
    {
        SimResult result;
        double seconds = 0.0;
    };

    /**
     * The trial loop under runPoints and runWorkloadGrid: run @p reps
     * trials of each of @p n_points points on the pool.  Trial rep of
     * point p calls run(p, deriveSeed(base_seed, p, rep)) and lands in
     * slot p * reps + rep, so the result is independent of scheduling
     * and bit-identical for any jobs value.  Exceptions from trials are
     * rethrown on the caller.
     */
    std::vector<Trial>
    runTrials(std::size_t n_points, int reps,
              const std::function<SimResult(std::size_t, std::uint64_t)>
                  &run) const;

    /**
     * Generic parallel study: aggregate `reps` scalar-valued trials of
     * fn(rep, seed), with seed = deriveSeed(base_seed, stream, rep).
     * The serial-RNG equivalent of disconnectionStudy / thm42-style
     * loops, made deterministic under parallel execution.
     */
    RunningStat study(std::uint64_t stream, int reps,
                      const std::function<double(int, std::uint64_t)>
                          &fn) const;

    /**
     * Generic deterministic map: out[i] = fn(i, deriveSeed(base, stream,
     * i)) computed on the pool.
     */
    template <typename R>
    std::vector<R>
    map(std::uint64_t stream, std::size_t n,
        const std::function<R(std::size_t, std::uint64_t)> &fn) const
    {
        std::vector<R> out(n);
        forEachIndex(n, [&](std::size_t i) {
            out[i] = fn(i, deriveSeed(base_seed_, stream, i));
        });
        return out;
    }

  private:
    /** parallelFor over the engine's pool (implementation detail). */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const;

    std::unique_ptr<ThreadPool> pool_;
    std::uint64_t base_seed_;
};

/** Convert a RunningStat snapshot into a MetricStat. */
MetricStat toMetricStat(const RunningStat &s);

/**
 * Packet conservation audit for one open-loop run: every generated
 * packet must end in exactly one terminal state, so
 *
 *   generated == suppressed + unroutable + queued_packets_end
 *              + in_flight_packets + ejected_packets + dropped_packets
 *
 * Returns the (signed) imbalance; 0 on a healthy engine.  runPoints
 * evaluates this for every trial and counts nonzero results in
 * PointResult::conservation_violations.
 */
long long conservationGap(const SimResult &r);

/**
 * Write the run-level "memory" object (peak RSS) every grid JSON
 * carries.  Machine and run dependent like the timing fields: the CI
 * determinism diffs filter peak_rss_bytes by name.
 */
void writeRunMemory(JsonWriter &w);

/**
 * Emit a grid result as a JSON document: run metadata (jobs, seed,
 * wall clock) and per-point aggregates with stddev/ci95 and per-trial
 * timing.  Timing fields vary run to run; everything else is
 * bit-stable across jobs values.
 */
void writeGridJson(std::ostream &os, const ExperimentGrid &grid,
                   const GridResult &result, std::uint64_t base_seed);

/**
 * Emit a bare point list (the runPoints shape - fault drills and other
 * non-grid sweeps) as the same JSON document writeGridJson produces.
 * Points carrying recovery telemetry additionally get a "recovery"
 * object: time-to-reconverge, dip fraction and the mean delivered-per-
 * bin curve.
 */
void writePointsJson(std::ostream &os,
                     const std::vector<PointResult> &points,
                     std::uint64_t base_seed, int jobs,
                     double wall_seconds, int repetitions);

} // namespace rfc

#endif // RFC_EXP_EXPERIMENT_HPP
