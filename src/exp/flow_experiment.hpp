/**
 * @file
 * Flow-level throughput grids on the deterministic experiment engine.
 *
 * The packet simulator answers the Figures 8-10 questions in
 * cycle-level detail but cannot reach paper scale in sandbox time; the
 * flow engine (src/flow) answers the same saturation questions
 * analytically in seconds.  This module runs the flow engine over the
 * same declarative shape as `ExperimentGrid`: networks x demand
 * patterns, each point solved for
 *
 *  - the certified maximum concurrent flow (optimal multipath split),
 *  - the ECMP fluid saturation plus the per-demand worst/average
 *    throughput distribution (even split, what the simulator's random
 *    ECMP does in expectation).
 *
 * The point set (DemandGrid) and its preparation are shared with the
 * queue tier (exp/queue_experiment.hpp).  Seeding follows the src/exp
 * contract (see DemandGrid), so results are bit-identical at any
 * --jobs value (the engine's pool parallelizes *within* a point,
 * across demands).
 */
#ifndef RFC_EXP_FLOW_EXPERIMENT_HPP
#define RFC_EXP_FLOW_EXPERIMENT_HPP

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "flow/solver.hpp"
#include "graph/graph.hpp"

namespace rfc {

class JsonWriter;

/** One network under flow-level test: a folded Clos or a direct graph. */
struct FlowNetwork
{
    std::string label;
    const FoldedClos *topology = nullptr;  //!< Clos family (CFT/OFT/RFC)
    const UpDownOracle *oracle = nullptr;
    const Graph *graph = nullptr;          //!< direct family (RRN)
    int hosts_per_switch = 0;
};

/**
 * The points shared by the flow-level tiers: networks x demand
 * patterns, plus the candidate-path knobs.  Point p = net * patterns +
 * pattern draws its demand matrix from deriveSeed(base_seed, p, 0) and
 * its path sampling from deriveSeed(base_seed, p, 1), so a flow grid
 * and a queue grid over the same networks see the same demands and
 * paths.
 */
struct DemandGrid
{
    std::vector<FlowNetwork> networks;
    /** `makeDemandMatrix` pattern names (uniform, fixed-random, ...). */
    std::vector<std::string> patterns;

    /** Candidate-path cap per pair (ECMP sample / Yen k). */
    int max_paths = 16;
    /** Uniform-pattern sampling density; <= 0 = exact all-pairs. */
    int uniform_samples = 4;
    long long shift_stride = 1;  //!< for the "shift" pattern

    DemandGrid &addClos(std::string label, const FoldedClos &fc,
                        const UpDownOracle &oracle);
    DemandGrid &addGraph(std::string label, const Graph &g,
                         int hosts_per_switch);
};

/** Declarative flow-study grid: the demand points plus solver knobs. */
struct FlowGrid : DemandGrid
{
    /** Solver knobs; the pool field is overridden by the engine's. */
    SolveOptions solve;
};

/** What every flow-level tier reports at one (network, pattern) point. */
struct DemandPointResult
{
    std::string network;
    std::string pattern;
    long long terminals = 0;

    std::size_t demands = 0;
    std::size_t routed = 0;
    std::size_t unrouted = 0;  //!< demands with no path (faulted nets)
    std::size_t links = 0;
    std::size_t paths = 0;

    double build_seconds = 0.0;  //!< paths + problem assembly

    // ---- memory budget (bit-stable structure sizes) -------------
    std::int64_t topology_bytes = 0;  //!< FoldedClos / Graph bytes
    std::int64_t oracle_bytes = 0;    //!< UpDownOracle bytes (Clos only)
};

/** Flow-engine outputs at one (network, pattern) grid point. */
struct FlowPointResult : DemandPointResult
{
    double throughput = 0.0;  //!< certified max concurrent flow lambda
    double dual_bound = 0.0;
    bool converged = false;
    int phases = 0;

    double ecmp_saturation = 0.0;
    double ecmp_worst = 0.0;    //!< worst per-demand ECMP throughput
    double ecmp_average = 0.0;  //!< mean per-demand ECMP throughput

    double solve_seconds = 0.0;  //!< concurrent-flow + fluid solves
};

/** Points in grid declaration order (network-major, then pattern). */
template <class Point>
struct DemandGridResult
{
    std::vector<Point> points;
    double wall_seconds = 0.0;
    int jobs = 1;

    std::size_t
    index(std::size_t net, std::size_t pattern,
          std::size_t n_patterns) const
    {
        return net * n_patterns + pattern;
    }
};

using FlowGridResult = DemandGridResult<FlowPointResult>;

/**
 * The point preparation shared by the flow-level tiers: build the
 * demand matrix, the candidate paths and the flow problem of point
 * (@p net, @p pattern) - in parallel on the engine's pool - and fill
 * every field of @p r except routed/unrouted, which the tier's solver
 * reports.
 */
FlowProblem prepareDemandPoint(const DemandGrid &grid, std::size_t net,
                               std::size_t pattern,
                               const ExperimentEngine &engine,
                               DemandPointResult &r);

/**
 * Run a flow-level tier over every point of @p grid in grid order:
 * prepareDemandPoint, then evaluate(problem, point) fills the tier's
 * own fields.
 */
template <class Point, class Evaluate>
DemandGridResult<Point>
runDemandGrid(const DemandGrid &grid, const ExperimentEngine &engine,
              Evaluate evaluate)
{
    DemandGridResult<Point> result;
    result.jobs = engine.jobs();
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t ni = 0; ni < grid.networks.size(); ++ni) {
        for (std::size_t pi = 0; pi < grid.patterns.size(); ++pi) {
            Point r;
            FlowProblem problem = prepareDemandPoint(grid, ni, pi, engine, r);
            evaluate(problem, r);
            result.points.push_back(std::move(r));
        }
    }
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    return result;
}

/** Open a point object with the fields every flow-level tier shares. */
void writeDemandPointHead(JsonWriter &w, const DemandPointResult &p);

/**
 * Close a point object: the memory block, then the timing block with
 * build_seconds and the tier's own phase time @p seconds as @p key.
 */
void writeDemandPointTail(JsonWriter &w, const DemandPointResult &p,
                          const char *key, double seconds);

/**
 * Run every grid point on @p engine (demands parallelized on its pool,
 * deterministically).  Every field except the *_seconds timings is
 * bit-identical at any jobs value.
 */
FlowGridResult runFlowGrid(const FlowGrid &grid,
                           const ExperimentEngine &engine);

/** Emit a flow grid result as a JSON document (src/exp house style). */
void writeFlowGridJson(std::ostream &os, const FlowGrid &grid,
                       const FlowGridResult &result,
                       std::uint64_t base_seed);

} // namespace rfc

#endif // RFC_EXP_FLOW_EXPERIMENT_HPP
