#include "exp/flow_experiment.hpp"

#include <chrono>
#include <stdexcept>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rfc {

DemandGrid &
DemandGrid::addClos(std::string label, const FoldedClos &fc,
                    const UpDownOracle &oracle)
{
    networks.push_back({std::move(label), &fc, &oracle, nullptr, 0});
    return *this;
}

DemandGrid &
DemandGrid::addGraph(std::string label, const Graph &g,
                     int hosts_per_switch)
{
    networks.push_back(
        {std::move(label), nullptr, nullptr, &g, hosts_per_switch});
    return *this;
}

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

FlowProblem
prepareDemandPoint(const DemandGrid &grid, std::size_t ni, std::size_t pi,
                   const ExperimentEngine &engine, DemandPointResult &r)
{
    const FlowNetwork &net = grid.networks[ni];
    const std::size_t point = ni * grid.patterns.size() + pi;
    r.network = net.label;
    r.pattern = grid.patterns[pi];
    r.terminals = net.topology
                      ? net.topology->numTerminals()
                      : static_cast<long long>(net.graph->numVertices()) *
                            net.hosts_per_switch;
    if (net.topology) {
        r.topology_bytes = net.topology->memoryBytes();
        r.oracle_bytes = net.oracle->memoryBytes();
    } else if (net.graph) {
        // Graph stores each edge once per endpoint (4-byte ids) plus a
        // vector header per vertex.
        r.topology_bytes =
            static_cast<std::int64_t>(net.graph->numEdges()) * 2 * 4 +
            static_cast<std::int64_t>(net.graph->numVertices()) *
                static_cast<std::int64_t>(sizeof(std::vector<int>));
    }

    DemandMatrix dm = makeDemandMatrix(
        grid.patterns[pi], r.terminals,
        deriveSeed(engine.baseSeed(), point, 0), grid.uniform_samples,
        grid.shift_stride);

    auto tb = std::chrono::steady_clock::now();
    FlowProblem problem;
    if (net.topology) {
        UpDownEcmpPaths provider(*net.topology, *net.oracle,
                                 grid.max_paths,
                                 deriveSeed(engine.baseSeed(), point, 1));
        problem = buildClosFlowProblem(*net.topology, provider, dm,
                                       engine.pool());
    } else if (net.graph) {
        KspPaths provider(*net.graph, grid.max_paths);
        problem = buildGraphFlowProblem(*net.graph, net.hosts_per_switch,
                                        provider, dm, engine.pool());
    } else {
        throw std::invalid_argument(
            "prepareDemandPoint: network without topology or graph");
    }
    r.build_seconds = seconds(tb, std::chrono::steady_clock::now());
    r.demands = problem.numDemands();
    r.links = static_cast<std::size_t>(problem.numLinks());
    r.paths = problem.numPathsTotal();
    return problem;
}

FlowGridResult
runFlowGrid(const FlowGrid &grid, const ExperimentEngine &engine)
{
    return runDemandGrid<FlowPointResult>(
        grid, engine, [&](const FlowProblem &problem, FlowPointResult &r) {
            auto ts = std::chrono::steady_clock::now();
            SolveOptions solve = grid.solve;
            solve.pool = engine.pool();
            FlowSolution sol = solveMaxConcurrentFlow(problem, solve);
            EcmpFluidResult fluid = ecmpFluid(problem, engine.pool());

            r.routed = sol.routed_demands;
            r.unrouted = sol.unrouted_demands;
            r.throughput = sol.throughput;
            r.dual_bound = sol.dual_bound;
            r.converged = sol.converged;
            r.phases = sol.phases;
            r.ecmp_saturation = fluid.saturation;
            r.ecmp_worst = fluid.worst;
            r.ecmp_average = fluid.average;
            r.solve_seconds =
                seconds(ts, std::chrono::steady_clock::now());
        });
}

void
writeDemandPointHead(JsonWriter &w, const DemandPointResult &p)
{
    w.beginObject();
    w.kv("network", p.network);
    w.kv("pattern", p.pattern);
    w.kv("terminals", static_cast<std::int64_t>(p.terminals));
    w.kv("demands", static_cast<std::uint64_t>(p.demands));
    w.kv("routed", static_cast<std::uint64_t>(p.routed));
    w.kv("unrouted", static_cast<std::uint64_t>(p.unrouted));
    w.kv("links", static_cast<std::uint64_t>(p.links));
    w.kv("paths", static_cast<std::uint64_t>(p.paths));
}

void
writeDemandPointTail(JsonWriter &w, const DemandPointResult &p,
                     const char *key, double seconds)
{
    w.key("memory");
    w.beginObject();
    w.kv("topology_bytes", static_cast<std::int64_t>(p.topology_bytes));
    w.kv("oracle_bytes", static_cast<std::int64_t>(p.oracle_bytes));
    w.endObject();
    w.key("timing");
    w.beginObject();
    w.kv("build_seconds", p.build_seconds);
    w.kv(key, seconds);
    w.endObject();
    w.endObject();
}

void
writeFlowGridJson(std::ostream &os, const FlowGrid &grid,
                  const FlowGridResult &result, std::uint64_t base_seed)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("jobs", static_cast<std::int64_t>(result.jobs));
    w.kv("base_seed", static_cast<std::uint64_t>(base_seed));
    w.kv("max_paths", static_cast<std::int64_t>(grid.max_paths));
    w.kv("uniform_samples",
         static_cast<std::int64_t>(grid.uniform_samples));
    w.kv("epsilon", grid.solve.epsilon);
    w.kv("max_phases", static_cast<std::int64_t>(grid.solve.max_phases));
    w.kv("wall_seconds", result.wall_seconds);
    writeRunMemory(w);

    w.key("points");
    w.beginArray();
    for (const auto &p : result.points) {
        writeDemandPointHead(w, p);
        w.kv("throughput", p.throughput);
        w.kv("dual_bound", p.dual_bound);
        w.kv("converged", p.converged);
        w.kv("phases", static_cast<std::int64_t>(p.phases));
        w.kv("ecmp_saturation", p.ecmp_saturation);
        w.kv("ecmp_worst", p.ecmp_worst);
        w.kv("ecmp_average", p.ecmp_average);
        writeDemandPointTail(w, p, "solve_seconds", p.solve_seconds);
    }
    w.endArray();
    w.endObject();
}

} // namespace rfc
