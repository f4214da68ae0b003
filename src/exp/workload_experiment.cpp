#include "exp/workload_experiment.hpp"

#include <algorithm>
#include <chrono>

#include "util/json.hpp"

namespace rfc {

WorkloadGrid &
WorkloadGrid::addNetwork(std::string label, const FoldedClos &fc,
                         const UpDownOracle &oracle)
{
    networks.push_back({std::move(label), &fc, &oracle});
    return *this;
}

WorkloadGridResult
runWorkloadGrid(const WorkloadGrid &grid, const ExperimentEngine &engine)
{
    grid.base.validate();
    if (grid.repetitions < 1)
        throw std::invalid_argument(
            "runWorkloadGrid: repetitions must be >= 1");
    for (double l : grid.loads)
        if (!(l > 0.0) || l > 1.0)
            throw std::invalid_argument(
                "runWorkloadGrid: loads must be in (0, 1]");

    WorkloadGridResult result;
    result.jobs = engine.jobs();
    auto t0 = std::chrono::steady_clock::now();

    const std::size_t n_wls = grid.workloads.size();
    const std::size_t n_loads = grid.loads.size();
    const std::size_t n_points = grid.numPoints();
    const int reps = grid.repetitions;

    auto trials = engine.runTrials(n_points, reps, [&](std::size_t point,
                                                       std::uint64_t seed) {
        const ExperimentGrid::Network &net =
            grid.networks[point / (n_wls * n_loads)];
        SimConfig cfg = grid.base;
        cfg.load = grid.loads[point % n_loads];
        cfg.seed = seed;

        // The workload replaces the traffic pattern; the simulator
        // still needs one (its ctor seeds the demand matrix), so pass
        // the cheapest stateless pattern.
        auto wl = makeWorkload(grid.workloads[(point / n_loads) % n_wls],
                               cfg.load);
        auto traffic = makeTraffic("uniform");
        Simulator sim(*net.topology, *net.oracle, *traffic, cfg);
        sim.attachWorkload(*wl);
        return sim.run();
    });

    // Serial aggregation in trial order: bit-identical at any jobs.
    result.points.reserve(n_points);
    for (std::size_t point = 0; point < n_points; ++point) {
        const std::size_t ni = point / (n_wls * n_loads);
        const std::size_t wi = (point / n_loads) % n_wls;
        const std::size_t li = point % n_loads;
        const ExperimentGrid::Network &net = grid.networks[ni];
        const WorkloadSpec &spec = grid.workloads[wi];

        WorkloadPointResult p;
        p.network = net.label;
        p.workload = spec.label();
        p.kind = spec.kind;
        p.load = grid.loads[li];
        p.reps = reps;
        p.terminals = net.topology->numTerminals();
        p.topology_bytes = net.topology->memoryBytes();
        p.oracle_bytes = net.oracle->memoryBytes();

        RunningStat goodput, accepted, avg_latency, p99_latency;
        RunningStat fct_mean, fct_p50, fct_p99, fct_max;
        RunningStat rpc_mean, rpc_p50, rpc_p99, rpc_p999, rpc_max;
        RunningStat cct_mean, cct_max;
        RunningStat messages_sent, flows_completed, rpcs_completed;
        RunningStat coflow_phases;

        for (int rep = 0; rep < reps; ++rep) {
            const ExperimentEngine::Trial &out =
                trials[point * static_cast<std::size_t>(reps) +
                       static_cast<std::size_t>(rep)];
            const SimResult &r = out.result;
            const WorkloadMetrics &w = r.workload;
            goodput.add(w.goodput);
            accepted.add(r.accepted);
            avg_latency.add(r.avg_latency);
            p99_latency.add(r.p99_latency);
            fct_mean.add(w.fct_mean);
            fct_p50.add(w.fct_p50);
            fct_p99.add(w.fct_p99);
            fct_max.add(w.fct_max);
            rpc_mean.add(w.rpc_mean);
            rpc_p50.add(w.rpc_p50);
            rpc_p99.add(w.rpc_p99);
            rpc_p999.add(w.rpc_p999);
            rpc_max.add(w.rpc_max);
            cct_mean.add(w.cct_mean);
            cct_max.add(w.cct_max);
            messages_sent.add(static_cast<double>(w.messages_sent));
            flows_completed.add(static_cast<double>(w.flows_completed));
            rpcs_completed.add(static_cast<double>(w.rpcs_completed));
            coflow_phases.add(static_cast<double>(w.coflow_phases));
            if (w.conservation_residual != 0 || w.eject_mismatch != 0)
                ++p.conservation_violations;
            p.trial_seconds_total += out.seconds;
            p.trial_seconds_max =
                std::max(p.trial_seconds_max, out.seconds);
        }

        p.goodput = toMetricStat(goodput);
        p.accepted = toMetricStat(accepted);
        p.avg_latency = toMetricStat(avg_latency);
        p.p99_latency = toMetricStat(p99_latency);
        p.fct_mean = toMetricStat(fct_mean);
        p.fct_p50 = toMetricStat(fct_p50);
        p.fct_p99 = toMetricStat(fct_p99);
        p.fct_max = toMetricStat(fct_max);
        p.rpc_mean = toMetricStat(rpc_mean);
        p.rpc_p50 = toMetricStat(rpc_p50);
        p.rpc_p99 = toMetricStat(rpc_p99);
        p.rpc_p999 = toMetricStat(rpc_p999);
        p.rpc_max = toMetricStat(rpc_max);
        p.cct_mean = toMetricStat(cct_mean);
        p.cct_max = toMetricStat(cct_max);
        p.messages_sent = toMetricStat(messages_sent);
        p.flows_completed = toMetricStat(flows_completed);
        p.rpcs_completed = toMetricStat(rpcs_completed);
        p.coflow_phases = toMetricStat(coflow_phases);
        result.points.push_back(std::move(p));
    }

    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    return result;
}

namespace {

void
writeStat(JsonWriter &w, const char *name, const MetricStat &s)
{
    w.key(name);
    w.beginObject();
    w.kv("mean", s.mean);
    w.kv("stddev", s.stddev);
    w.kv("ci95", s.ci95);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.endObject();
}

} // namespace

void
writeWorkloadGridJson(std::ostream &os, const WorkloadGrid &grid,
                      const WorkloadGridResult &result,
                      std::uint64_t base_seed)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("jobs", static_cast<std::int64_t>(result.jobs));
    w.kv("base_seed", static_cast<std::uint64_t>(base_seed));
    w.kv("repetitions", static_cast<std::int64_t>(grid.repetitions));
    w.kv("warmup", static_cast<std::int64_t>(grid.base.warmup));
    w.kv("measure", static_cast<std::int64_t>(grid.base.measure));
    w.kv("shards", static_cast<std::int64_t>(grid.base.shards));
    w.kv("wall_seconds", result.wall_seconds);
    writeRunMemory(w);

    w.key("points");
    w.beginArray();
    for (const auto &p : result.points) {
        w.beginObject();
        w.kv("network", p.network);
        w.kv("workload", p.workload);
        w.kv("kind", p.kind);
        w.kv("load", p.load);
        w.kv("reps", static_cast<std::int64_t>(p.reps));
        w.kv("terminals", static_cast<std::int64_t>(p.terminals));
        writeStat(w, "goodput", p.goodput);
        writeStat(w, "accepted", p.accepted);
        writeStat(w, "avg_latency", p.avg_latency);
        writeStat(w, "p99_latency", p.p99_latency);
        writeStat(w, "fct_mean", p.fct_mean);
        writeStat(w, "fct_p50", p.fct_p50);
        writeStat(w, "fct_p99", p.fct_p99);
        writeStat(w, "fct_max", p.fct_max);
        writeStat(w, "rpc_mean", p.rpc_mean);
        writeStat(w, "rpc_p50", p.rpc_p50);
        writeStat(w, "rpc_p99", p.rpc_p99);
        writeStat(w, "rpc_p999", p.rpc_p999);
        writeStat(w, "rpc_max", p.rpc_max);
        writeStat(w, "cct_mean", p.cct_mean);
        writeStat(w, "cct_max", p.cct_max);
        writeStat(w, "messages_sent", p.messages_sent);
        writeStat(w, "flows_completed", p.flows_completed);
        writeStat(w, "rpcs_completed", p.rpcs_completed);
        writeStat(w, "coflow_phases", p.coflow_phases);
        w.kv("conservation_violations",
             static_cast<std::int64_t>(p.conservation_violations));
        w.key("memory");
        w.beginObject();
        w.kv("topology_bytes",
             static_cast<std::int64_t>(p.topology_bytes));
        w.kv("oracle_bytes", static_cast<std::int64_t>(p.oracle_bytes));
        w.endObject();
        w.key("timing");
        w.beginObject();
        w.kv("trial_seconds_total", p.trial_seconds_total);
        w.kv("trial_seconds_max", p.trial_seconds_max);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace rfc
