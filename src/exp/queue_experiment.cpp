#include "exp/queue_experiment.hpp"

#include <chrono>

#include "util/json.hpp"

namespace rfc {

QueueGridResult
runQueueGrid(const QueueGrid &grid, const ExperimentEngine &engine)
{
    return runDemandGrid<QueuePointResult>(
        grid, engine, [&](const FlowProblem &problem, QueuePointResult &r) {
            auto ts = std::chrono::steady_clock::now();
            auto model = makeQueueModel(
                grid.model, static_cast<double>(grid.pkt_phits),
                grid.mg1_cv2);
            QueueSweepOptions opt;
            opt.loads = grid.loads;
            opt.pkt_phits = grid.pkt_phits;
            opt.link_latency = grid.link_latency;
            opt.pool = engine.pool();
            QueueSweepResult sweep =
                queueLatencySweep(problem, *model, opt);

            r.routed = sweep.routed;
            r.unrouted = sweep.unrouted;
            r.saturation = sweep.saturation;
            r.zero_load_latency = sweep.zero_load_latency;
            r.offered_weight = sweep.offered_weight;
            r.curve = std::move(sweep.points);
            r.sweep_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - ts)
                                  .count();
        });
}

void
writeQueueGridJson(std::ostream &os, const QueueGrid &grid,
                   const QueueGridResult &result,
                   std::uint64_t base_seed)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("jobs", static_cast<std::int64_t>(result.jobs));
    w.kv("base_seed", static_cast<std::uint64_t>(base_seed));
    w.kv("model", grid.model);
    w.kv("pkt_phits", static_cast<std::int64_t>(grid.pkt_phits));
    w.kv("link_latency", static_cast<std::int64_t>(grid.link_latency));
    w.kv("max_paths", static_cast<std::int64_t>(grid.max_paths));
    w.kv("uniform_samples",
         static_cast<std::int64_t>(grid.uniform_samples));
    w.kv("wall_seconds", result.wall_seconds);
    writeRunMemory(w);

    w.key("points");
    w.beginArray();
    for (const auto &p : result.points) {
        writeDemandPointHead(w, p);
        w.kv("saturation", p.saturation);
        w.kv("zero_load_latency", p.zero_load_latency);
        w.kv("offered_weight", p.offered_weight);
        w.key("curve");
        w.beginArray();
        for (const auto &pt : p.curve) {
            w.beginObject();
            w.kv("load", pt.load);
            w.kv("saturated", pt.saturated);
            w.kv("mean_latency", pt.mean_latency);
            w.kv("p50_latency", pt.p50_latency);
            w.kv("p99_latency", pt.p99_latency);
            w.kv("max_utilization", pt.max_utilization);
            w.endObject();
        }
        w.endArray();
        writeDemandPointTail(w, p, "sweep_seconds", p.sweep_seconds);
    }
    w.endArray();
    w.endObject();
}

} // namespace rfc
