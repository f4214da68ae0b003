/**
 * @file
 * Microbenchmarks (google-benchmark) of the VCT flow-control core -
 * the inject/route/arbitrate/drain hot loop that dominates Figures
 * 8-10, 12.  The headline counter is cycles_per_sec: simulated
 * cycles retired per wall-clock second, the number future PRs watch
 * for regressions.  Every benchmark is timed by wall clock
 * (UseRealTime): a kIsRate counter divides by the timed interval, and
 * main-thread CPU time would overstate multi-threaded (jobs > 1) rates.
 *
 * Modes:
 *  - legacy (shards = 0): the sequential compatibility mode that must
 *    reproduce the recorded golden baselines draw-for-draw;
 *  - sharded (shards >= 1): the deterministic wake-wheel scheduler,
 *    single worker thread unless jobs is raised - this is the mode
 *    the >= 1.3x single-thread target is measured on.
 */
#include <benchmark/benchmark.h>

#include "clos/fat_tree.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/direct.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace {

constexpr long long kWarmup = 200;
constexpr long long kMeasure = 1200;

rfc::SimConfig
hotConfig(double load, int shards, int jobs)
{
    rfc::SimConfig cfg;
    cfg.warmup = kWarmup;
    cfg.measure = kMeasure;
    cfg.load = load;
    cfg.seed = 99;
    cfg.shards = shards;
    cfg.jobs = jobs;
    return cfg;
}

void
reportCycleRate(benchmark::State &state, long long delivered)
{
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>((kWarmup + kMeasure) * state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["delivered"] =
        static_cast<double>(delivered) /
        static_cast<double>(state.iterations());
}

/** Folded Clos hot loop: radix-16 3-level CFT, 1024 terminals. */
void
BM_IndirectHotLoop(benchmark::State &state)
{
    const double load = static_cast<double>(state.range(0)) / 100.0;
    const int shards = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    auto fc = rfc::buildCft(16, 3);
    rfc::UpDownOracle oracle(fc);
    long long delivered = 0;
    for (auto _ : state) {
        rfc::UniformTraffic traffic;
        rfc::Simulator sim(fc, oracle, traffic,
                           hotConfig(load, shards, jobs));
        auto r = sim.run();
        delivered += r.delivered_packets;
        benchmark::DoNotOptimize(r.accepted);
    }
    reportCycleRate(state, delivered);
}
BENCHMARK(BM_IndirectHotLoop)
    ->ArgNames({"load%", "shards", "jobs"})
    ->Args({50, 0, 1})   // legacy, mid load
    ->Args({90, 0, 1})   // legacy, saturated
    ->Args({50, 1, 1})   // sharded single-thread (speedup target)
    ->Args({90, 1, 1})
    ->Args({90, 4, 1})   // shard partition overhead at one thread
    ->Args({90, 4, 4})   // intra-trial parallel speedup
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Direct-network hot loop: 64-switch RRN, KSP + hop-escalating VCs. */
void
BM_DirectHotLoop(benchmark::State &state)
{
    const double load = static_cast<double>(state.range(0)) / 100.0;
    const int shards = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    rfc::Rng grng(4);
    rfc::Graph g = rfc::randomRegularGraph(64, 8, grng);
    rfc::KspRoutes routes(g, 4);
    rfc::SimConfig cfg = hotConfig(load, shards, jobs);
    cfg.vcs = std::max(4, routes.maxHops());
    long long delivered = 0;
    for (auto _ : state) {
        rfc::UniformTraffic traffic;
        rfc::DirectSimulator sim(g, routes, 8, traffic, cfg);
        auto r = sim.run();
        delivered += r.delivered_packets;
        benchmark::DoNotOptimize(r.accepted);
    }
    reportCycleRate(state, delivered);
}
BENCHMARK(BM_DirectHotLoop)
    ->ArgNames({"load%", "shards", "jobs"})
    ->Args({50, 0, 1})
    ->Args({90, 0, 1})
    ->Args({90, 1, 1})
    ->Args({90, 4, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace
