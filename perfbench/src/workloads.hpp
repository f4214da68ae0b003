/**
 * @file
 * The benchmark workloads.  Each one is a fixed set of operations (a
 * "round") on seeded networks; main.cpp repeats rounds to fill the
 * requested measuring time, and every round must reproduce the first
 * round's results exactly.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions
{
    std::uint64_t seed = 1;
    bool quick = false;  //!< reduced run length (self-test)
    int threads = 0;     //!< 0 = the workload's configured thread count
    bool setup_only = false;  //!< stop after set-up (set-up repetitions)
};

/** Everything one round of a workload produced. */
struct Round
{
    double setup_s = 0.0;  //!< all work before the first run()/solve
    double wall_s = 0.0;   //!< all work after set-up
    double run_s = 0.0;    //!< summed Simulator::run() wall time
    long long cycles = 0;  //!< summed simulated cycles
    long long forwards = 0;
    /** Per-layer metrics: aggregate names plus ".<net>.<load>" splits. */
    std::map<std::string, double> layer;
    std::string results;  //!< deterministic JSON of every output
    /**
     * Inputs of the cross-tier ratio, keyed "<net>.<quantity>": VCT
     * accepted load at offered load 1.0 (vct_paper_sharded), ECMP fluid
     * saturation and GK lambda (fluid_paper).  Deterministic.
     */
    std::map<std::string, double> cross_tier;
    long long ops = 0;
    long long failed = 0;
    std::vector<std::string> failures;
};

struct Workload
{
    std::string name;
    int threads;  //!< host threads the workload is configured for
    std::function<void(const RunOptions &, Tracer &, Round &)> round;
};

const std::vector<Workload> &workloads();

/** Unit and direction of one per-layer metric. */
struct LayerMetric
{
    std::string name;
    std::string unit;
    std::string better;
};

/** The per-layer metrics every traced run reports (0 = layer unused). */
const std::vector<LayerMetric> &layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
