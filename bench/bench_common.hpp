/**
 * @file
 * Shared helpers for the per-figure/per-table benchmark harnesses.
 *
 * Every bench binary prints the series of one paper artifact.  By
 * default the experiments run at a sandbox-friendly scale; pass
 * --full (or set RFC_FULL=1) to run the paper-scale configuration.
 * All binaries accept --seed, --trials, and simulation-size overrides
 * where meaningful.
 *
 * Output and execution flags (handled here / by util/options):
 *   --csv      print tables as CSV instead of aligned columns
 *   --json     print structured JSON; simulation grids additionally
 *              carry per-point mean/stddev/ci95 and per-trial
 *              wall-clock timing (bench runs double as perf telemetry)
 *   --jobs N   worker threads for the experiment engine (default:
 *              hardware concurrency, env RFC_JOBS).  Results are
 *              bit-identical for any N: seeds derive from
 *              {base seed, grid point, rep}, never from thread order.
 *   --shards S deterministic intra-trial sharding: each simulation
 *              partitions its switches into S shards with seed-split
 *              RNGs.  S is part of the experiment definition (S = 0,
 *              the default, is the legacy single-stream engine).
 *   --sim-jobs N  threads advancing the shards of one simulation;
 *              results are bit-identical for any N at fixed S.
 *
 * Simulation benches declare their trial grids (networks x traffic
 * patterns x offered loads x reps) and hand them to ExperimentEngine
 * rather than looping; see runPerfScenario below for the Figures 8-10
 * shape.
 */
#ifndef RFC_BENCH_COMMON_HPP
#define RFC_BENCH_COMMON_HPP

#include <iostream>
#include <string>
#include <vector>

#include "clos/folded_clos.hpp"
#include "exp/experiment.hpp"
#include "routing/updown.hpp"
#include "sim/traffic.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace rfc {

/** Print a table (aligned, CSV or JSON per flags) with a heading. */
inline void
emit(const Options &opts, const std::string &heading, TablePrinter &table)
{
    std::cout << "### " << heading << "\n";
    if (opts.getBool("json", false))
        table.printJson(std::cout);
    else if (opts.getBool("csv", false))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

/** Standard banner describing the scale mode. */
inline void
banner(const Options &opts, const std::string &what)
{
    std::cout << "== " << what << " ==\n"
              << (opts.fullScale()
                      ? "mode: FULL (paper-scale; may take a long time)\n"
                      : "mode: default (reduced scale; --full or "
                        "RFC_FULL=1 for paper scale)\n");
}

/** One network under test in a performance scenario. */
struct PerfNetwork
{
    std::string label;
    const FoldedClos *topology;
    const UpDownOracle *oracle;
};

/** Engine telemetry on stderr (stdout stays bit-stable across runs). */
inline void
reportEngine(const GridResult &result, std::size_t n_points, int reps)
{
    double cpu = 0.0;
    for (const auto &p : result.points)
        cpu += p.trial_seconds_total;
    std::cerr << "[engine] " << n_points * static_cast<std::size_t>(reps)
              << " trials on " << result.jobs << " job(s): "
              << result.wall_seconds << " s wall, " << cpu
              << " s simulated-trial cpu\n";
}

/**
 * Run the Figures 8-10 experiment shape: declare the grid
 * networks x traffic patterns x offered loads, run it on the engine
 * (--jobs threads), and print accepted load and average latency side
 * by side per traffic pattern, plus the unroutable share of generated
 * packets for any network that is not up/down routable.  With --json, the full per-point
 * aggregates (stddev/ci95, timing) are emitted instead of tables.
 */
inline void
runPerfScenario(const Options &opts, const std::vector<PerfNetwork> &nets,
                const std::vector<std::string> &traffics,
                const std::vector<double> &loads, const SimConfig &base,
                int repetitions)
{
    ExperimentGrid grid;
    for (const auto &n : nets)
        grid.addNetwork(n.label, *n.topology, *n.oracle);
    for (const auto &tname : traffics)
        grid.addTraffic(tname);
    grid.loads = loads;
    grid.base = base;
    // Intra-trial engine options: --shards S runs each simulation on S
    // deterministic switch shards, --sim-jobs N advances them on N
    // threads.  The shard count is part of the experiment (it selects
    // the random streams); the thread count never changes results.
    grid.base.shards =
        static_cast<int>(opts.getInt("shards", base.shards));
    grid.base.jobs =
        static_cast<int>(opts.getInt("sim-jobs", base.jobs));
    grid.repetitions = repetitions;

    ExperimentEngine engine(opts.jobs(), base.seed);
    GridResult result = engine.run(grid);
    reportEngine(result, grid.numPoints(), repetitions);

    if (opts.getBool("json", false)) {
        writeGridJson(std::cout, grid, result, base.seed);
        return;
    }

    // A network that is not up/down routable refuses some packets at
    // the source; its "unr" column shows the refused share of generated
    // packets, which its accepted load cannot show.
    std::vector<bool> partial;
    for (const auto &n : nets)
        partial.push_back(!n.oracle->routable());
    for (std::size_t ti = 0; ti < traffics.size(); ++ti) {
        std::vector<std::string> headers{"offered"};
        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            headers.push_back("acc(" + nets[ni].label + ")");
            if (partial[ni])
                headers.push_back("unr(" + nets[ni].label + ")");
            headers.push_back("lat(" + nets[ni].label + ")");
        }
        TablePrinter t(headers);
        for (std::size_t li = 0; li < loads.size(); ++li) {
            std::vector<std::string> row{TablePrinter::fmt(loads[li], 2)};
            for (std::size_t ni = 0; ni < nets.size(); ++ni) {
                const auto &p = result.points[result.index(
                    ni, ti, li, traffics.size(), loads.size())];
                row.push_back(TablePrinter::fmt(p.accepted.mean, 3));
                if (partial[ni]) {
                    const double gen = p.generated_packets.mean;
                    row.push_back(TablePrinter::fmt(
                        gen > 0.0 ? p.unroutable_packets.mean / gen : 0.0,
                        3));
                }
                row.push_back(TablePrinter::fmt(p.avg_latency.mean, 1));
            }
            t.addRow(row);
        }
        emit(opts, "traffic: " + traffics[ti], t);
    }
}

} // namespace rfc

#endif // RFC_BENCH_COMMON_HPP
