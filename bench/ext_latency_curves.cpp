/**
 * @file
 * Extension: CFT-vs-RFC latency-vs-load curves from the queue-model
 * engine (src/queue), the third engine tier.
 *
 * The paper's Figures 8-12 report saturation points; an operator tunes
 * against the latency *curve* below saturation, which so far only the
 * cycle-accurate VCT engine could produce - at a cost that rules out
 * the million-terminal tier.  This bench runs the analytic per-port
 * queueing sweep (M/D/1 contention by default, see DESIGN.md 4.12) at
 * three scales:
 *
 *  - `fig8`: the 11K equal-resources shape (3-level CFT vs RFC) - the
 *    configuration the model is cross-validated against VCT on in
 *    tests/test_queue_validation;
 *  - `fig10`: the 200K shape (4-level CFT vs the largest routable
 *    3-level RFC);
 *  - `1m`: the fig_perf_1M flow point (R=54, 4-level CFT vs 3-level
 *    RFC at 1,062,882 terminals) - latency curves at a scale where a
 *    VCT sweep is simply not runnable.
 *
 * `--smoke` shrinks every section to seconds and appends a self-check:
 * it runs the VCT engine over the same loads on the fig8 smoke
 * networks and fails (exit 1) unless the queue sweep was at least 10x
 * faster - the acceptance criterion of the queue tier, continuously
 * enforced in the CI bench-smoke job.  Measured speedups are recorded
 * in EXPERIMENTS.md.
 *
 * Other knobs: --section=fig8,fig10,1m, --loads (comma list),
 * --patterns, --samples, --max-paths, --model (mm1|md1|mg1|
 * mg1-history), --cv2, --pkt-phits, --link-latency, --seed, --jobs,
 * --json.  Output is bit-identical at any --jobs value; timing goes
 * to stderr (or the JSON timing blocks, filtered by the CI
 * determinism diff).
 */
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "exp/queue_experiment.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

using namespace rfc;

namespace {

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<double>
parseLoads(const std::string &s)
{
    std::vector<double> out;
    for (const auto &tok : splitList(s))
        out.push_back(std::stod(tok));
    return out;
}

/** Run one section grid and print a curve table per demand pattern. */
double
runSection(const Options &opts, const std::string &heading,
           QueueGrid &grid, const ExperimentEngine &engine)
{
    QueueGridResult result = runQueueGrid(grid, engine);
    double build = 0.0, sweep = 0.0;
    for (const auto &p : result.points) {
        build += p.build_seconds;
        sweep += p.sweep_seconds;
    }
    std::cerr << "[queue] " << result.points.size() << " point(s) on "
              << result.jobs << " job(s): " << result.wall_seconds
              << " s wall (" << build << " s build, " << sweep
              << " s sweep)\n";

    std::cout << "## " << heading << "\n";
    if (opts.getBool("json", false)) {
        writeQueueGridJson(std::cout, grid, result, engine.baseSeed());
        return result.wall_seconds;
    }
    for (std::size_t pi = 0; pi < grid.patterns.size(); ++pi) {
        TablePrinter t({"network", "load", "mean", "p50", "p99",
                        "max_util", "sat"});
        for (std::size_t ni = 0; ni < grid.networks.size(); ++ni) {
            const auto &p =
                result.points[result.index(ni, pi,
                                           grid.patterns.size())];
            for (const auto &pt : p.curve)
                t.addRow({p.network, TablePrinter::fmt(pt.load, 2),
                          pt.saturated
                              ? "-"
                              : TablePrinter::fmt(pt.mean_latency, 1),
                          pt.saturated
                              ? "-"
                              : TablePrinter::fmt(pt.p50_latency, 1),
                          pt.saturated
                              ? "-"
                              : TablePrinter::fmt(pt.p99_latency, 1),
                          TablePrinter::fmt(pt.max_utilization, 2),
                          pt.saturated ? "yes" : "no"});
        }
        emit(opts,
             "pattern: " + grid.patterns[pi] + " (fluid saturation " +
                 TablePrinter::fmt(
                     result
                         .points[result.index(0, pi,
                                              grid.patterns.size())]
                         .saturation,
                     3) +
                 " for " + grid.networks[0].label + ")",
             t);
    }
    return result.wall_seconds;
}

/**
 * Smoke self-check: the queue sweep must beat a VCT sweep over the
 * same networks and loads by >= 10x (the tier's reason to exist).
 */
bool
selfCheck(const Options &opts, double queue_seconds,
          const std::vector<PerfNetwork> &nets,
          const std::vector<double> &loads, std::uint64_t seed)
{
    // Validation-grade cycle counts (test_queue_validation uses the
    // same): an "equivalent" VCT sweep is one whose latency estimates
    // are actually converged, not a token run.
    ExperimentGrid grid;
    for (const auto &n : nets)
        grid.addNetwork(n.label, *n.topology, *n.oracle);
    grid.addTraffic("uniform");
    grid.loads = loads;
    grid.base.warmup = 1000;
    grid.base.measure = 5000;
    double vct_seconds =
        ExperimentEngine(opts.jobs(), seed).run(grid).wall_seconds;

    double ratio = queue_seconds > 0.0 ? vct_seconds / queue_seconds
                                       : 1e9;
    std::cerr << "[self-check] VCT sweep " << vct_seconds
              << " s vs queue sweep " << queue_seconds << " s: "
              << ratio << "x\n";
    if (vct_seconds < 10.0 * queue_seconds) {
        std::cerr << "[self-check] FAILED: queue sweep less than 10x "
                     "faster than VCT\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const bool smoke = opts.getBool("smoke", false);
    std::cout << "== Latency-vs-load curves from the queue-model "
                 "engine (CFT vs RFC) ==\n"
              << (smoke ? "mode: SMOKE (CI-sized, with VCT self-check)\n"
                        : "mode: FULL (paper shapes up to 1M terminals; "
                          "--smoke for CI scale)\n");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 21));
    auto sections = splitList(opts.get("section", "fig8,fig10,1m"));
    auto want = [&](const std::string &s) {
        for (const auto &x : sections)
            if (x == s || x == "all")
                return true;
        return false;
    };

    QueueGrid proto;
    proto.patterns = splitList(opts.get("patterns", "uniform"));
    proto.loads = parseLoads(
        opts.get("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"));
    proto.max_paths =
        static_cast<int>(opts.getInt("max-paths", smoke ? 8 : 16));
    proto.uniform_samples =
        static_cast<int>(opts.getInt("samples", smoke ? 2 : 4));
    proto.pkt_phits =
        static_cast<int>(opts.getInt("pkt-phits", 16));
    proto.link_latency =
        static_cast<int>(opts.getInt("link-latency", 1));
    proto.model = opts.get("model", "md1");
    proto.mg1_cv2 = opts.getDouble("cv2", 0.0);

    ExperimentEngine engine(opts.jobs(), seed);
    // Per-section rng streams (fig_perf_1M convention): running one
    // section alone builds the same wirings as the full run.
    Rng fig8_rng(seed);
    Rng fig10_rng(deriveSeed(seed, 1, 0));
    Rng m1_rng(deriveSeed(seed, 2, 0));
    bool ok = true;

    if (want("fig8")) {
        // Figure 8 shape: 3-level CFT vs the equal-resources RFC.
        // This is the configuration test_queue_validation pins the
        // model against VCT on (radix 8 there and under --smoke).
        const int radix = smoke ? 8 : 36;
        auto cft = buildCft(radix, 3);
        auto built = buildRfc(radix, 3, cft.numLeaves(), fig8_rng, 50);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);

        QueueGrid grid = proto;
        grid.addClos("CFT", cft, o_cft)
            .addClos("RFC", built.topology, o_rfc);
        double queue_seconds = runSection(
            opts,
            "Fig 8 shape (" + std::to_string(cft.numTerminals()) +
                " terminals, equal resources, 3 levels)",
            grid, engine);

        if (smoke)
            ok = selfCheck(opts, queue_seconds,
                           {{"CFT", &cft, &o_cft},
                            {"RFC", &built.topology, &o_rfc}},
                           proto.loads, seed) &&
                 ok;
    }

    if (want("fig10")) {
        // Figure 10 shape: 4-level CFT vs the largest routable
        // 3-level RFC.
        const int radix = smoke ? 8 : 36;
        auto cft = buildCft(radix, 4);
        int n1 = rfcMaxLeaves(radix, 3);
        auto built = buildRfc(radix, 3, n1, fig10_rng, 50);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);

        QueueGrid grid = proto;
        grid.addClos("CFT4", cft, o_cft)
            .addClos("RFC3", built.topology, o_rfc);
        runSection(opts,
                   "Fig 10 shape (" +
                       std::to_string(cft.numTerminals()) +
                       "-terminal CFT4 vs max RFC3)",
                   grid, engine);
    }

    if (want("1m")) {
        // The fig_perf_1M flow point: same terminal count, RFC one
        // level shorter.  Smoke keeps both at 3 levels (radix 8);
        // full is R=54 - 1,062,882 terminals each.
        const int radix = smoke ? 8 : 54;
        auto cft = buildCft(radix, smoke ? 3 : 4);
        long long terms = cft.numTerminals();
        int n1 = static_cast<int>(terms / (radix / 2));
        if (n1 % 2)
            ++n1;
        auto built = buildRfc(radix, 3, n1, m1_rng, smoke ? 50 : 5);
        if (!built.routable)
            std::cout << "warning: RFC not routable\n";
        UpDownOracle o_cft(cft), o_rfc(built.topology);
        std::cerr << "[build] topologies + oracles ready, peak RSS "
                  << static_cast<double>(peakRssBytes()) /
                         (1024.0 * 1024.0)
                  << " MiB\n";

        QueueGrid grid = proto;
        grid.max_paths =
            static_cast<int>(opts.getInt("max-paths", smoke ? 8 : 4));
        grid.uniform_samples =
            static_cast<int>(opts.getInt("samples", smoke ? 2 : 1));
        grid.addClos(smoke ? "CFT3" : "CFT4", cft, o_cft)
            .addClos("RFC3", built.topology, o_rfc);
        runSection(opts,
                   std::to_string(terms) +
                       "-terminal latency curves (CFT vs RFC)",
                   grid, engine);
    }

    return ok ? 0 : 1;
}
