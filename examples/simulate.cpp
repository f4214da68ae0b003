/**
 * @file
 * simulate - the one-stop simulation driver (a miniature INSEE).
 *
 * Builds any topology the library supports, sweeps offered load under
 * a chosen traffic pattern and prints the latency/throughput series.
 * All Table 2 parameters are overridable.
 *
 * Examples:
 *   simulate --topo rfc --radix 16 --levels 3 --leaves 128 \
 *            --traffic random-pairing --points 8
 *   simulate --topo cft --radix 12 --levels 3 --traffic uniform \
 *            --route-mode updown-random --vcs 8 --csv
 *   simulate --topo oft --radix 8 --levels 2 --load 0.7
 *
 * Options (defaults in brackets):
 *   --topo cft|rfc|oft|kary [rfc]     --radix R [16]
 *   --levels L [3]                    --leaves N1 [auto from Thm 4.2]
 *   --traffic NAME [uniform]          --shift-stride S [tpl]
 *   --load X (single point) | --min-load/--max-load/--points [0.1..1.0 x7]
 *   --route-mode minimal|updown-random|valiant [minimal]
 *   --vcs [4] --buffers [4] --pkt-phits [16] --warmup [1000]
 *   --measure [4000] --seed [1] --trials [1]
 *   --jobs N [auto]  parallel trials (bit-identical at any N)
 *   --csv | --json   machine-readable output (JSON includes
 *                    stddev/ci95 when --trials > 1, plus timing)
 *
 * The load sweep is declared as an experiment grid (1 network x 1
 * traffic x points x trials) and runs on the shared engine; per-trial
 * seeds are derived from --seed, so results do not depend on --jobs.
 */
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);

    const std::string topo = opts.get("topo", "rfc");
    const int radix = static_cast<int>(opts.getInt("radix", 16));
    const int levels = static_cast<int>(opts.getInt("levels", 3));
    Rng rng(opts.getInt("seed", 1));

    FoldedClos fc;
    if (topo == "cft") {
        fc = buildCft(radix, levels);
    } else if (topo == "kary") {
        fc = buildKaryTree(radix / 2, levels);
    } else if (topo == "oft") {
        fc = buildOft(radix / 2 - 1, levels);
    } else if (topo == "rfc") {
        int n1 = static_cast<int>(opts.getInt("leaves", 0));
        if (n1 == 0) {
            n1 = rfcMaxLeaves(radix, levels) * 4 / 5;
            if (n1 % 2)
                --n1;
            n1 = std::max(n1, radix);
        }
        auto built = buildRfc(radix, levels, n1, rng);
        if (!built.routable) {
            std::cerr << "error: no routable RFC found for these "
                         "parameters (Theorem 4.2 limit is N1 <= "
                      << rfcMaxLeaves(radix, levels) << ")\n";
            return 1;
        }
        fc = std::move(built.topology);
    } else {
        std::cerr << "unknown --topo " << topo << "\n";
        return 1;
    }

    UpDownOracle oracle(fc);
    std::cout << "topology: " << fc.name() << "  terminals "
              << fc.numTerminals() << ", switches " << fc.numSwitches()
              << ", wires " << fc.numWires() << ", avg up/down distance "
              << TablePrinter::fmt(oracle.averageLeafDistance(), 2)
              << "\n";
    if (!oracle.routable()) {
        std::cerr << "error: topology is not up/down routable\n";
        return 1;
    }

    SimConfig cfg;
    cfg.vcs = static_cast<int>(opts.getInt("vcs", cfg.vcs));
    cfg.buf_packets =
        static_cast<int>(opts.getInt("buffers", cfg.buf_packets));
    cfg.pkt_phits =
        static_cast<int>(opts.getInt("pkt-phits", cfg.pkt_phits));
    cfg.warmup = opts.getInt("warmup", 1000);
    cfg.measure = opts.getInt("measure", 4000);
    cfg.seed = opts.getInt("seed", 1);
    const std::string mode = opts.get("route-mode", "minimal");
    if (mode == "minimal") {
        cfg.route_mode = RouteMode::kMinimal;
    } else if (mode == "updown-random") {
        cfg.route_mode = RouteMode::kUpDownRandom;
    } else if (mode == "valiant") {
        cfg.route_mode = RouteMode::kValiant;
    } else {
        std::cerr << "unknown --route-mode " << mode << "\n";
        return 1;
    }

    const std::string tname = opts.get("traffic", "uniform");
    const long long stride =
        opts.getInt("shift-stride", fc.terminalsPerLeaf());
    const double hot_fraction = opts.getDouble("hot-fraction", 0.2);
    const int hotspots = static_cast<int>(opts.getInt("hotspots", 1));
    TrafficFactory make_traffic =
        [tname, stride, hot_fraction,
         hotspots]() -> std::unique_ptr<Traffic> {
        if (tname == "shift")
            return std::make_unique<ShiftTraffic>(stride);
        if (tname == "hotspot")
            return std::make_unique<HotspotTraffic>(hot_fraction,
                                                    hotspots);
        return makeTraffic(tname);
    };

    std::vector<double> loads;
    if (opts.has("load")) {
        loads.push_back(opts.getDouble("load", 0.5));
    } else {
        loads = loadRange(opts.getDouble("min-load", 0.1),
                          opts.getDouble("max-load", 1.0),
                          static_cast<int>(opts.getInt("points", 7)));
    }
    const int trials = static_cast<int>(opts.getInt("trials", 1));

    ExperimentGrid grid;
    grid.addNetwork(fc.name(), fc, oracle);
    grid.addTraffic(tname, make_traffic);
    grid.loads = loads;
    grid.base = cfg;
    grid.repetitions = trials;

    ExperimentEngine engine(opts.jobs(), cfg.seed);
    GridResult result = engine.run(grid);

    // Run telemetry goes to stderr: stdout stays identical across runs
    // and --jobs values (and is one JSON document under --json).
    std::cerr << "traffic: " << tname << ", route mode: " << mode
              << ", " << trials << " trial(s)/point, "
              << result.jobs << " job(s), "
              << TablePrinter::fmt(result.wall_seconds, 2) << " s\n";

    if (opts.getBool("json", false)) {
        writeGridJson(std::cout, grid, result, cfg.seed);
        return 0;
    }

    TablePrinter t({"offered", "accepted", "avg-lat", "p50-lat",
                    "p99-lat", "avg-hops", "suppressed", "unroutable"});
    for (const auto &p : result.points) {
        auto r = p.toSimResult();
        t.addRow({TablePrinter::fmt(r.offered, 3),
                  TablePrinter::fmt(r.accepted, 3),
                  TablePrinter::fmt(r.avg_latency, 1),
                  TablePrinter::fmt(r.p50_latency, 1),
                  TablePrinter::fmt(r.p99_latency, 1),
                  TablePrinter::fmt(r.avg_hops, 2),
                  TablePrinter::fmtInt(r.suppressed_packets),
                  TablePrinter::fmtInt(r.unroutable_packets)});
    }
    if (opts.getBool("csv", false))
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
