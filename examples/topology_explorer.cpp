/**
 * @file
 * Topology explorer: compare every indirect topology this library can
 * build for a given switch radix - capacity, cost, diameter, bisection
 * and (optionally) simulated performance - the Sections 4-6 comparison
 * for *your* parameters.
 *
 * Structural stats are followed by the flow model: certified maximum
 * concurrent flow and the ECMP worst/average per-demand throughput
 * under sampled uniform demand (see src/flow), which ranks the
 * topologies by saturation behavior without running the simulator.
 *
 * Usage: topology_explorer [--radix R] [--levels L] [--simulate]
 *                          [--load X] [--seed S] [--samples N]
 *                          [--max-paths K] [--jobs N]
 */
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const int radix = static_cast<int>(opts.getInt("radix", 12));
    const int levels = static_cast<int>(opts.getInt("levels", 3));
    Rng rng(opts.getInt("seed", 2));

    std::cout << "== topology explorer: R = " << radix << ", l = "
              << levels << " ==\n\n";

    // Build everything buildable at these parameters.
    std::vector<FoldedClos> nets;
    nets.push_back(buildCft(radix, levels));
    nets.push_back(buildKaryTree(radix / 2, levels));
    int q = radix / 2 - 1;
    if (isPrimePower(q) && levels <= 3)
        nets.push_back(buildOft(q, levels));
    int n1 = rfcMaxLeaves(radix, levels);
    auto built = buildRfc(radix, levels, n1, rng, 100);
    if (built.routable)
        nets.push_back(built.topology);
    else
        std::cout << "(RFC at threshold not routable after 100 tries; "
                     "skipping)\n";

    TablePrinter t({"topology", "terminals", "switches", "wires",
                    "diameter", "norm-bisection", "T/switch"});
    for (const auto &net : nets) {
        UpDownOracle oracle(net);
        int maxd = 0;
        for (int a = 0; a < net.numLeaves();
             a += std::max(1, net.numLeaves() / 64))
            for (int b = 0; b < net.numLeaves(); ++b)
                maxd = std::max(maxd, oracle.leafDistance(a, b));
        std::string bisect =
            net.name().rfind("RFC", 0) == 0
                ? TablePrinter::fmt(
                      normalizedBisectionRfc(radix, levels), 2)
                : (net.name().rfind("CFT", 0) == 0 ? "1.00" : "-");
        t.addRow({net.name(), TablePrinter::fmtInt(net.numTerminals()),
                  TablePrinter::fmtInt(net.numSwitches()),
                  TablePrinter::fmtInt(net.numWires()),
                  std::to_string(maxd), bisect,
                  TablePrinter::fmt(
                      static_cast<double>(net.numTerminals()) /
                          net.numSwitches(), 2)});
    }
    t.print(std::cout);

    // The flow, queue and closed-loop sections below evaluate the same
    // networks, oracles and seed.
    std::vector<UpDownOracle> oracles;
    oracles.reserve(nets.size());
    for (const auto &net : nets)
        oracles.emplace_back(net);
    ExperimentEngine engine(
        opts.jobs(), static_cast<std::uint64_t>(opts.getInt("seed", 2)));
    DemandGrid points;
    for (std::size_t i = 0; i < nets.size(); ++i)
        points.addClos(nets[i].name(), nets[i], oracles[i]);
    points.patterns = {"uniform"};
    points.max_paths = static_cast<int>(opts.getInt("max-paths", 16));
    points.uniform_samples = static_cast<int>(opts.getInt("samples", 4));

    // Flow-level throughput under sampled uniform demand: the
    // saturation answer of Figures 8-10 without packet simulation.
    {
        FlowGrid grid{points, SolveOptions{}};
        FlowGridResult flows = runFlowGrid(grid, engine);

        std::cout << "\nflow model, sampled uniform demand ("
                  << grid.uniform_samples << " permutations, <= "
                  << grid.max_paths << " paths/pair):\n";
        TablePrinter f({"topology", "maxflow", "dual-bound", "ecmp-sat",
                        "worst-demand", "avg-demand"});
        for (const auto &p : flows.points)
            f.addRow({p.network, TablePrinter::fmt(p.throughput, 3),
                      TablePrinter::fmt(p.dual_bound, 3),
                      TablePrinter::fmt(p.ecmp_saturation, 3),
                      TablePrinter::fmt(p.ecmp_worst, 3),
                      TablePrinter::fmt(p.ecmp_average, 3)});
        f.print(std::cout);
    }

    // Queue-model latency curves: the analytic contention tier turns
    // the flow ranking above into latency-vs-load numbers (mean and
    // p99) without a packet simulation.  "-" marks loads past the
    // topology's fluid saturation.
    {
        QueueGrid grid{points, {0.2, 0.5, 0.8}};
        QueueGridResult curves = runQueueGrid(grid, engine);

        std::cout << "\nqueue model (M/D/1 per port), latency in "
                     "cycles at 16-phit packets:\n";
        TablePrinter c({"topology", "saturation", "zero-load",
                        "mean@0.2", "p99@0.2", "mean@0.5", "p99@0.5",
                        "mean@0.8", "p99@0.8"});
        for (const auto &p : curves.points) {
            std::vector<std::string> row = {
                p.network, TablePrinter::fmt(p.saturation, 3),
                TablePrinter::fmt(p.zero_load_latency, 1)};
            for (const auto &pt : p.curve) {
                row.push_back(pt.saturated
                                  ? "-"
                                  : TablePrinter::fmt(pt.mean_latency,
                                                      1));
                row.push_back(pt.saturated
                                  ? "-"
                                  : TablePrinter::fmt(pt.p99_latency,
                                                      1));
            }
            c.addRow(row);
        }
        c.print(std::cout);
    }

    // Closed-loop workloads: the completion-time view of the same
    // ranking - RPC tail latency and coflow completion time from the
    // VCT engine driven by src/workload (small window; increase
    // --measure for converged tails).
    {
        WorkloadGrid grid;
        for (std::size_t i = 0; i < nets.size(); ++i)
            grid.addNetwork(nets[i].name(), nets[i], oracles[i]);
        WorkloadSpec rpc;
        WorkloadSpec coflow;
        coflow.kind = "coflow";
        grid.workloads = {rpc, coflow};
        grid.loads = {opts.getDouble("load", 0.5)};
        grid.base.warmup = 400;
        grid.base.measure =
            opts.getInt("measure", 2000);
        grid.base.seed =
            static_cast<std::uint64_t>(opts.getInt("seed", 2));
        WorkloadGridResult wl = runWorkloadGrid(grid, engine);

        std::cout << "\nclosed-loop workloads at load "
                  << TablePrinter::fmt(grid.loads[0], 2)
                  << " (cycles):\n";
        TablePrinter w({"topology", "workload", "rpc-p50", "rpc-p99",
                        "cct-mean", "goodput"});
        for (const auto &p : wl.points) {
            const bool coflow_row = p.kind == "coflow";
            w.addRow({p.network, p.workload,
                      coflow_row ? "-"
                                 : TablePrinter::fmt(p.rpc_p50.mean, 1),
                      coflow_row ? "-"
                                 : TablePrinter::fmt(p.rpc_p99.mean, 1),
                      coflow_row
                          ? TablePrinter::fmt(p.cct_mean.mean, 1)
                          : "-",
                      TablePrinter::fmt(p.goodput.mean, 3)});
        }
        w.print(std::cout);
    }

    // Memory budget: what each representation costs to hold, and what
    // the compressed forwarding tables save over dense per-entry
    // storage (the deployable-artifact cost of "simple ECMP routing").
    {
        std::cout << "\nmemory budget (measured bytes):\n";
        TablePrinter m({"topology", "topo-KiB", "oracle-KiB",
                        "tables-KiB", "dense-KiB", "ratio",
                        "unique-sets"});
        for (const auto &net : nets) {
            UpDownOracle oracle(net);
            ForwardingTables tables(net, oracle);
            auto kib = [](long long b) {
                return TablePrinter::fmt(b / 1024.0, 1);
            };
            m.addRow({net.name(), kib(net.memoryBytes()),
                      kib(oracle.memoryBytes()),
                      kib(tables.memoryBytes()),
                      kib(tables.denseMemoryBytes()),
                      TablePrinter::fmt(tables.compressionRatio(), 2),
                      TablePrinter::fmtInt(tables.uniqueSets())});
        }
        m.print(std::cout);
    }

    // Jellyfish-style direct network as a reference row.
    int d = 2 * (levels - 1);
    std::cout << "\nreference direct network (RRN/Jellyfish) at "
                 "diameter " << d << ": "
              << TablePrinter::fmtInt(rrnMaxTerminals(radix, d))
              << " terminals on "
              << TablePrinter::fmtInt(rrnMaxSwitches(radix, d))
              << " switches (needs k-shortest-path routing and "
                 "deadlock avoidance)\n";

    if (opts.getBool("simulate", false)) {
        const double load = opts.getDouble("load", 0.5);
        std::cout << "\nsimulating uniform traffic at offered " << load
                  << "...\n";
        TablePrinter s({"topology", "accepted", "latency", "hops"});
        for (const auto &net : nets) {
            UpDownOracle oracle(net);
            UniformTraffic traffic;
            SimConfig cfg;
            cfg.load = load;
            cfg.warmup = 600;
            cfg.measure = 2000;
            cfg.seed = opts.getInt("seed", 2);
            Simulator sim(net, oracle, traffic, cfg);
            auto r = sim.run();
            s.addRow({net.name(), TablePrinter::fmt(r.accepted, 3),
                      TablePrinter::fmt(r.avg_latency, 1),
                      TablePrinter::fmt(r.avg_hops, 2)});
        }
        s.print(std::cout);

        // The same networks under an adversarial leaf flood, oblivious
        // minimal vs UGAL adaptive: where the fabric has spare
        // non-minimal capacity, UGAL detours past the funnel.
        std::cout << "\nadversarial neighbor-leaf shift: oblivious vs "
                     "adaptive (UGAL)...\n";
        TablePrinter a({"topology", "acc(minimal)", "lat(minimal)",
                        "acc(UGAL)", "lat(UGAL)"});
        for (const auto &net : nets) {
            UpDownOracle oracle(net);
            SimConfig cfg;
            cfg.load = 1.0;
            cfg.warmup = 600;
            cfg.measure = 2000;
            cfg.seed = opts.getInt("seed", 2);
            ShiftTraffic tr_min(net.terminalsPerLeaf());
            Simulator min_sim(net, oracle, tr_min, cfg);
            auto rm = min_sim.run();
            ShiftTraffic tr_ugal(net.terminalsPerLeaf());
            Simulator ugal_sim(net, oracle, tr_ugal, cfg,
                               ClosPolicy::kAdaptiveUgal);
            auto ru = ugal_sim.run();
            a.addRow({net.name(), TablePrinter::fmt(rm.accepted, 3),
                      TablePrinter::fmt(rm.avg_latency, 1),
                      TablePrinter::fmt(ru.accepted, 3),
                      TablePrinter::fmt(ru.avg_latency, 1)});
        }
        a.print(std::cout);
    }
    return 0;
}
