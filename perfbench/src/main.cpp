/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload <name>[,<name>...] --seed N [--seconds S]
 *             [--trace 0|1] [--rounds N] [--quick] [--threads N]
 *             [--trace-out FILE]
 *
 * Each workload repeats its round of operations while the next round is
 * expected to end within --seconds (at least one round, or exactly
 * --rounds).  Before and after the rounds it repeats its set-up alone
 * (each burst at least three times and one second); the set-up time is
 * the median of those repetitions.  One JSON report goes to stdout: the
 * manifest, then per workload a deterministic `results` section (round
 * 0; every later round must reproduce it byte for byte), the operation
 * checks, and the machine-dependent `telemetry`; when one process runs
 * both vct_paper_sharded and fluid_paper, a deterministic `cross_tier`
 * section follows.  --threads overrides the workload's thread count
 * (timing only: results do not depend on it) and --quick shortens every
 * run (the self-test).  Untraced runs report the end-to-end
 * metrics; --trace 1 alternates untraced and traced rounds and reports
 * the per-layer metrics, layer self times and the tracing overhead.
 * Exit status: 0 when every check passed, 1 when one failed, 2 on a
 * usage error or a build that must not be timed.
 */
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "workloads.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace perfbench;

namespace {

struct Args
{
    std::vector<std::string> workloads;
    RunOptions run;
    double seconds = 15.0;
    bool trace = false;
    int rounds = 0;  //!< 0 = fill --seconds
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--quick") {
            a.run.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                std::stringstream ss(v);
                for (std::string w; std::getline(ss, w, ',');)
                    a.workloads.push_back(w);
            } else if (k == "--seed") {
                a.run.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (k == "--rounds") {
                a.rounds = std::stoi(v);
            } else if (k == "--threads") {
                a.run.threads = std::stoi(v);
            } else if (k == "--trace-out") {
                a.trace_out = v;
            } else {
                usage("unknown flag " + k);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workloads.empty())
        usage("--workload is required");
    if (a.run.threads < 0 || a.rounds < 0 || !(a.seconds >= 0))
        usage("--threads, --rounds and --seconds must be >= 0");
    return a;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : perfbench::workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

#ifdef RFC_CHECK_INVARIANTS
constexpr bool kCheckInvariants = true;
#else
constexpr bool kCheckInvariants = false;
#endif

#if defined(__SANITIZE_ADDRESS__)
constexpr const char *kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char *kSanitizer = "thread";
#else
constexpr const char *kSanitizer = "";
#endif

/** Why this build must not be timed ("" = it may). */
std::string
untimeableReason()
{
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release";
    if (kCheckInvariants)
        return "built with RFC_CHECK_INVARIANTS (runtime guards)";
    if (!std::string(kSanitizer).empty())
        return std::string("built with -fsanitize=") + kSanitizer;
    return "";
}

// Per set-up burst: at least three repetitions and one second.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 2000;
constexpr double kSetupSeconds = 1.0;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Derive the ratio metrics from a round's summed layer values, for
 * the aggregate and for every per-network split, and drop the
 * internal "._" accumulators.
 */
void
finalizeLayers(std::map<std::string, double> &m)
{
    auto get = [&](const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    auto splits = [&](const std::string &base) {
        std::vector<std::string> out;
        for (const auto &kv : m)
            if (kv.first.compare(0, base.size(), base) == 0)
                out.push_back(kv.first.substr(base.size()));
        return out;
    };
    for (const std::string &s : splits("sim.run_s")) {
        const double fw = get("sim.forwards" + s);
        const double conf = get("sim.arb_conflicts" + s);
        const double stall = get("sim.credit_stalls" + s);
        m["sim.ns_per_forward" + s] = 1e9 * ratio(get("sim.run_s" + s), fw);
        m["sim.thread_idle_frac" + s] =
            1.0 - ratio(get("sim._cpu_s" + s), get("sim._thread_s" + s));
        m["sim.arb_win_ratio" + s] = ratio(fw, fw + conf);
        m["sim.credit_block_ratio" + s] = ratio(stall, fw + stall);
    }
    for (const std::string &s : splits("flow.solve_s")) {
        m["flow.ms_per_phase" + s] =
            1e3 * ratio(get("flow.solve_s" + s), get("flow.phases" + s));
        m["flow.thread_idle_frac" + s] =
            1.0 - ratio(get("flow._cpu_s" + s), get("flow._thread_s" + s));
    }
    for (const std::string &s : splits("queue.sweep_s"))
        m["queue.thread_idle_frac" + s] =
            1.0 - ratio(get("queue._cpu_s" + s), get("queue._thread_s" + s));
    for (auto it = m.begin(); it != m.end();)
        it = it->first.find("._") != std::string::npos ? m.erase(it)
                                                        : std::next(it);
}

/** Median over @p rounds of every layer metric they recorded. */
std::map<std::string, double>
medianLayers(const std::vector<const Round *> &rounds)
{
    std::map<std::string, std::vector<double>> all;
    for (const Round *r : rounds)
        for (const auto &[k, v] : r->layer)
            all[k].push_back(v);
    std::map<std::string, double> out;
    for (auto &[k, v] : all)
        out[k] = median(v);
    return out;
}

void
writeMetric(rfc::JsonWriter &w, const std::string &name, double v,
            const std::string &unit)
{
    w.key(name);
    w.beginObject();
    w.kv("value", v);
    w.kv("unit", unit);
    w.endObject();
}

std::string
unitOf(const std::string &metric)
{
    for (const LayerMetric &m : layerMetrics())
        if (metric.compare(0, m.name.size(), m.name) == 0 &&
            (metric.size() == m.name.size() || metric[m.name.size()] == '.'))
            return m.unit;
    return "";
}

/**
 * The cross-tier accuracy field (reported, never gated): VCT accepted
 * load at offered load 1.0 from vct_paper_sharded over the ECMP fluid
 * saturation and the GK lambda from fluid_paper, on the same seeded
 * networks.  Empty unless one process ran both workloads.
 */
std::string
crossTier(const std::map<std::string, double> &in)
{
    std::ostringstream os;
    rfc::JsonWriter w(os, 1);
    w.beginArray();
    for (const std::string net : {"cft", "rfc"}) {
        const auto vct = in.find(net + ".vct_accepted_l1.0");
        const auto ecmp = in.find(net + ".ecmp_saturation");
        const auto gk = in.find(net + ".gk_lambda");
        if (vct == in.end() || ecmp == in.end() || gk == in.end())
            return "";
        w.beginObject();
        w.kv("net", net);
        w.kv("vct_accepted_l1.0", vct->second);
        w.kv("ecmp_saturation", ecmp->second);
        w.kv("gk_lambda", gk->second);
        w.kv("vct_over_ecmp", vct->second / ecmp->second);
        w.kv("vct_over_gk", vct->second / gk->second);
        w.endObject();
    }
    w.endArray();
    return os.str();
}

/** Run @p wl's rounds and return its report object (JSON text). */
std::string
runWorkload(const Workload &wl, const Args &a, Tracer &tracer,
            long long &failed_total,
            std::map<std::string, double> &cross_tier)
{
    // Set-up alone, back to back, in two bursts: one before the rounds
    // and one after them, so that the median spans the host's state over
    // the whole run rather than its first moments.
    std::vector<double> setups;
    RunOptions setup_only = a.run;
    setup_only.setup_only = true;
    auto setupBurst = [&] {
        tracer.setEnabled(false);
        double spent = 0.0;
        for (std::size_t n = 0; n < kMinSetups ||
                                (spent < kSetupSeconds && n < kMaxSetups);
             ++n) {
            Round rd;
            wl.round(setup_only, tracer, rd);
            setups.push_back(rd.setup_s);
            spent += rd.setup_s;
        }
    };
    setupBurst();

    std::vector<Round> rounds;
    // Rounds repeat while the next one is expected to end within
    // --seconds; a traced run needs one untraced and one traced round
    // at least.
    const int min_rounds = a.trace ? 2 : 1;
    const int want = a.rounds > 0 ? std::max(a.rounds, min_rounds) : 0;
    std::int64_t rss_first = 0;
    std::vector<int> traced_ids;
    const auto start = Clock::now();
    for (int r = 0;; ++r) {
        const bool traced = a.trace && r % 2 == 1;
        tracer.setEnabled(traced);
        const int id = tracer.nextRound();
        if (traced)
            traced_ids.push_back(id);
        std::cerr << "[perfbench] " << wl.name << " round " << r
                  << (traced ? " (traced)" : "") << "\n";
        Round rd;
        wl.round(a.run, tracer, rd);
        finalizeLayers(rd.layer);
        if (r > 0 && rd.results != rounds[0].results) {
            rd.failures.push_back("round " + std::to_string(r) +
                                  " results differ from round 0");
            rd.failed = rd.ops;
        }
        rounds.push_back(std::move(rd));
        if (r == 0)
            rss_first = rfc::peakRssBytes();
        const int done = r + 1;
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (want > 0 ? done >= want
                     : done >= min_rounds &&
                           elapsed * (done + 1) / done > a.seconds)
            break;
    }
    tracer.setEnabled(false);
    setupBurst();

    // Round 0 warms caches and the heap; it stays out of the timing
    // figures when at least three rounds remain without it.
    const std::size_t first_timed = rounds.size() >= 4 ? 1 : 0;
    std::vector<const Round *> plain, traced;
    long long ops = 0, failed = 0;
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        if (a.trace && i % 2 == 1)
            traced.push_back(&rounds[i]);
        else if (i >= first_timed)
            plain.push_back(&rounds[i]);
        ops += rounds[i].ops;
        failed += rounds[i].failed;
        for (const std::string &f : rounds[i].failures)
            failures.push_back(f);
    }
    failed_total += failed;
    for (const auto &[k, v] : rounds[0].cross_tier)
        cross_tier[k] = v;

    auto med = [](const std::vector<const Round *> &rs, auto field) {
        std::vector<double> v;
        for (const Round *r : rs)
            v.push_back(field(*r));
        return median(v);
    };
    const double setup_s = median(setups);
    const double wall_s = med(plain, [](const Round &r) { return r.wall_s; });
    const double cycles_per_s = med(plain, [](const Round &r) {
        return ratio(static_cast<double>(r.cycles), r.run_s);
    });
    const double forwards_per_s = med(plain, [](const Round &r) {
        return ratio(static_cast<double>(r.forwards), r.run_s);
    });
    // Peak RSS once one full pass has run; repeated rounds only add
    // allocator fragmentation, which the final peak shows.
    const double mib = 1024.0 * 1024.0;
    const double rss_mb = static_cast<double>(rss_first) / mib;

    std::ostringstream checks;
    {
        rfc::JsonWriter w(checks, 1);
        w.beginObject();
        w.kv("ops", static_cast<std::int64_t>(ops));
        w.kv("ops_failed", static_cast<std::int64_t>(failed));
        w.key("failures");
        w.beginArray();
        for (const std::string &f : failures)
            w.value(f);
        w.endArray();
        w.endObject();
    }
    std::ostringstream tele;
    rfc::JsonWriter w(tele, 1);
    w.beginObject();
    w.kv("rounds", static_cast<std::int64_t>(rounds.size()));
    w.kv("traced_rounds", static_cast<std::int64_t>(traced.size()));
    w.kv("warmup_rounds", static_cast<std::int64_t>(first_timed));
    w.kv("peak_rss_mb_final",
         static_cast<double>(rfc::peakRssBytes()) / mib);
    w.key("setup_samples_s");
    w.beginArray();
    for (double v : setups)
        w.value(v);
    w.endArray();
    w.key("round_wall_s");
    w.beginArray();
    for (const Round &r : rounds)
        w.value(r.wall_s);
    w.endArray();
    w.key("end_to_end");
    w.beginObject();
    writeMetric(w, "setup_s", setup_s, "s");
    writeMetric(w, "wall_s", wall_s, "s");
    writeMetric(w, "sim_cycles_per_s", cycles_per_s, "cycles/s");
    writeMetric(w, "forwards_per_s", forwards_per_s, "forwards/s");
    writeMetric(w, "peak_rss_mb", rss_mb, "MB");
    w.endObject();
    if (a.trace) {
        std::map<std::string, double> layers = medianLayers(traced);
        const double traced_wall =
            med(traced, [](const Round &r) { return r.wall_s; });
        layers["trace.overhead_s"] = traced_wall - wall_s;
        for (const LayerMetric &m : layerMetrics())
            layers.emplace(m.name, 0.0);  // layer unused by this workload
        w.key("per_layer");
        w.beginObject();
        for (const auto &[k, v] : layers)
            writeMetric(w, k, v, unitOf(k));
        w.endObject();
        std::map<std::string, std::vector<double>> self;
        for (int id : traced_ids)
            for (const auto &[k, v] : tracer.selfTimes(id))
                self[k].push_back(v);
        w.key("self_time_s");
        w.beginObject();
        for (const auto &[k, v] : self)
            w.kv(k, median(v));
        w.endObject();
    }
    w.endObject();
    // The results section goes out verbatim: exactly the bytes the
    // round comparison used.
    return "{\n\"name\": \"" + wl.name + "\",\n\"results\": " +
           rounds[0].results + ",\n\"checks\": " + checks.str() +
           ",\n\"telemetry\": " + tele.str() + "\n}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
#ifdef __GLIBC__
    // Fix the allocator's mmap and trim thresholds.  glibc raises them
    // as the program frees large blocks, so repeated set-ups switched
    // partway through a run from mapping and faulting in fresh pages to
    // reusing the heap, about 3x faster; where in the run that happened
    // set the median.  Fixed, every repetition after the first reuses
    // the heap.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
    std::vector<const Workload *> selected;
    for (const std::string &name : a.workloads) {
        const Workload *w = findWorkload(name);
        if (!w)
            usage("unknown workload " + name);
        selected.push_back(w);
    }
    const std::string why = untimeableReason();
    if (!why.empty()) {
        std::cerr << "perfbench: refusing to time this build: " << why
                  << "\n";
        return 2;
    }

    std::ostringstream manifest;
    {
        rfc::JsonWriter w(manifest, 1);
        w.beginObject();
        w.kv("build_type", PERFBENCH_BUILD_TYPE);
        w.kv("rfc_check_invariants", kCheckInvariants);
        w.kv("rfc_sanitize", kSanitizer);
        w.kv("compiler", PERFBENCH_COMPILER);
        w.kv("nproc", static_cast<std::int64_t>(
                          std::thread::hardware_concurrency()));
        w.kv("seed", static_cast<std::uint64_t>(a.run.seed));
        w.kv("quick", a.run.quick);
        w.kv("trace", a.trace);
        w.key("threads");
        w.beginObject();
        for (const Workload *wl : selected)
            w.kv(wl->name, static_cast<std::int64_t>(
                               a.run.threads > 0 ? a.run.threads
                                                 : wl->threads));
        w.endObject();
        w.endObject();
    }

    Tracer tracer;
    long long failed = 0;
    std::string body;
    std::map<std::string, double> cross_inputs;
    try {
        for (const Workload *wl : selected) {
            if (!body.empty())
                body += ",\n";
            body += runWorkload(*wl, a, tracer, failed, cross_inputs);
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    if (a.trace && !a.trace_out.empty()) {
        std::ofstream f(a.trace_out);
        tracer.writeChrome(f);
        if (!f)
            std::cerr << "perfbench: cannot write " << a.trace_out << "\n";
    }
    const std::string cross = crossTier(cross_inputs);
    std::cout << "{\n\"manifest\": " << manifest.str()
              << ",\n\"workloads\": [\n" << body << "\n]";
    if (!cross.empty())
        std::cout << ",\n\"cross_tier\": " << cross;
    std::cout << "\n}\n";
    return failed > 0 ? 1 : 0;
}
