/**
 * @file
 * Queue-model latency grids on the deterministic experiment engine.
 *
 * A queue grid is the flow tier's point set (DemandGrid: networks x
 * demand patterns) plus a load axis and the queue settings: every
 * point builds the flow problem for its network and pattern through
 * the shared preparation path (forEachDemandPoint) and runs the
 * analytic latency sweep (queue/latency) over all loads.  This is the
 * affordable way to get latency-vs-load *curves* (not just saturation
 * points) at scales where the VCT engine needs hours - validated
 * against it in tests/test_queue_validation.
 *
 * Seeding is runFlowGrid's (see DemandGrid), so a queue grid and a
 * flow grid over the same networks see the same demands and paths.
 * Results are bit-identical at any --jobs value.
 */
#ifndef RFC_EXP_QUEUE_EXPERIMENT_HPP
#define RFC_EXP_QUEUE_EXPERIMENT_HPP

#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/flow_experiment.hpp"
#include "queue/latency.hpp"

namespace rfc {

/** Declarative queue-model study: networks x patterns x loads. */
struct QueueGrid : DemandGrid
{
    /** Offered loads of every sweep, each in (0, 1]. */
    std::vector<double> loads;

    int pkt_phits = 16;
    int link_latency = 1;
    /** makeQueueModel name: mm1, md1, mg1, mg1-history. */
    std::string model = "md1";
    double mg1_cv2 = 0.0;
};

/** Queue-engine outputs at one (network, pattern) grid point. */
struct QueuePointResult : DemandPointResult
{
    double saturation = 0.0;        //!< ECMP fluid saturation load
    double zero_load_latency = 0.0; //!< hop-latency floor (cycles)
    double offered_weight = 0.0;

    /** One QueueLoadPoint per grid load, in load order. */
    std::vector<QueueLoadPoint> curve;

    double sweep_seconds = 0.0;  //!< fluid solve + analytic sweep
};

using QueueGridResult = DemandGridResult<QueuePointResult>;

/**
 * Run every grid point on @p engine (the sweep parallelizes *within*
 * a point, across loads x demand ranges, on the engine's pool).
 * Every field except the *_seconds timings is bit-identical at any
 * jobs value.
 */
QueueGridResult runQueueGrid(const QueueGrid &grid,
                             const ExperimentEngine &engine);

/** Emit a queue grid result as a JSON document (src/exp house style). */
void writeQueueGridJson(std::ostream &os, const QueueGrid &grid,
                        const QueueGridResult &result,
                        std::uint64_t base_seed);

} // namespace rfc

#endif // RFC_EXP_QUEUE_EXPERIMENT_HPP
