#include "clos/topology_events.hpp"

#include <algorithm>
#include <stdexcept>

#include "clos/faults.hpp"
#include "util/rng.hpp"

namespace rfc {

TopologyTimeline &
TopologyTimeline::add(TopologyEvent ev)
{
    if (ev.cycle < 0)
        throw std::invalid_argument(
            "TopologyTimeline: cycle must be >= 0");
    if (ev.op == TopoOp::kActivateTerminals && ev.count < 0)
        throw std::invalid_argument(
            "TopologyTimeline: terminal count must be >= 0");
    // Stable insert: events of the same cycle keep insertion order.
    auto it = std::upper_bound(
        events_.begin(), events_.end(), ev.cycle,
        [](long long c, const TopologyEvent &e) { return c < e.cycle; });
    events_.insert(it, ev);
    return *this;
}

TopologyTimeline
TopologyTimeline::randomFailRepair(const FoldedClos &fc, std::size_t count,
                                   long long fail_at, long long repair_at,
                                   std::uint64_t seed)
{
    Rng rng(seed);
    auto order = randomLinkOrder(fc, rng);
    if (count > order.size())
        throw std::out_of_range(
            "TopologyTimeline::randomFailRepair: count > links");
    if (repair_at >= 0 && repair_at <= fail_at)
        throw std::invalid_argument(
            "TopologyTimeline::randomFailRepair: repair_at must be after "
            "fail_at (or < 0 for no repair)");
    TopologyTimeline tl;
    for (std::size_t i = 0; i < count; ++i)
        tl.fail(fail_at, order[i].lower, order[i].upper);
    if (repair_at >= 0)
        for (std::size_t i = 0; i < count; ++i)
            tl.repair(repair_at, order[i].lower, order[i].upper);
    return tl;
}

std::vector<ClosLink>
TopologyTimeline::initialDead() const
{
    std::vector<ClosLink> out;
    for (const TopologyEvent &e : events_)
        if (e.op == TopoOp::kAttach)
            out.push_back({e.lower, e.upper});
    return out;
}

long long
TopologyTimeline::firstDisruptionCycle() const
{
    for (const TopologyEvent &e : events_)
        if (e.op == TopoOp::kFail || e.op == TopoOp::kDetach)
            return e.cycle;
    return -1;
}

long long
TopologyTimeline::lastEventCycle() const
{
    return events_.empty() ? -1 : events_.back().cycle;
}

} // namespace rfc
