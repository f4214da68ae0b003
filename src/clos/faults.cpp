#include "clos/faults.hpp"

#include <stdexcept>

namespace rfc {

std::vector<ClosLink>
randomLinkOrder(const FoldedClos &fc, Rng &rng)
{
    auto order = fc.links();
    rng.shuffle(order);
    return order;
}

FoldedClos
withLinksRemoved(const FoldedClos &fc, const std::vector<ClosLink> &order,
                 std::size_t count)
{
    if (count > order.size())
        throw std::out_of_range("withLinksRemoved: count > links");
    FoldedClos out = fc;
    for (std::size_t i = 0; i < count; ++i)
        if (!out.removeLink(order[i].lower, order[i].upper))
            throw std::logic_error("withLinksRemoved: link not present");
    return out;
}

std::vector<ClosLink>
removeRandomLinks(FoldedClos &fc, std::size_t count, Rng &rng)
{
    auto order = randomLinkOrder(fc, rng);
    if (count > order.size())
        throw std::out_of_range("removeRandomLinks: count > links");
    order.resize(count);
    for (const auto &link : order)
        fc.removeLink(link.lower, link.upper);
    return order;
}

// ======================================================================
// LinkFaultState
// ======================================================================

LinkFaultState::LinkFaultState(const FoldedClos &fc) : fc_(&fc)
{
    const int n = fc.numSwitches();
    up_dead_.resize(static_cast<std::size_t>(n));
    down_dead_.resize(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
        up_dead_[static_cast<std::size_t>(s)].assign(fc.up(s).size(), 0);
        down_dead_[static_cast<std::size_t>(s)].assign(fc.down(s).size(),
                                                       0);
    }
}

bool
LinkFaultState::setLink(int lower, int upper, bool dead)
{
    if (!fc_)
        throw std::logic_error("LinkFaultState: not bound to a topology");
    const auto &up = fc_->up(lower);
    auto &up_state = up_dead_[static_cast<std::size_t>(lower)];
    const std::uint8_t want = dead ? 1 : 0;
    // Locate the first instance of the link whose state differs, as an
    // occurrence index k shared by both endpoint lists.
    int k = -1, occurrence = 0;
    std::size_t up_idx = 0;
    for (std::size_t i = 0; i < up.size(); ++i) {
        if (up[i] != upper)
            continue;
        if (k < 0 && up_state[i] != want) {
            k = occurrence;
            up_idx = i;
        }
        ++occurrence;
    }
    if (k < 0)
        return false;
    const auto &down = fc_->down(upper);
    auto &down_state = down_dead_[static_cast<std::size_t>(upper)];
    int seen = 0;
    for (std::size_t i = 0; i < down.size(); ++i) {
        if (down[i] != lower)
            continue;
        if (seen++ == k) {
            if (down_state[i] == want)
                throw std::logic_error(
                    "LinkFaultState: endpoint masks out of sync");
            down_state[i] = want;
            up_state[up_idx] = want;
            dead_ += dead ? 1 : -1;
            return true;
        }
    }
    throw std::logic_error("LinkFaultState: link lists out of sync");
}

} // namespace rfc
