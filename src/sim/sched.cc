#include "sim/sched.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {
namespace sim {

ComponentId
WakeQueue::add(Component &c, Cycle due)
{
    const auto id = static_cast<ComponentId>(comps_.size());
    comps_.push_back(&c);
    keys_.push_back(due);
    pos_.push_back(static_cast<std::uint32_t>(heap_.size()));
    heap_.push_back(id);
    siftUp(heap_.size() - 1);
    return id;
}

void
WakeQueue::rekey(ComponentId id, Cycle at)
{
    SAC_ASSERT(id < comps_.size(), "rekey of unregistered component ", id);
    const Cycle old = keys_[id];
    if (at == old)
        return;
    keys_[id] = at;
    if (flat_)
        return;
    if (at < old)
        siftUp(pos_[id]);
    else
        siftDown(pos_[id]);
}

void
WakeQueue::setFlat(bool flat)
{
    if (flat == flat_)
        return;
    flat_ = flat;
    // Returning to sparse: the heap went stale while keys were set
    // directly. Rebuild it from the authoritative key array.
    if (!flat_)
        rebuildHeap();
}

void
WakeQueue::raiseKeys(Cycle floor)
{
    for (Cycle &k : keys_)
        k = std::max(k, floor);
    if (!flat_)
        rebuildHeap();
}

void
WakeQueue::rebuildHeap()
{
    // Reset to the identity layout, then a bottom-up heapify (O(n)).
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        heap_[i] = static_cast<ComponentId>(i);
        pos_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        siftDown(i);
}

Cycle
WakeQueue::nextDue() const
{
    if (!flat_)
        return heap_.empty() ? cycleNever : keys_[heap_[0]];
    Cycle next = cycleNever;
    for (const Cycle k : keys_)
        next = std::min(next, k);
    return next;
}

void
WakeQueue::siftUp(std::size_t i)
{
    const ComponentId id = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(id, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        pos_[heap_[i]] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    heap_[i] = id;
    pos_[id] = static_cast<std::uint32_t>(i);
}

void
WakeQueue::siftDown(std::size_t i)
{
    const ComponentId id = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], id))
            break;
        heap_[i] = heap_[child];
        pos_[heap_[i]] = static_cast<std::uint32_t>(i);
        i = child;
    }
    heap_[i] = id;
    pos_[id] = static_cast<std::uint32_t>(i);
}

ComponentId
Scheduler::add(Component &c)
{
    return queue_.add(c);
}

void
Scheduler::wakeAll(Cycle now)
{
    for (ComponentId id = 0;
         id < static_cast<ComponentId>(queue_.size()); ++id) {
        queue_.wake(id, now);
    }
}

void
Scheduler::tickComponent(ComponentId id, Cycle now)
{
    Component &c = queue_.component(id);
    // Same-cycle wakes clamp so that a cycle's ticks follow ordinal
    // order; only a key left stale below `now` can break it.
    SAC_ASSERT(curOrdinal_ == invalidComponent || id > curOrdinal_,
               "component ", c.name(), " ticked out of ordinal order in "
               "cycle ", now, " (after ",
               queue_.component(curOrdinal_).name(), ")");
    curOrdinal_ = id;
    c.tick(now);
    // Lazy re-key: nextEventCycle clamps to its argument, so the new
    // key is > now and both regimes' loops always terminate.
    queue_.rekey(id, std::max(c.nextEventCycle(now + 1), now + 1));
}

void
Scheduler::runCycle(Cycle now)
{
    inCycle_ = true;
    curCycle_ = now;
    std::uint32_t ticked = 0;
    if (queue_.flat()) {
        // Dense regime: sweep the ordinal-ordered key array. Within a
        // cycle the ticked-ordinal sequence is strictly increasing in
        // either regime (same-cycle wakes from equal-or-earlier
        // ordinals clamp to now + 1), so this forward sweep ticks
        // exactly the components the heap would pop, in the same
        // order — with zero heap traffic.
        const auto n = static_cast<ComponentId>(queue_.size());
        for (ComponentId id = 0; id < n; ++id) {
            if (queue_.keyOf(id) > now)
                continue;
            tickComponent(id, now);
            ++ticked;
        }
    } else {
        for (;;) {
            const ComponentId id = queue_.peekDue(now);
            if (id == invalidComponent)
                break;
            tickComponent(id, now);
            ++stats_.heapPops;
            ++ticked;
        }
    }
    inCycle_ = false;
    curOrdinal_ = invalidComponent;
    updateRegime(ticked);
}

void
Scheduler::updateRegime(std::uint32_t ticked)
{
    ++stats_.cycles;
    const auto n = static_cast<std::uint32_t>(queue_.size());
    if (n == 0)
        return;
    const std::uint32_t eighths = ticked * 8 / n;
    ++stats_.dueHist[std::min<std::uint32_t>(eighths, 7)];
    if (queue_.flat()) {
        ++stats_.denseCycles;
        // Exit hysteresis: a sustained run of mostly-idle cycles
        // means the heap's skip-the-idle win is back on the table.
        sparseRun_ = eighths <= exitNumerator ? sparseRun_ + 1 : 0;
        if (sparseRun_ >= exitRunLen) {
            queue_.setFlat(false);
            sparseRun_ = 0;
        }
    } else {
        // Enter hysteresis: a sustained run of mostly-due cycles
        // means heap pops are pure overhead over a flat sweep.
        denseRun_ = eighths >= enterNumerator ? denseRun_ + 1 : 0;
        if (denseRun_ >= enterRunLen) {
            queue_.setFlat(true);
            denseRun_ = 0;
            ++stats_.denseSpans;
        }
    }
}

void
Scheduler::onClockJump(Cycle to)
{
    // Keys left below the landing cycle are all due at it. Raising
    // them to it makes their (key, ordinal) order the ordinal order
    // again, so the heap pops them in reference phase order instead
    // of by stale key.
    queue_.raiseKeys(to);
}

} // namespace sim
} // namespace sac
