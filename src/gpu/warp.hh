/**
 * @file
 * Warp contexts and the Greedy-Then-Oldest scheduler.
 *
 * A warp alternates compute gaps and memory accesses; it blocks on
 * loads until the response arrives and fires stores asynchronously.
 * The scheduler keeps ready warps in issue order with GTO stickiness:
 * the warp that issued last keeps issuing until it blocks, then the
 * oldest ready warp takes over (Rogers et al., MICRO'12).
 */

#ifndef SAC_GPU_WARP_HH
#define SAC_GPU_WARP_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"

namespace sac {

/** Execution state of one warp context. */
struct WarpCtx
{
    /** Accesses still to issue this kernel. */
    std::uint64_t remaining = 0;
    /** Loads in flight (warp blocks at the MLP limit). */
    int inFlight = 0;
    /** Stalled at the MLP limit, waiting for a response. */
    bool blocked = false;
    /** Compute gap to apply when the blocking load returns. */
    std::uint16_t pendingGap = 0;
    /** Issued everything and nothing outstanding. */
    bool retired = false;
    /**
     * Access drawn from the trace but stalled on a structural cap
     * (MSHR file or outstanding-write cap). The warp is parked off the
     * ready list until the cap frees and re-issues exactly this access
     * — the trace never depends on how long the stall lasted.
     */
    MemAccess stalled;
    bool hasStalled = false;
};

/**
 * Tracks which warps are ready to issue at any cycle. Warps are
 * `wake()`d with a future ready time and surface through advance()
 * once that time arrives, in GTO order.
 *
 * Sleeping warps live on a calendar: a 64-slot wheel whose slot
 * `t % 64` holds one bit per warp due at cycle t, plus a min-heap of
 * (time, warp) for wakes beyond the wheel's horizon. Every wheel entry
 * lies in [cursor, cursor + 64) and every overflow entry at or after
 * cursor + 64; the cursor only moves forward, and entries move from
 * the heap into the wheel as the horizon reaches them. Due warps
 * surface slot by slot in time order and, within a slot, in ascending
 * warp id: exactly the (time, warp) order of one heap over all wakes.
 */
class WarpScheduler
{
  public:
    explicit WarpScheduler(int num_warps);

    /**
     * Schedules @p warp to become ready at @p at, which must not lie
     * before the cycle of the last advance() that surfaced warps (or
     * of the last reset()).
     */
    void wake(int warp, Cycle at);

    /**
     * Moves warps whose time has come into the ready list. The empty
     * / not-yet-due check is inline: every cluster tick calls this,
     * and most ticks surface no warp.
     */
    void
    advance(Cycle now)
    {
        if (nextDue_ <= now)
            surfaceDue(now);
    }

    /** True when some warp can issue right now. */
    bool hasReady() const { return !ready.empty(); }

    /**
     * Next warp to issue (GTO: the last issuer if still ready,
     * otherwise the oldest). Does not remove it.
     */
    int peek() const;

    /** Removes @p warp from the ready list (it issued or blocked). */
    void consume(int warp);

    /** Re-inserts @p warp at the front (issue refused, retry next cycle). */
    void defer(int warp);

    /** Drops all state (kernel boundary at @p now). */
    void reset(Cycle now);

    std::size_t readyCount() const { return ready.size(); }

    /**
     * Earliest wake time among sleeping warps; cycleNever when none
     * are pending. advance() at (or past) that cycle surfaces the
     * same warps in the same order as per-cycle advancing would,
     * because the calendar surfaces in (time, warp) order either way.
     */
    Cycle nextPendingCycle() const { return nextDue_; }

  private:
    using Pending = std::pair<Cycle, int>;
    static constexpr unsigned wheelSlots = 64;

    /** Out-of-line slow path of advance(): surfaces every due warp. */
    void surfaceDue(Cycle now);
    /** Moves the cursor to @p at and pulls the overflow entries the
     *  new horizon covers into the wheel. */
    void moveCursor(Cycle at);
    /** Sets @p warp's bit in the wheel slot of @p at. */
    void setWheel(int warp, Cycle at);
    /** Earliest wake on the calendar, cycleNever when it is empty. */
    Cycle earliest() const;

    int numWarps;
    /** 64-bit words per wheel slot: ceil(numWarps / 64). */
    std::size_t words_;
    Ring<int> ready;
    std::vector<char> inReady;
    /** wheelSlots x words_ warp bitsets, slot-major. */
    std::vector<std::uint64_t> wheel_;
    /** Bit s set: wheel slot s holds at least one warp. */
    std::uint64_t occupied_ = 0;
    /** Lower bound of every pending wake (see the class comment). */
    Cycle cursor_ = 0;
    /** Cached earliest(): advance()'s inline test. */
    Cycle nextDue_ = cycleNever;
    /** Wakes at or after cursor_ + wheelSlots, earliest first. */
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> overflow_;
};

} // namespace sac

#endif // SAC_GPU_WARP_HH
