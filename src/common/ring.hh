/**
 * @file
 * Growable ring-buffer FIFO.
 *
 * Drop-in replacement for the std::deque push_back/pop_front pattern
 * on the simulator's hot datapaths (bandwidth queues, DRAM channel
 * queues, network inboxes, fill/miss queues). A deque allocates and
 * frees fixed-size chunks as elements stream through it, so a queue
 * in steady state — even one holding only a handful of packets —
 * churns the allocator every few pushes. The ring reuses one
 * power-of-two backing array: after the initial growth to the
 * workload's high-water mark it never touches the allocator again.
 *
 * Elements must be default-constructible and move-assignable.
 * pop_front() does not destroy the slot (the simulator's queue
 * payloads are trivially-destructible PODs); the slot is simply
 * overwritten when the write head comes around again.
 */

#ifndef SAC_COMMON_RING_HH
#define SAC_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace sac {

/** Power-of-two ring buffer with deque-style FIFO interface. */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    T &back() { return buf_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + size_ - 1)]; }

    /** @p i-th element from the front (0 == front()). */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    /**
     * Removes the front element. A ring that drains rewinds to slot 0,
     * so a queue that peaked once keeps cycling through the few slots
     * its usual depth needs, not its whole high-water capacity.
     * @pre !empty().
     */
    void
    pop_front()
    {
        --size_;
        head_ = size_ == 0 ? 0 : wrap(head_ + 1);
    }

    /** Forgets all elements; keeps the backing storage. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

    void
    grow()
    {
        const std::size_t cap = buf_.empty() ? minCapacity : 2 * buf_.size();
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    static constexpr std::size_t minCapacity = 8;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sac

#endif // SAC_COMMON_RING_HH
