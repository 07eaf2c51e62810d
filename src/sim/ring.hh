/**
 * @file
 * A FIFO ring over contiguous power-of-two storage.
 *
 * Channels queue their in-flight items here (flits and credits alike),
 * and router input buffers their flits.  Indexing is a mask, not a
 * modulo, and the ring doubles only when a push finds it full, so a
 * queue sized for the common case needs no proof of a bound to stay
 * correct, and one sized to a proven bound never allocates after
 * construction.
 */

#ifndef PDR_SIM_RING_HH
#define PDR_SIM_RING_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace pdr::sim {

/** FIFO queue of T on a growable power-of-two ring. */
template <typename T>
class Ring
{
  public:
    /** Room for at least `capacity` items (rounded up to a power of
     *  two) before the first growth. */
    explicit Ring(std::size_t capacity = 1)
    {
        std::size_t n = 1;
        while (n < capacity)
            n *= 2;
        buf_.resize(n);
        mask_ = n - 1;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The oldest item, in place (not a copy). */
    T &
    front()
    {
        pdr_assert(size_ > 0);
        return buf_[head_];
    }

    const T &
    front() const
    {
        pdr_assert(size_ > 0);
        return buf_[head_];
    }

    /** The newest item. */
    const T &
    back() const
    {
        pdr_assert(size_ > 0);
        return buf_[(head_ + size_ - 1) & mask_];
    }

    /** Append at the back, doubling the storage if it is full. */
    void
    push(const T &item)
    {
        if (size_ > mask_)
            grow();
        buf_[(head_ + size_) & mask_] = item;
        size_++;
    }

    /** Drop the oldest item. */
    void
    pop()
    {
        pdr_assert(size_ > 0);
        head_ = (head_ + 1) & mask_;
        size_--;
    }

    /** Visit every item as fn(item), oldest first. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < size_; i++)
            fn(buf_[(head_ + i) & mask_]);
    }

  private:
    /** Double the storage, unwrapping the items to start at slot 0. */
    void
    grow()
    {
        std::vector<T> bigger(2 * buf_.size());
        for (std::size_t i = 0; i < size_; i++)
            bigger[i] = buf_[(head_ + i) & mask_];
        buf_.swap(bigger);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;  //!< Slot of the oldest item.
    std::size_t size_ = 0;
    std::size_t mask_ = 0;  //!< Slot count - 1.
};

} // namespace pdr::sim

#endif // PDR_SIM_RING_HH
