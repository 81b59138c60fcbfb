/**
 * @file
 * FIFO over a power-of-two array of reused slots.
 *
 * The engine's queues, the lanes' micro-op queues and the VInstr
 * record table are FIFOs whose depth a steady-state run reaches early
 * and then keeps. std::deque allocates a node as it walks through
 * memory; Ring allocates only when it doubles. pop_front() leaves the
 * slot's contents in place, so a slot handed out again by pushSlot()
 * still owns its members' buffers and a caller that clear()s them
 * refills them without touching the heap (DESIGN.md §11).
 */

#ifndef BVL_SIM_RING_HH
#define BVL_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace bvl
{

template <typename T>
class Ring
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** @p i-th element from the front (0 = oldest). */
    T &operator[](std::size_t i) { return slots[(head + i) & mask()]; }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }

    /**
     * Append a slot and return it with whatever a popped element left
     * there (a default-constructed T if it was never used). Doubling
     * moves the live elements, so references into the ring do not
     * survive a push.
     */
    T &
    pushSlot()
    {
        if (count == slots.size())
            grow();
        ++count;
        return back();
    }

    /** Copy-assigns into the slot, so its members keep their buffers;
     *  the move form takes the argument's instead. */
    void push_back(const T &v) { pushSlot() = v; }
    void push_back(T &&v) { pushSlot() = std::move(v); }

    /** Drop the front element; its slot keeps its contents. */
    void
    pop_front()
    {
        head = (head + 1) & mask();
        --count;
    }

    void clear() { head = count = 0; }

  private:
    std::size_t mask() const { return slots.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 8 : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace bvl

#endif // BVL_SIM_RING_HH
