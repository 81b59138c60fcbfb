#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> calls{0};
std::atomic<std::uint64_t> bytes{0};

void *
allocate(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed)) {
        calls.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(n, std::memory_order_relaxed);
    }
    // malloc(0) may return null; operator new must not.
    return std::malloc(n ? n : 1);
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed)) {
        calls.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(n, std::memory_order_relaxed);
    }
    std::size_t a = static_cast<std::size_t>(al);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (::posix_memalign(&p, a, n ? n : 1) != 0)
        return nullptr;
    return p;
}

} // namespace

namespace perf
{

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

AllocTotals
allocTotals()
{
    return {calls.load(std::memory_order_relaxed),
            bytes.load(std::memory_order_relaxed)};
}

} // namespace perf

void *
operator new(std::size_t n)
{
    if (void *p = allocate(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = allocateAligned(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void *
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t &) noexcept
{
    return allocateAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
