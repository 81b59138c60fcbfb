#include "counting_new.hh"

#include <cstdlib>
#include <new>

bool allocCounting = false;
std::uint64_t allocCalls = 0;

namespace
{

void *
allocate(std::size_t n)
{
    if (allocCounting)
        ++allocCalls;
    // malloc(0) may return null; operator new must not.
    return std::malloc(n ? n : 1);
}

} // namespace

// Every plain form is replaced, so whatever allocates through one of
// them frees through the free() below (a sanitizer runtime checks
// that the two match). The aligned forms stay the runtime's own.
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

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
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
