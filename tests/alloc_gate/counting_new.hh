/**
 * @file
 * Counting global operator new of the allocation gate.
 *
 * counting_new.cc replaces the global operator new/delete; while
 * allocCounting is set, every allocation adds one to allocCalls. Both
 * are plain globals: the gate runs its cells on one thread.
 */

#ifndef BVL_TESTS_ALLOC_GATE_COUNTING_NEW_HH
#define BVL_TESTS_ALLOC_GATE_COUNTING_NEW_HH

#include <cstdint>

extern bool allocCounting;
extern std::uint64_t allocCalls;

#endif // BVL_TESTS_ALLOC_GATE_COUNTING_NEW_HH
