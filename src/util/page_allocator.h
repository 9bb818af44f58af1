// Page-mapped storage for large, long-lived buffers.
//
// glibc malloc serves each thread from its own arena and rarely returns
// freed arena memory to the OS. A buffer that one thread allocates and
// another thread frees much later — a block body proposed by the leader's
// loop thread and retained by every replica's ledger — therefore grows the
// allocating thread's arena, and the pages stay resident after the buffer
// is gone. Mapping such buffers straight from the OS keeps them out of the
// arenas: munmap hands the pages back the moment the last holder lets go.

#ifndef PRESTIGE_UTIL_PAGE_ALLOCATOR_H_
#define PRESTIGE_UTIL_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace prestige {
namespace util {

/// Standard allocator that maps requests of at least kMapBytes directly
/// (mmap/munmap) and leaves smaller ones to operator new. Stateless, so
/// all instances compare equal.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  /// Below this size a mapping's page rounding and syscalls cost more
  /// than the arena pages they save.
  static constexpr size_t kMapBytes = 64 * 1024;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) {}  // NOLINT

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kMapBytes) {
      ::operator delete(p);
    } else {
      ::munmap(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const PageAllocator<U>& /*other*/) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PageAllocator<U>& /*other*/) const {
    return false;
  }
};

}  // namespace util
}  // namespace prestige

#endif  // PRESTIGE_UTIL_PAGE_ALLOCATOR_H_
