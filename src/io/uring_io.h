#ifndef LSMLAB_IO_URING_IO_H_
#define LSMLAB_IO_URING_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace lsmlab {

/// One pread in an io_uring batch. `result` follows kernel convention:
/// >= 0 bytes read (short read = EOF), < 0 is -errno.
struct UringPread {
  int fd = -1;
  uint64_t offset = 0;
  size_t len = 0;
  char* buf = nullptr;
  int64_t result = 0;
};

/// A raw-syscall io_uring submission/completion queue pair (no liburing
/// dependency: the container toolchain ships only the kernel uapi header).
/// Single-threaded: callers keep one ring per thread. Compiled out to an
/// always-unavailable stub without LSMLAB_IO_URING.
class UringQueue {
 public:
  /// Probes io_uring_setup once per process; false under ENOSYS (old
  /// kernel), EPERM (container seccomp), or a compiled-out build — callers
  /// then use the portable serial pread loop instead.
  static bool KernelSupported();

  /// Creates a ring with `entries` submission slots (rounded up by the
  /// kernel). Returns nullptr when unsupported or setup fails.
  static std::unique_ptr<UringQueue> Create(unsigned entries);

  ~UringQueue();
  UringQueue(const UringQueue&) = delete;
  UringQueue& operator=(const UringQueue&) = delete;

  /// Submits all `n` preads — in sq-capacity chunks, one io_uring_enter
  /// each — and blocks until every completion is reaped. Returns false on a
  /// ring-level failure (submission rejected); per-op outcomes are in
  /// UringPread::result.
  bool PreadBatch(UringPread* ops, size_t n);

  unsigned sq_capacity() const { return sq_entries_; }

 private:
  UringQueue() = default;

  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;

  // Mapped submission ring.
  void* sq_ring_ = nullptr;
  size_t sq_ring_size_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  void* sqes_ = nullptr;
  size_t sqes_size_ = 0;

  // Mapped completion ring (may alias sq_ring_ under
  // IORING_FEAT_SINGLE_MMAP).
  void* cq_ring_ = nullptr;
  size_t cq_ring_size_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  void* cqes_ = nullptr;
};

}  // namespace lsmlab

#endif  // LSMLAB_IO_URING_IO_H_
