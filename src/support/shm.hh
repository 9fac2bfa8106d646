/**
 * @file
 * Memory shared with another process, and the fds that carry it.
 *
 * A sealed memfd is a file the creator sizes once and then seals
 * against shrinking, growing and further seals, so a peer that
 * receives it can write its bytes but can never make a mapping of it
 * fault (SIGBUS) by truncating it. SharedMapping maps one; sendWithFds
 * and recvWithFds pass fds over a Unix socket as SCM_RIGHTS, riding
 * on the bytes of one send. copyToShared and copyFromShared move a
 * payload between private memory and memory a peer may rewrite at any
 * moment, one relaxed atomic word at a time: a reader copies a
 * payload out once and decodes only its private copy, so a
 * concurrent writer can garble the bytes but can never change them
 * between a check and a use. prefetchLines and prefetchLinesForWrite
 * start a copy's line transfers before the copy needs them.
 */

#ifndef DRACO_SUPPORT_SHM_HH
#define DRACO_SUPPORT_SHM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include <sys/types.h>

namespace draco::support {

/**
 * Create a memfd of @p bytes sealed with F_SEAL_SHRINK | F_SEAL_GROW |
 * F_SEAL_SEAL.
 *
 * @return The fd (close-on-exec), or -1 with errno set (EMFILE at
 *         the fd limit, for one).
 */
int createSealedMemfd(const char *name, size_t bytes);

/** A MAP_SHARED read-write mapping; owns the mapping, not the fd. */
class SharedMapping
{
  public:
    SharedMapping() = default;
    ~SharedMapping();

    SharedMapping(const SharedMapping &) = delete;
    SharedMapping &operator=(const SharedMapping &) = delete;

    /**
     * Map the first @p bytes of @p fd.
     *
     * @return false when the file is shorter than @p bytes or mmap
     *         fails.
     */
    bool map(int fd, size_t bytes);

    uint8_t *data() const { return _data; }
    size_t size() const { return _size; }

  private:
    uint8_t *_data = nullptr;
    size_t _size = 0;
};

/**
 * Send @p bytes on the Unix socket @p sock with @p fds attached
 * (SCM_RIGHTS) to their first byte, in one sendmsg.
 *
 * @return Bytes sent (possibly short), or -1 with errno set.
 */
ssize_t sendWithFds(int sock, std::span<const uint8_t> bytes,
                    std::span<const int> fds);

/**
 * recvmsg up to @p len bytes from @p sock. Fds that arrive with them
 * are appended to @p fds, close-on-exec.
 *
 * @return As recv(2); EINTR is retried.
 */
ssize_t recvWithFds(int sock, uint8_t *buf, size_t len,
                    std::vector<int> &fds);

/**
 * @return A relaxed atomic view of the @p T at @p p, which must be
 *         aligned for it: a word of memory a peer may write.
 */
template <typename T>
std::atomic_ref<T>
sharedWord(uint8_t *p)
{
    return std::atomic_ref<T>(*reinterpret_cast<T *>(p));
}

/**
 * Copy @p n bytes into shared memory at @p dst (8-aligned) in relaxed
 * atomic 8-byte stores. The last store pads with zeros to the word, so
 * the area at @p dst must extend to a multiple of 8 bytes.
 */
void copyToShared(uint8_t *dst, const uint8_t *src, size_t n);

/**
 * Copy @p n bytes out of shared memory at @p src (8-aligned, readable
 * to a multiple of 8 bytes) in relaxed atomic 8-byte loads.
 */
void copyFromShared(uint8_t *dst, const uint8_t *src, size_t n);

/**
 * Start moving the 64-byte cache lines of [@p p, @p p + @p n), @p p on
 * a line boundary, toward this core ahead of a copy out of them, so
 * their transfers overlap instead of missing one line at a time. A
 * hint: it reads no value, so a peer writing the lines meanwhile races
 * nothing.
 */
inline void
prefetchLines(const uint8_t *p, size_t n)
{
    for (size_t off = 0; off < n; off += 64)
        __builtin_prefetch(p + off, 0, 3);
}

/**
 * prefetchLines() for lines about to be written: fetched for
 * ownership (x86 `prefetchw`), so the stores do not wait for it.
 */
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("prfchw")))
#endif
inline void
prefetchLinesForWrite(uint8_t *p, size_t n)
{
    for (size_t off = 0; off < n; off += 64)
        __builtin_prefetch(p + off, 1, 3);
}

/** A spin-wait hint to the CPU (x86 `pause`); a no-op elsewhere. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace draco::support

#endif // DRACO_SUPPORT_SHM_HH
