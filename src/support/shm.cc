#include "support/shm.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

namespace draco::support {

int
createSealedMemfd(const char *name, size_t bytes)
{
    const int fd = ::memfd_create(name, MFD_CLOEXEC | MFD_ALLOW_SEALING);
    if (fd < 0)
        return -1;
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0 ||
        ::fcntl(fd, F_ADD_SEALS,
                F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) != 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

SharedMapping::~SharedMapping()
{
    if (_data)
        ::munmap(_data, _size);
}

bool
SharedMapping::map(int fd, size_t bytes)
{
    struct stat st {};
    if (_data || ::fstat(fd, &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < bytes)
        return false;
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
    if (p == MAP_FAILED)
        return false;
    _data = static_cast<uint8_t *>(p);
    _size = bytes;
    return true;
}

ssize_t
sendWithFds(int sock, std::span<const uint8_t> bytes,
            std::span<const int> fds)
{
    iovec iov{const_cast<uint8_t *>(bytes.data()), bytes.size()};
    std::vector<uint8_t> control(CMSG_SPACE(fds.size_bytes()));
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control.data();
    msg.msg_controllen = control.size();
    cmsghdr *cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(fds.size_bytes());
    std::memcpy(CMSG_DATA(cmsg), fds.data(), fds.size_bytes());
    ssize_t n;
    do {
        n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    return n;
}

ssize_t
recvWithFds(int sock, uint8_t *buf, size_t len, std::vector<int> &fds)
{
    // Room for a handful of fds; a peer that sends more has the
    // surplus closed by the kernel (MSG_CTRUNC).
    alignas(cmsghdr) uint8_t control[CMSG_SPACE(8 * sizeof(int))] = {};
    iovec iov{buf, len};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    ssize_t n;
    do {
        n = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        return n;
    for (cmsghdr *c = CMSG_FIRSTHDR(&msg); c; c = CMSG_NXTHDR(&msg, c)) {
        if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS)
            continue;
        const size_t count = (c->cmsg_len - CMSG_LEN(0)) / sizeof(int);
        for (size_t i = 0; i < count; ++i) {
            int fd = -1;
            std::memcpy(&fd, CMSG_DATA(c) + i * sizeof(int), sizeof(int));
            fds.push_back(fd);
        }
    }
    return n;
}

void
copyToShared(uint8_t *dst, const uint8_t *src, size_t n)
{
    // Whole words with a constant-size memcpy (one move each), then
    // the zero-padded tail.
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t word = 0;
        std::memcpy(&word, src + i, 8);
        sharedWord<uint64_t>(dst + i).store(word, std::memory_order_relaxed);
    }
    if (i < n) {
        uint64_t word = 0;
        std::memcpy(&word, src + i, n - i);
        sharedWord<uint64_t>(dst + i).store(word, std::memory_order_relaxed);
    }
}

void
copyFromShared(uint8_t *dst, const uint8_t *src, size_t n)
{
    uint8_t *from = const_cast<uint8_t *>(src);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const uint64_t word =
            sharedWord<uint64_t>(from + i).load(std::memory_order_relaxed);
        std::memcpy(dst + i, &word, 8);
    }
    if (i < n) {
        const uint64_t word =
            sharedWord<uint64_t>(from + i).load(std::memory_order_relaxed);
        std::memcpy(dst + i, &word, n - i);
    }
}

} // namespace draco::support
