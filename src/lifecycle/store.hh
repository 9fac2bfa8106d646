/**
 * @file
 * Snapshot storage backends.
 *
 * The serving layer treats snapshot storage as a key → bytes map with
 * explicit failure: put/get return false instead of throwing, and the
 * caller's fail-closed contract (keep the tenant resident on a failed
 * put, rebuild fresh on a failed get) means a flaky backend can cost
 * warm-up time but never a wrong verdict. Two backends:
 *
 *  - MemorySnapshotStore: a mutex-guarded hash map; the default when
 *    dracod runs without --snapshot-dir, and what the benches use.
 *  - DirSnapshotStore: one `<dir>/<sanitized-key>-<hash>.dtss` file
 *    per tenant, written tmp-then-rename so a crash mid-put never
 *    leaves a torn snapshot under the final name.
 */

#ifndef DRACO_LIFECYCLE_STORE_HH
#define DRACO_LIFECYCLE_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace draco::lifecycle {

/**
 * Abstract key → snapshot-bytes store (see file comment).
 *
 * Implementations are thread-safe: shard workers on different threads
 * evict and restore concurrently.
 */
class SnapshotStore
{
  public:
    virtual ~SnapshotStore() = default;

    /**
     * Store @p bytes under @p key (replacing any prior value). Taken by
     * value so a caller done with its buffer can move it in.
     */
    virtual bool put(const std::string &key,
                     std::vector<uint8_t> bytes) = 0;

    /** Load the value of @p key. @return false when absent/unreadable. */
    virtual bool get(const std::string &key,
                     std::vector<uint8_t> &bytes) const = 0;

    /** Drop @p key. @return false when it was not present. */
    virtual bool remove(const std::string &key) = 0;

    /** @return All stored keys (sorted). */
    virtual std::vector<std::string> keys() const = 0;

    /** @return Total stored snapshot bytes. */
    virtual uint64_t totalBytes() const = 0;

    /** @return Stable backend name ("memory", "dir"). */
    virtual const char *kind() const = 0;
};

/** In-memory backend; keys() sorts on demand. */
class MemorySnapshotStore final : public SnapshotStore
{
  public:
    bool put(const std::string &key, std::vector<uint8_t> bytes) override;
    bool get(const std::string &key,
             std::vector<uint8_t> &bytes) const override;
    bool remove(const std::string &key) override;
    std::vector<std::string> keys() const override;
    uint64_t totalBytes() const override;
    const char *kind() const override { return "memory"; }

  private:
    mutable std::mutex _mutex;
    std::unordered_map<std::string, std::vector<uint8_t>> _entries;
    uint64_t _bytes = 0;
};

/** Directory-backed backend: one `.dtss` file per key. */
class DirSnapshotStore final : public SnapshotStore
{
  public:
    /**
     * @param dir Snapshot directory; created (with parents) when
     *        missing. ok() reports whether it is usable.
     */
    explicit DirSnapshotStore(std::string dir);

    /** @return true when the directory exists and is writable. */
    bool ok() const { return _ok; }

    /** @return The file a snapshot for @p key lives in. */
    std::string pathFor(const std::string &key) const;

    bool put(const std::string &key, std::vector<uint8_t> bytes) override;
    bool get(const std::string &key,
             std::vector<uint8_t> &bytes) const override;
    bool remove(const std::string &key) override;
    std::vector<std::string> keys() const override;
    uint64_t totalBytes() const override;
    const char *kind() const override { return "dir"; }

  private:
    std::string _dir;
    bool _ok = false;
    mutable std::mutex _mutex;
    /** key → stored byte count, mirroring the directory. */
    std::map<std::string, uint64_t> _sizes;
};

/** Read a whole file. @return false on any I/O failure. */
bool readSnapshotFile(const std::string &path,
                      std::vector<uint8_t> &bytes);

/** Write a whole file via tmp + rename. @return false on failure. */
bool writeSnapshotFile(const std::string &path,
                       const std::vector<uint8_t> &bytes);

} // namespace draco::lifecycle

#endif // DRACO_LIFECYCLE_STORE_HH
