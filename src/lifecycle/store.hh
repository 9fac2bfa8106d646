/**
 * @file
 * Snapshot storage backends.
 *
 * The serving layer treats snapshot storage as a key → bytes map with
 * explicit failure: put/take return false instead of throwing, and the
 * caller's fail-closed contract (keep the tenant resident on a failed
 * put, rebuild fresh on a failed take) means a flaky backend can cost
 * warm-up time but never a wrong verdict. A restore consumes its
 * snapshot whatever the outcome, so the service reads it with take(),
 * which moves the bytes out and drops the key in one call; get()
 * leaves the key in place for tools and tests. Two backends:
 *
 *  - MemorySnapshotStore: a mutex-guarded hash map, the in-memory
 *    backend tests inject to read and corrupt snapshots.
 *  - DirSnapshotStore: one `<dir>/<sanitized-key>-<hash>.dtss` file
 *    per tenant, written tmp-then-rename so a crash mid-put never
 *    leaves a torn snapshot under the final name.
 *
 * A CheckService puts `.dtss` bytes into an injected store (see
 * snapshot.hh): its VAT image behind the tenant's name and policy key,
 * under one CRC, so a file damaged, left over from another policy, or
 * copied under another tenant's key fails its restore closed. Without
 * an injected store the service keeps each evicted tenant's bare VAT
 * image in the tenant's own slot and uses no store at all.
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

    /**
     * Move the value of @p key into @p bytes and drop the key: get()
     * then remove() in one call. The key is dropped even when its
     * value cannot be read.
     *
     * @return false when the key is absent or its value unreadable.
     */
    virtual bool take(const std::string &key,
                      std::vector<uint8_t> &bytes) = 0;

    /** @return All stored keys (sorted). */
    virtual std::vector<std::string> keys() const = 0;

    /** @return Total stored snapshot bytes. */
    virtual uint64_t totalBytes() const = 0;

    /** @return Stable backend name ("memory", "dir"). */
    virtual const char *kind() const = 0;
};

/**
 * In-memory backend; keys() sorts on demand. take() is one lock and
 * one lookup, and moves the value out without copying it.
 */
class MemorySnapshotStore final : public SnapshotStore
{
  public:
    bool put(const std::string &key, std::vector<uint8_t> bytes) override;
    bool get(const std::string &key,
             std::vector<uint8_t> &bytes) const override;
    bool remove(const std::string &key) override;
    bool take(const std::string &key,
              std::vector<uint8_t> &bytes) override;
    std::vector<std::string> keys() const override;
    uint64_t totalBytes() const override;
    const char *kind() const override { return "memory"; }

  private:
    mutable std::mutex _mutex;
    std::unordered_map<std::string, std::vector<uint8_t>> _entries;
    uint64_t _bytes = 0;
};

/**
 * Directory-backed backend: one `.dtss` file per key. take() reads the
 * file, then unlinks it.
 */
class DirSnapshotStore final : public SnapshotStore
{
  public:
    /**
     * @param dir Snapshot directory; created (with parents) when
     *        missing. ok() reports whether it is usable. `.dtss` files
     *        already there count in keys() and totalBytes(), but no
     *        service restores a tenant from one: a service marks a
     *        tenant snapshotted only when it evicted the tenant itself
     *        (`lifecycletool prune` deletes those that fail to decode).
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
    bool take(const std::string &key,
              std::vector<uint8_t> &bytes) override;
    std::vector<std::string> keys() const override;
    uint64_t totalBytes() const override;
    const char *kind() const override { return "dir"; }

  private:
    std::string _dir;
    bool _ok = false;
    mutable std::mutex _mutex;
    /** key → stored byte count, mirroring the directory. */
    std::map<std::string, uint64_t> _sizes;
    uint64_t _bytes = 0; ///< Sum of _sizes, kept as entries change.
};

/** Read a whole file. @return false on any I/O failure. */
bool readSnapshotFile(const std::string &path,
                      std::vector<uint8_t> &bytes);

/** Write a whole file via tmp + rename. @return false on failure. */
bool writeSnapshotFile(const std::string &path,
                       const std::vector<uint8_t> &bytes);

} // namespace draco::lifecycle

#endif // DRACO_LIFECYCLE_STORE_HH
