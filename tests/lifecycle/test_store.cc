/**
 * @file
 * SnapshotStore backend tests: the memory and directory backends obey
 * the same put/get/remove/take/keys/totalBytes contract, and the
 * directory backend adopts pre-existing snapshot files (and keeps its
 * byte total as they are replaced, taken or removed), sanitizes
 * hostile keys, and survives removal of its directory (failed put,
 * not a crash).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lifecycle/store.hh"

namespace draco::lifecycle {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

/** Fresh temp directory, removed on destruction. */
struct TempDir {
    fs::path path;
    TempDir()
    {
        path = fs::temp_directory_path() /
               ("draco-store-test-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter()++));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static int &counter()
    {
        static int n = 0;
        return n;
    }
};

/** Contract shared by every backend. */
void
exerciseContract(SnapshotStore &store)
{
    EXPECT_TRUE(store.keys().empty());
    EXPECT_EQ(store.totalBytes(), 0u);

    ASSERT_TRUE(store.put("tenant-b", bytesOf("bbbb")));
    ASSERT_TRUE(store.put("tenant-a", bytesOf("aa")));
    EXPECT_EQ(store.totalBytes(), 6u);
    // keys() is backend-flavoured (raw keys vs snapshot filenames)
    // but always sorted and one-per-entry.
    EXPECT_EQ(store.keys().size(), 2u);

    // Replacement adjusts the byte total instead of accumulating.
    ASSERT_TRUE(store.put("tenant-a", bytesOf("aaaaaaaa")));
    EXPECT_EQ(store.totalBytes(), 12u);

    std::vector<uint8_t> got;
    ASSERT_TRUE(store.get("tenant-a", got));
    EXPECT_EQ(got, bytesOf("aaaaaaaa"));
    EXPECT_FALSE(store.get("tenant-c", got));

    EXPECT_TRUE(store.remove("tenant-a"));
    EXPECT_FALSE(store.remove("tenant-a"));
    EXPECT_EQ(store.totalBytes(), 4u);
    EXPECT_EQ(store.keys().size(), 1u);

    // take() hands back the stored bytes and drops the key.
    ASSERT_TRUE(store.put("tenant-c", bytesOf("ccc")));
    EXPECT_EQ(store.totalBytes(), 7u);
    EXPECT_EQ(store.keys().size(), 2u);
    got.clear();
    ASSERT_TRUE(store.take("tenant-c", got));
    EXPECT_EQ(got, bytesOf("ccc"));
    EXPECT_FALSE(store.get("tenant-c", got));
    EXPECT_EQ(store.keys().size(), 1u);
    EXPECT_EQ(store.totalBytes(), 4u);
    EXPECT_FALSE(store.take("tenant-c", got));
    EXPECT_FALSE(store.take("tenant-never", got));
    EXPECT_EQ(store.totalBytes(), 4u);
}

TEST(MemoryStore, Contract)
{
    MemorySnapshotStore store;
    exerciseContract(store);
}

TEST(MemoryStore, KeysAreRawAndSorted)
{
    MemorySnapshotStore store;
    ASSERT_TRUE(store.put("b", bytesOf("1")));
    ASSERT_TRUE(store.put("a", bytesOf("2")));
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(DirStore, Contract)
{
    TempDir dir;
    DirSnapshotStore store(dir.path.string());
    ASSERT_TRUE(store.ok());
    exerciseContract(store);
}

TEST(DirStore, CreatesMissingDirectory)
{
    TempDir dir;
    DirSnapshotStore store((dir.path / "a" / "b").string());
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE(fs::is_directory(dir.path / "a" / "b"));
}

TEST(DirStore, AdoptsPreexistingFiles)
{
    TempDir dir;
    {
        DirSnapshotStore first(dir.path.string());
        ASSERT_TRUE(first.ok());
        ASSERT_TRUE(first.put("tenant-a", bytesOf("hello")));
    }
    // A second store over the same directory sees the snapshot.
    DirSnapshotStore second(dir.path.string());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.keys().size(), 1u);
    EXPECT_EQ(second.totalBytes(), 5u);
    std::vector<uint8_t> got;
    ASSERT_TRUE(second.get("tenant-a", got));
    EXPECT_EQ(got, bytesOf("hello"));
}

TEST(DirStore, AdoptedFilesLeaveTheTotalAsTheyGo)
{
    TempDir dir;
    {
        DirSnapshotStore first(dir.path.string());
        ASSERT_TRUE(first.ok());
        ASSERT_TRUE(first.put("tenant-a", bytesOf("hello")));
        ASSERT_TRUE(first.put("tenant-b", bytesOf("hi")));
    }
    // The running total starts from the adopted files and moves with
    // every replace, take and remove of one.
    DirSnapshotStore second(dir.path.string());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.totalBytes(), 7u);
    ASSERT_TRUE(second.put("tenant-b", bytesOf("hey!")));
    EXPECT_EQ(second.totalBytes(), 9u);
    std::vector<uint8_t> got;
    ASSERT_TRUE(second.take("tenant-a", got));
    EXPECT_EQ(got, bytesOf("hello"));
    EXPECT_EQ(second.totalBytes(), 4u);
    EXPECT_TRUE(second.remove("tenant-b"));
    EXPECT_EQ(second.totalBytes(), 0u);
    EXPECT_TRUE(second.keys().empty());
}

TEST(DirStore, HostileKeysAreSanitizedAndDistinct)
{
    TempDir dir;
    DirSnapshotStore store(dir.path.string());
    ASSERT_TRUE(store.ok());

    // Path metacharacters are neutralized: the file lands inside the
    // store directory, not at ../escape.
    ASSERT_TRUE(store.put("../escape", bytesOf("x")));
    fs::path where(store.pathFor("../escape"));
    EXPECT_EQ(where.parent_path(), dir.path);
    EXPECT_TRUE(fs::exists(where));
    EXPECT_FALSE(fs::exists(dir.path.parent_path() / "escape"));

    // Keys that sanitize to the same safe name stay distinct through
    // the content-hash suffix.
    ASSERT_TRUE(store.put("a/b", bytesOf("slash")));
    ASSERT_TRUE(store.put("a_b", bytesOf("under")));
    EXPECT_NE(store.pathFor("a/b"), store.pathFor("a_b"));
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.get("a/b", got));
    EXPECT_EQ(got, bytesOf("slash"));
    ASSERT_TRUE(store.get("a_b", got));
    EXPECT_EQ(got, bytesOf("under"));
}

TEST(DirStore, FailedPutReportsFalse)
{
    TempDir dir;
    DirSnapshotStore store(dir.path.string());
    ASSERT_TRUE(store.ok());
    fs::remove_all(dir.path);
    EXPECT_FALSE(store.put("tenant-a", bytesOf("x")));
}

TEST(SnapshotFile, RoundTripAndFailure)
{
    TempDir dir;
    fs::create_directories(dir.path);
    std::string path = (dir.path / "x.dtss").string();
    ASSERT_TRUE(writeSnapshotFile(path, bytesOf("payload")));
    std::vector<uint8_t> got;
    ASSERT_TRUE(readSnapshotFile(path, got));
    EXPECT_EQ(got, bytesOf("payload"));
    EXPECT_FALSE(
        readSnapshotFile((dir.path / "missing.dtss").string(), got));
    EXPECT_FALSE(writeSnapshotFile(
        (dir.path / "no-such-dir" / "x.dtss").string(), bytesOf("p")));
}

} // namespace
} // namespace draco::lifecycle
