/**
 * @file
 * lifecycletool — inspect, verify, and prune `.dtss` snapshots.
 *
 * Operates on a single snapshot file or on a whole snapshot directory
 * (every `*.dtss` inside, non-recursive) — the on-disk form of a
 * DirSnapshotStore that dracod runs with `--snapshot-dir`. Every
 * command decodes each file with lifecycle::inspectSnapshot(), which
 * checks the magic, the version and the file's one CRC-64 and needs no
 * policy.
 *
 *   inspect: print each snapshot's tenant, policy key, VAT eviction
 *            count, and per-table occupancy by table index.
 *   verify:  exit 1 when any snapshot fails to decode.
 *   prune:   delete every snapshot that fails to decode, instead of
 *            leaving it to fail a restore.
 *
 * Usage:
 *   lifecycletool inspect <file.dtss | dir>
 *   lifecycletool verify <file.dtss | dir>
 *   lifecycletool prune <file.dtss | dir>
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lifecycle/snapshot.hh"
#include "lifecycle/store.hh"

using namespace draco;
namespace fs = std::filesystem;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: lifecycletool inspect <file.dtss | dir>\n"
                 "       lifecycletool verify <file.dtss | dir>\n"
                 "       lifecycletool prune <file.dtss | dir>\n");
    return 2;
}

/** Expand @p target into the snapshot files it names (sorted). */
std::vector<std::string>
snapshotFiles(const std::string &target)
{
    std::error_code ec;
    if (!fs::is_directory(target, ec))
        return {target};
    std::vector<std::string> files;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(target, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".dtss")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

void
printInfo(const std::string &path, const lifecycle::SnapshotInfo &info)
{
    std::printf("%s:\n", path.c_str());
    std::printf("  tenant         %s\n", info.tenant.c_str());
    std::printf("  policy_key     %016llx\n",
                static_cast<unsigned long long>(info.policyKey));
    std::printf("  version        %u\n", lifecycle::kSnapshotVersion);
    std::printf("  bytes          %zu\n", info.bytes);
    std::printf("  vat            %zu tables, %llu evictions\n",
                info.tables.size(),
                static_cast<unsigned long long>(info.vatEvictions));
    for (size_t i = 0; i < info.tables.size(); ++i) {
        const lifecycle::SnapshotTableInfo &table = info.tables[i];
        std::printf("    table %-4zu %llu slots, %llu lookups, %llu hits, "
                    "%llu insertions, %llu evictions\n",
                    i, static_cast<unsigned long long>(table.slots),
                    static_cast<unsigned long long>(table.stats.lookups),
                    static_cast<unsigned long long>(table.stats.hits),
                    static_cast<unsigned long long>(table.stats.insertions),
                    static_cast<unsigned long long>(table.stats.evictions));
    }
}

/**
 * Run @p command on the snapshot at @p path.
 *
 * @return 0 when the file decodes, or when prune removed it.
 */
int
runOne(const std::string &command, const std::string &path)
{
    std::vector<uint8_t> bytes;
    lifecycle::SnapshotInfo info;
    std::string error = "cannot read the file";
    if (lifecycle::readSnapshotFile(path, bytes) &&
        lifecycle::inspectSnapshot(bytes, info, &error)) {
        if (command == "inspect")
            printInfo(path, info);
        else if (command == "verify")
            std::printf("%s: ok (%zu tables, %zu bytes)\n", path.c_str(),
                        info.tables.size(), info.bytes);
        return 0;
    }
    if (command != "prune") {
        std::fprintf(stderr, "lifecycletool: %s: CORRUPT: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    std::error_code ec;
    fs::remove(path, ec);
    std::printf("%s: corrupt (%s), pruned\n", path.c_str(), error.c_str());
    return ec ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    const std::string command = argv[1];
    const std::string target = argv[2];
    if (command != "inspect" && command != "verify" && command != "prune")
        return usage();

    std::vector<std::string> files = snapshotFiles(target);
    if (files.empty()) {
        std::fprintf(stderr, "lifecycletool: no .dtss files in %s\n",
                     target.c_str());
        return 1;
    }

    int failures = 0;
    for (const std::string &path : files)
        failures += runOne(command, path) != 0;
    if (files.size() > 1)
        std::printf("%zu snapshots, %d bad\n", files.size(), failures);
    return failures == 0 ? 0 : 1;
}
