#include "lifecycle/store.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "hash/crc64.hh"
#include "support/logging.hh"

namespace draco::lifecycle {

namespace fs = std::filesystem;

// ---- MemorySnapshotStore ----

bool
MemorySnapshotStore::put(const std::string &key,
                         std::vector<uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<uint8_t> &entry = _entries[key];
    _bytes -= entry.size();
    _bytes += bytes.size();
    entry = std::move(bytes);
    return true;
}

bool
MemorySnapshotStore::get(const std::string &key,
                         std::vector<uint8_t> &bytes) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    if (it == _entries.end())
        return false;
    bytes = it->second;
    return true;
}

bool
MemorySnapshotStore::remove(const std::string &key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    if (it == _entries.end())
        return false;
    _bytes -= it->second.size();
    _entries.erase(it);
    return true;
}

std::vector<std::string>
MemorySnapshotStore::keys() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const auto &[key, bytes] : _entries)
        out.push_back(key);
    std::sort(out.begin(), out.end());
    return out;
}

uint64_t
MemorySnapshotStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _bytes;
}

// ---- file helpers ----

bool
readSnapshotFile(const std::string &path, std::vector<uint8_t> &bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    std::streamoff size = in.tellg();
    if (size < 0)
        return false;
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    return static_cast<std::streamoff>(in.gcount()) == size && !in.bad();
}

bool
writeSnapshotFile(const std::string &path,
                  const std::vector<uint8_t> &bytes)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

// ---- DirSnapshotStore ----

DirSnapshotStore::DirSnapshotStore(std::string dir) : _dir(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    _ok = fs::is_directory(_dir, ec);
    if (!_ok) {
        warn("DirSnapshotStore: '%s' is not usable", _dir.c_str());
        return;
    }
    // Adopt snapshots a previous daemon left behind so restarts keep
    // their warm state.
    for (const auto &entry : fs::directory_iterator(_dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() < 5 || name.substr(name.size() - 5) != ".dtss")
            continue;
        _sizes[name] = static_cast<uint64_t>(entry.file_size(ec));
    }
}

std::string
DirSnapshotStore::pathFor(const std::string &key) const
{
    // Sanitize for the filesystem, then disambiguate sanitize
    // collisions ("a/b" vs "a_b") with a short content hash of the
    // raw key.
    std::string safe;
    safe.reserve(key.size());
    for (char c : key) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        safe.push_back(keep ? c : '_');
    }
    if (safe.size() > 128)
        safe.resize(128);
    uint64_t hash = crc64Ecma().compute(key.data(), key.size());
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%016llx.dtss",
                  static_cast<unsigned long long>(hash));
    return _dir + "/" + safe + suffix;
}

bool
DirSnapshotStore::put(const std::string &key, std::vector<uint8_t> bytes)
{
    if (!_ok)
        return false;
    std::string path = pathFor(key);
    if (!writeSnapshotFile(path, bytes))
        return false;
    std::lock_guard<std::mutex> lock(_mutex);
    _sizes[fs::path(path).filename().string()] = bytes.size();
    return true;
}

bool
DirSnapshotStore::get(const std::string &key,
                      std::vector<uint8_t> &bytes) const
{
    if (!_ok)
        return false;
    return readSnapshotFile(pathFor(key), bytes);
}

bool
DirSnapshotStore::remove(const std::string &key)
{
    if (!_ok)
        return false;
    std::string path = pathFor(key);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _sizes.erase(fs::path(path).filename().string());
    }
    return std::remove(path.c_str()) == 0;
}

std::vector<std::string>
DirSnapshotStore::keys() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> out;
    out.reserve(_sizes.size());
    for (const auto &[name, size] : _sizes)
        out.push_back(name);
    return out;
}

uint64_t
DirSnapshotStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    uint64_t total = 0;
    for (const auto &[name, size] : _sizes)
        total += size;
    return total;
}

} // namespace draco::lifecycle
