#include "core/store/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/error.hh"
#include "support/filelock.hh"
#include "support/hash.hh"

namespace d16sim::core::store
{

namespace
{

constexpr char kEntryMagic[4] = {'D', '1', '6', 'S'};
constexpr uint32_t kEntryVersion = 1;
constexpr const char *kLayoutVersion = "d16store-v1\n";

/** Fixed-size little-endian entry header preceding every payload. */
struct EntryHeader
{
    char magic[4];
    uint8_t version;
    uint8_t kind;
    uint8_t pad[2];
    uint8_t payloadLen[8]; //!< little-endian uint64
    uint8_t sha[32];       //!< SHA-256 of the payload bytes
};
static_assert(sizeof(EntryHeader) == 48, "entry header layout");

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create ", path, ": ", std::strerror(errno));
}

bool
isHexKey(const std::string &key)
{
    if (key.size() < 3 || key.size() > 128)
        return false;
    for (char c : key)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    return true;
}

const Kind kAllKinds[] = {Kind::Result, Kind::Image, Kind::Trace,
                          Kind::Meta};

uint64_t
readLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = v << 8 | p[i];
    return v;
}

void
writeLe64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

} // namespace

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Result: return "result";
      case Kind::Image: return "image";
      case Kind::Trace: return "trace";
      case Kind::Meta: return "meta";
    }
    panic("unknown artifact kind ", static_cast<int>(kind));
}

Json
StoreScan::json() const
{
    Json j = Json::object();
    Json byKind = Json::object();
    for (const auto &[name, census] : kinds) {
        Json k = Json::object();
        k["entries"] = Json(census.entries);
        k["bytes"] = Json(census.bytes);
        byKind[name] = std::move(k);
    }
    j["kinds"] = std::move(byKind);
    j["entries"] = Json(entries);
    j["bytes"] = Json(bytes);
    return j;
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir))
{
    makeDir(dir_);
    makeDir(dir_ + "/tmp");
    for (Kind kind : kAllKinds)
        makeDir(dir_ + "/" + kindName(kind));

    // Stamp or validate the layout version so a future schema change
    // fails loudly instead of silently misreading entries. The stamp
    // must be atomic (tmp + rename): a concurrent handle creating the
    // same fresh store would otherwise observe a half-written VERSION
    // and refuse the directory.
    const std::string versionPath = dir_ + "/VERSION";
    std::ifstream in(versionPath);
    if (in) {
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (text != kLayoutVersion)
            fatal("artifact store ", dir_, " has layout '", text,
                  "', this build expects '", kLayoutVersion, "'");
    } else {
        const std::string tmpPath =
            dir_ + "/tmp/version." + std::to_string(::getpid()) + "." +
            std::to_string(reinterpret_cast<uintptr_t>(this));
        {
            std::ofstream out(tmpPath, std::ios::trunc);
            if (!out)
                fatal("cannot write ", tmpPath);
            out << kLayoutVersion;
        }
        if (::rename(tmpPath.c_str(), versionPath.c_str()) != 0) {
            const int err = errno;
            ::unlink(tmpPath.c_str());
            fatal("cannot commit ", versionPath, ": ",
                  std::strerror(err));
        }
    }

    lock_ = std::make_unique<FileLock>(dir_ + "/store.lock",
                                       FileLock::Mode::Shared);
}

ArtifactStore::~ArtifactStore() = default;

std::string
ArtifactStore::entryPath(Kind kind, const std::string &key) const
{
    panicIf(!isHexKey(key), "malformed store key '", key, "'");
    return dir_ + "/" + kindName(kind) + "/" + key.substr(0, 2) + "/" +
           key;
}

bool
ArtifactStore::get(Kind kind, const std::string &key,
                   std::vector<uint8_t> *payload)
{
    const std::string path = entryPath(kind, key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::lock_guard<std::mutex> guard(mutex_);
        ++counters_.misses;
        return false;
    }

    bool corrupt = false;
    EntryHeader header;
    std::vector<uint8_t> bytes;
    if (!in.read(reinterpret_cast<char *>(&header), sizeof(header)) ||
        std::memcmp(header.magic, kEntryMagic, sizeof(kEntryMagic)) != 0 ||
        header.version != kEntryVersion ||
        header.kind != static_cast<uint8_t>(kind)) {
        corrupt = true;
    } else {
        const uint64_t len = readLe64(header.payloadLen);
        if (len > (1ull << 32)) {
            corrupt = true;
        } else {
            bytes.resize(len);
            if (len &&
                !in.read(reinterpret_cast<char *>(bytes.data()),
                         static_cast<std::streamsize>(len))) {
                corrupt = true;
            } else if (in.peek() != std::char_traits<char>::eof()) {
                corrupt = true; //!< trailing garbage
            } else {
                Sha256 h;
                h.update(bytes.data(), bytes.size());
                const std::array<uint8_t, 32> digest = h.digest();
                if (std::memcmp(digest.data(), header.sha,
                                sizeof(header.sha)) != 0)
                    corrupt = true;
            }
        }
    }
    in.close();

    std::lock_guard<std::mutex> guard(mutex_);
    if (corrupt) {
        // Never serve a damaged entry; drop it so the re-executed
        // artifact takes its place.
        ::unlink(path.c_str());
        ++counters_.corrupt;
        ++counters_.misses;
        return false;
    }
    ++counters_.hits;
    *payload = std::move(bytes);
    return true;
}

void
ArtifactStore::put(Kind kind, const std::string &key, const uint8_t *data,
                   size_t size)
{
    const std::string path = entryPath(kind, key);

    EntryHeader header = {};
    std::memcpy(header.magic, kEntryMagic, sizeof(kEntryMagic));
    header.version = kEntryVersion;
    header.kind = static_cast<uint8_t>(kind);
    writeLe64(header.payloadLen, size);
    Sha256 h;
    h.update(data, size);
    const std::array<uint8_t, 32> digest = h.digest();
    std::memcpy(header.sha, digest.data(), digest.size());

    std::string tmpPath;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        // pid and handle address: two handles in one process (or two
        // processes) on one directory never stage to the same name.
        tmpPath = dir_ + "/tmp/put." + std::to_string(::getpid()) + "." +
                  std::to_string(reinterpret_cast<uintptr_t>(this)) + "." +
                  std::to_string(tmpSeq_++);
        ++counters_.puts;
    }
    {
        std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot stage store entry at ", tmpPath);
        out.write(reinterpret_cast<const char *>(&header), sizeof(header));
        if (size)
            out.write(reinterpret_cast<const char *>(data),
                      static_cast<std::streamsize>(size));
        if (!out)
            fatal("short write staging store entry ", tmpPath);
    }

    // The shard directory is created lazily; mkdir+rename both succeed
    // if a concurrent writer got there first.
    const size_t slash = path.rfind('/');
    makeDir(path.substr(0, slash));
    if (::rename(tmpPath.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmpPath.c_str());
        fatal("cannot commit store entry ", path, ": ",
              std::strerror(err));
    }
}

void
ArtifactStore::put(Kind kind, const std::string &key,
                   const std::vector<uint8_t> &payload)
{
    put(kind, key, payload.data(), payload.size());
}

bool
ArtifactStore::contains(Kind kind, const std::string &key) const
{
    struct stat st;
    return ::stat(entryPath(kind, key).c_str(), &st) == 0;
}

namespace
{

/** Invoke fn(key, fileBytes, path) for every entry of `kind`. */
template <typename Fn>
void
forEachEntry(const std::string &dir, Kind kind, Fn fn)
{
    const std::string kindDir = dir + "/" + kindName(kind);
    DIR *top = ::opendir(kindDir.c_str());
    if (!top)
        return;
    while (dirent *shard = ::readdir(top)) {
        if (shard->d_name[0] == '.')
            continue;
        const std::string shardDir = kindDir + "/" + shard->d_name;
        DIR *sub = ::opendir(shardDir.c_str());
        if (!sub)
            continue;
        while (dirent *entry = ::readdir(sub)) {
            if (entry->d_name[0] == '.')
                continue;
            const std::string path = shardDir + "/" + entry->d_name;
            struct stat st;
            if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
                continue;
            fn(std::string(entry->d_name),
               static_cast<uint64_t>(st.st_size), path);
        }
        ::closedir(sub);
    }
    ::closedir(top);
}

} // namespace

StoreScan
ArtifactStore::scan() const
{
    StoreScan out;
    for (Kind kind : kAllKinds) {
        StoreScan::PerKind census;
        forEachEntry(dir_, kind,
                     [&](const std::string &, uint64_t bytes,
                         const std::string &) {
                         ++census.entries;
                         census.bytes += bytes;
                     });
        out.kinds.emplace(kindName(kind), census);
        out.entries += census.entries;
        out.bytes += census.bytes;
    }
    return out;
}

ArtifactStore::GcResult
ArtifactStore::gc(const std::map<Kind, std::set<std::string>> &live)
{
    // Exclusive window: concurrent store handles hold the lock shared
    // for their whole lifetime, so this blocks until they are gone
    // (and blocks new ones until collection finishes).
    lock_->relock(FileLock::Mode::Exclusive);
    GcResult result;
    for (Kind kind : kAllKinds) {
        const auto it = live.find(kind);
        const std::set<std::string> *keep =
            it == live.end() ? nullptr : &it->second;
        forEachEntry(dir_, kind,
                     [&](const std::string &key, uint64_t bytes,
                         const std::string &path) {
                         if (keep && keep->count(key)) {
                             ++result.kept;
                             return;
                         }
                         if (::unlink(path.c_str()) == 0) {
                             ++result.removed;
                             result.bytesFreed += bytes;
                         }
                     });
    }
    lock_->relock(FileLock::Mode::Shared);
    return result;
}

StoreCounters
ArtifactStore::counters() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return counters_;
}

} // namespace d16sim::core::store
