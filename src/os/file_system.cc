#include "os/file_system.hh"

#include "common/logging.hh"

namespace vic
{

FileSystem::FileSystem(StatSet &stat_set)
    : counters(stat_set.registerTable<kFileSystemCounters>())
{
}

FileSystem::File &
FileSystem::get(FileId file)
{
    vic_assert(file < files.size() && files[file].live,
               "bad file id %u", file);
    return files[file];
}

const FileSystem::File &
FileSystem::get(FileId file) const
{
    vic_assert(file < files.size() && files[file].live,
               "bad file id %u", file);
    return files[file];
}

FileId
FileSystem::create(const std::string &name)
{
    vic_assert(byName.find(name) == byName.end(),
               "file '%s' already exists", name.c_str());
    ++counters[FileSystemStat::Creates];
    const FileId id = static_cast<FileId>(files.size());
    files.push_back(File{name, 0, {}, true});
    byName.emplace(name, id);
    return id;
}

std::optional<FileId>
FileSystem::lookup(const std::string &name) const
{
    auto it = byName.find(name);
    if (it == byName.end())
        return std::nullopt;
    return it->second;
}

void
FileSystem::remove(FileId file)
{
    File &f = get(file);
    ++counters[FileSystemStat::Deletes];
    for (const auto &b : f.blocks) {
        if (b)
            freeDiskBlocks.push_back(*b);
    }
    byName.erase(f.name);
    f.live = false;
    f.blocks.clear();
    f.sizeBytes = 0;
}

bool
FileSystem::exists(FileId file) const
{
    return file < files.size() && files[file].live;
}

std::uint64_t
FileSystem::sizeBytes(FileId file) const
{
    return get(file).sizeBytes;
}

void
FileSystem::extendTo(FileId file, std::uint64_t size_bytes)
{
    File &f = get(file);
    if (size_bytes > f.sizeBytes)
        f.sizeBytes = size_bytes;
}

std::uint64_t
FileSystem::numBlocks(FileId file, std::uint32_t block_bytes) const
{
    return (get(file).sizeBytes + block_bytes - 1) / block_bytes;
}

bool
FileSystem::hasDiskBlock(FileId file, std::uint64_t block) const
{
    const File &f = get(file);
    return block < f.blocks.size() && f.blocks[block].has_value();
}

std::uint64_t
FileSystem::diskBlockFor(FileId file, std::uint64_t block)
{
    File &f = get(file);
    if (block >= f.blocks.size())
        f.blocks.resize(block + 1);
    if (!f.blocks[block]) {
        if (!freeDiskBlocks.empty()) {
            f.blocks[block] = freeDiskBlocks.back();
            freeDiskBlocks.pop_back();
        } else {
            f.blocks[block] = nextDiskBlock++;
        }
    }
    return *f.blocks[block];
}

std::optional<std::uint64_t>
FileSystem::diskBlockIfAny(FileId file, std::uint64_t block) const
{
    const File &f = get(file);
    if (block >= f.blocks.size())
        return std::nullopt;
    return f.blocks[block];
}

} // namespace vic
