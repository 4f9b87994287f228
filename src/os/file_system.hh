/**
 * @file
 * Simple flat file system metadata: names, sizes, and the mapping from
 * (file, file block) to disk blocks. Data lives on the simulated disk
 * and in the buffer cache; this class only does bookkeeping.
 */

#ifndef VIC_OS_FILE_SYSTEM_HH
#define VIC_OS_FILE_SYSTEM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "os/vm_object.hh"

namespace vic
{

/** FileSystem's counters (common/stats.hh). */
enum class FileSystemStat { Creates, Deletes, Count };
inline constexpr CounterTable<FileSystemStat> kFileSystemCounters{
    "fs.creates",
    "fs.deletes"};

class FileSystem
{
  public:
    explicit FileSystem(StatSet &stat_set);

    /** Create an empty file. The name must be unused. */
    FileId create(const std::string &name);

    /** Look up a file by name. */
    std::optional<FileId> lookup(const std::string &name) const;

    /** Delete a file (blocks are recycled). */
    void remove(FileId file);

    bool exists(FileId file) const;

    std::uint64_t sizeBytes(FileId file) const;
    void extendTo(FileId file, std::uint64_t size_bytes);

    /** Number of file blocks @p file occupies at its current size. */
    std::uint64_t numBlocks(FileId file, std::uint32_t block_bytes) const;

    /** @return true iff file block @p block has ever been assigned a
     *  disk block (i.e. contains written data). */
    bool hasDiskBlock(FileId file, std::uint64_t block) const;

    /** Disk block backing file block @p block, allocating one if
     *  needed. */
    std::uint64_t diskBlockFor(FileId file, std::uint64_t block);

    /** Disk block if assigned (no allocation). */
    std::optional<std::uint64_t> diskBlockIfAny(FileId file,
                                                std::uint64_t block) const;

  private:
    struct File
    {
        std::string name;
        std::uint64_t sizeBytes = 0;
        std::vector<std::optional<std::uint64_t>> blocks;
        bool live = true;
    };

    std::vector<File> files;
    std::unordered_map<std::string, FileId> byName;
    std::vector<std::uint64_t> freeDiskBlocks;
    std::uint64_t nextDiskBlock = 0;

    Counters<kFileSystemCounters> counters;

    File &get(FileId file);
    const File &get(FileId file) const;
};

} // namespace vic

#endif // VIC_OS_FILE_SYSTEM_HH
