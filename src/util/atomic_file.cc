#include "util/atomic_file.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace pabp {

namespace {

/** "<path>.tmp.<pid>.<n>": unique across the threads of a process
 *  (the counter) and across processes sharing a directory (the pid). */
std::string
uniqueTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> next{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

Status
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &write)
{
    const std::string tmp = uniqueTempPath(path);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return Status(StatusCode::IoError,
                          "cannot open for writing: " + tmp);
        write(os);
        os.flush();
        if (!os) {
            std::remove(tmp.c_str());
            return Status(StatusCode::IoError, "write failure on: " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status(StatusCode::IoError,
                      "cannot rename into place: " + path);
    }
    return Status();
}

Status
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    return atomicWriteFile(path, [&bytes](std::ostream &os) {
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    });
}

void
removeStaleTempFiles(const std::string &path)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    const std::string prefix = target.filename().string() + ".tmp";
    const fs::path dir =
        target.has_parent_path() ? target.parent_path() : fs::path(".");
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        std::error_code ignored;
        if (name.compare(0, prefix.size(), prefix) == 0)
            fs::remove(it->path(), ignored);
    }
}

} // namespace pabp
