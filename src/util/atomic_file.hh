/**
 * @file
 * Write-then-rename file publication, the one mechanism behind every
 * artifact that must never be seen half-written: metrics documents,
 * checkpoints, compacted journals and summary records.
 *
 * The bytes are streamed into a temp file beside the target, flushed,
 * and renamed over it, so a crash at any instant leaves either the
 * old file or the new one. The temp name is unique per call
 * ("<path>.tmp.<pid>.<n>"), so concurrent writers of one path - two
 * sweep cells with the same fingerprint exporting into one metrics
 * directory, or checkpointing to one base name - never share a temp
 * file; the last rename wins with a complete image.
 */

#ifndef PABP_UTIL_ATOMIC_FILE_HH
#define PABP_UTIL_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

#include "util/status.hh"

namespace pabp {

/**
 * Stream @p write's output into @p path via a unique temp file and a
 * rename. @p write only writes; a stream left bad (or a failed open,
 * flush or rename) is an IoError and removes the temp file. Nothing
 * is buffered here, so multi-megabyte images stream straight to disk.
 */
Status atomicWriteFile(const std::string &path,
                       const std::function<void(std::ostream &)> &write);

/** atomicWriteFile() of an in-memory image. */
Status atomicWriteFile(const std::string &path, const std::string &bytes);

/**
 * Delete every temp file an interrupted atomicWriteFile() of @p path
 * can have left behind (the "<path>.tmp" prefix). Only meaningful
 * while no writer of @p path is live, e.g. when a single-writer
 * journal opens.
 */
void removeStaleTempFiles(const std::string &path);

} // namespace pabp

#endif // PABP_UTIL_ATOMIC_FILE_HH
