#ifndef FRAZ_ARCHIVE_ARCHIVE_FILE_HPP
#define FRAZ_ARCHIVE_ARCHIVE_FILE_HPP

/// \file archive_file.hpp
/// Former names of the file transport.  ArchiveWriter writes to a file
/// through begin(path) / write(path, view), and ArchiveReader reads one
/// through open(path, FileReadMode) — see archive/archive.hpp.  The aliases
/// below exist for `perfbench/` and out-of-tree code written against the
/// old split classes; in-repo code spells the single names.

#include "archive/archive.hpp"

namespace fraz::archive {

using ArchiveFileWriter = ArchiveWriter;
using ArchiveFileReader = ArchiveReader;

}  // namespace fraz::archive

#endif  // FRAZ_ARCHIVE_ARCHIVE_FILE_HPP
