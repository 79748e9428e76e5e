// Build identity for the /buildinfo endpoint and bench provenance.
//
// Version, git describe, build type and sanitizer flags are baked into
// buildinfo.cpp at configure time (COMPILE_DEFINITIONS on that one source
// file, so only it rebuilds when the git head moves).
#pragma once

#include <ostream>
#include <string>

#include "common/json_write.hpp"

namespace adres::obs {

struct BuildInfo {
  std::string version;      ///< project version (CMake)
  std::string gitDescribe;  ///< `git describe --always --dirty` at configure
  std::string buildType;    ///< CMAKE_BUILD_TYPE
  std::string sanitize;     ///< sanitizer flags, "" for none
  std::string compiler;     ///< compiler id + version
};

const BuildInfo& buildInfo();

/// Versioned JSON: {"schema":"adres.buildinfo.v1", ...}.
void writeBuildInfoJson(std::ostream& os);
void writeBuildInfoJson(JsonWriter& w);

}  // namespace adres::obs
