#include "obs/buildinfo.hpp"

#ifndef ADRES_VERSION
#define ADRES_VERSION "0.0.0"
#endif
#ifndef ADRES_GIT_DESCRIBE
#define ADRES_GIT_DESCRIBE "unknown"
#endif
#ifndef ADRES_BUILD_TYPE
#define ADRES_BUILD_TYPE ""
#endif
#ifndef ADRES_SANITIZE_FLAGS
#define ADRES_SANITIZE_FLAGS ""
#endif

namespace adres::obs {
namespace {

std::string compilerId() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& buildInfo() {
  static const BuildInfo info{ADRES_VERSION, ADRES_GIT_DESCRIBE,
                              ADRES_BUILD_TYPE, ADRES_SANITIZE_FLAGS,
                              compilerId()};
  return info;
}

void writeBuildInfoJson(std::ostream& os) {
  JsonWriter w(os);
  writeBuildInfoJson(w);
}

void writeBuildInfoJson(JsonWriter& w) {
  const BuildInfo& b = buildInfo();
  w.beginObject().field("schema", "adres.buildinfo.v1");
  w.field("version", b.version).field("git_describe", b.gitDescribe);
  w.field("build_type", b.buildType).field("sanitize", b.sanitize);
  w.field("compiler", b.compiler).end();
}

}  // namespace adres::obs
